// Tests for tensor index notation, the Tensor frontend, the scheduling
// command list, and the dense reference evaluator.
#include <gtest/gtest.h>

#include "tensor/dense_ref.h"
#include "tensor/tensor.h"

namespace spdistal {
namespace {

TEST(Tin, ExprConstructionAndPrinting) {
  IndexVar i("i"), j("j");
  tin::Expr e = tin::make_mul({tin::make_access("B", {i, j}),
                               tin::make_access("c", {j})});
  EXPECT_EQ(tin::expr_str(e), "B(i,j) * c(j)");
  EXPECT_TRUE(tin::is_pure_product(e));
  tin::Expr s = tin::make_add({e, tin::make_access("d", {i})});
  EXPECT_FALSE(tin::is_pure_product(s));
  EXPECT_EQ(tin::sum_of_products(s).size(), 2u);
}

TEST(Tin, FlattensNestedOps) {
  IndexVar i("i");
  tin::Expr a = tin::make_access("a", {i});
  tin::Expr abc = (a + a) + a;
  EXPECT_EQ(abc->operands.size(), 3u);
  tin::Expr m = (a * a) * a;
  EXPECT_EQ(m->operands.size(), 3u);
}

TEST(Tin, ReductionVars) {
  IndexVar i("i"), j("j"), k("k");
  tin::Assignment s{tin::Access{"A", {i, j}},
                    tin::make_mul({tin::make_access("B", {i, k}),
                                   tin::make_access("C", {k, j})}),
                    false};
  auto red = tin::reduction_vars(s);
  ASSERT_EQ(red.size(), 1u);
  EXPECT_EQ(red[0], k);
  EXPECT_EQ(tin::statement_vars(s).size(), 3u);
  EXPECT_EQ(tin::assignment_str(s), "A(i,j) = B(i,k) * C(k,j)");
}

TEST(Tin, RejectsNestedAddUnderMul) {
  IndexVar i("i");
  tin::Expr a = tin::make_access("a", {i});
  tin::Expr bad = tin::make_mul({tin::make_add({a, a}), a});
  EXPECT_THROW(tin::sum_of_products(bad), NotationError);
}

TEST(TensorApi, BuildsStatementWithBindings) {
  IndexVar i("i"), j("j");
  Tensor a("a", {4}, fmt::dense_vector());
  Tensor B("B", {4, 4}, fmt::csr());
  Tensor c("c", {4}, fmt::dense_vector());
  Statement& stmt = (a(i) = B(i, j) * c(j));
  EXPECT_EQ(stmt.str(), "a(i) = B(i,j) * c(j)");
  EXPECT_EQ(stmt.bindings.size(), 3u);
  EXPECT_TRUE(stmt.tensor("B").same_as(B));
  EXPECT_TRUE(a.has_definition());
}

TEST(TensorApi, RejectsWrongArity) {
  IndexVar i("i");
  Tensor B("B", {4, 4}, fmt::csr());
  EXPECT_THROW(B(i), NotationError);
}

TEST(TensorApi, RejectsDuplicateNames) {
  IndexVar i("i");
  Tensor a1("t", {4}, fmt::dense_vector());
  Tensor a2("t", {4}, fmt::dense_vector());
  Tensor out("out", {4}, fmt::dense_vector());
  EXPECT_THROW(out(i) = a1(i) + a2(i), NotationError);
}

TEST(Schedule, RecordsAndQueriesCommands) {
  IndexVar i("i"), io("io"), ii("ii");
  sched::Schedule s;
  s.divide(i, io, ii, 4)
      .distribute(io)
      .communicate({"a", "B", "c"}, io)
      .parallelize(ii, sched::ParallelUnit::CPUThread);
  ASSERT_TRUE(s.distributed_var().has_value());
  EXPECT_EQ(*s.distributed_var(), io);
  EXPECT_EQ(s.distributed_pieces(io), 4);
  EXPECT_FALSE(s.distributed_is_position_space());
  const sched::Command& comm = s.commands()[2];
  EXPECT_EQ(comm.kind, sched::CommandKind::Communicate);
  EXPECT_EQ(comm.tensors, (std::vector<std::string>{"a", "B", "c"}));
  EXPECT_EQ(comm.vars[0], io);
  EXPECT_TRUE(s.leaf_parallel_unit().has_value());
  EXPECT_EQ(s.str(),
            "divide(i, io, ii, 4)\n  .distribute(io)\n"
            "  .communicate({a, B, c}, io)\n"
            "  .parallelize(ii, CPUThread)");
}

TEST(Schedule, MultiAxisDistributionQueries) {
  IndexVar i("i"), j("j"), io("io"), ii("ii"), jo("jo"), ji("ji");
  sched::Schedule s;
  s.divide(i, io, ii, 4)
      .divide(j, jo, ji, 2)
      .distribute(io)
      .distribute(jo)
      .communicate({"B"}, io)
      .communicate({"C"}, jo);
  const auto dvs = s.distributed_vars();
  ASSERT_EQ(dvs.size(), 2u);
  EXPECT_EQ(dvs[0], io);
  EXPECT_EQ(dvs[1], jo);
  EXPECT_EQ(s.distributed_source(io), i);
  EXPECT_EQ(s.distributed_source(jo), j);
  EXPECT_EQ(s.distributed_pieces(io), 4);
  EXPECT_EQ(s.distributed_pieces(jo), 2);
  EXPECT_FALSE(s.distributed_is_position_space(io));
  // The single-var API delegates to axis 0.
  EXPECT_EQ(*s.distributed_var(), io);
  // Per-axis communicate placement, recorded in command order.
  const auto& cmds = s.commands();
  ASSERT_EQ(cmds.size(), 6u);
  EXPECT_EQ(cmds[4].kind, sched::CommandKind::Communicate);
  EXPECT_EQ(cmds[4].tensors, (std::vector<std::string>{"B"}));
  EXPECT_EQ(cmds[4].vars[0], io);
  EXPECT_EQ(cmds[5].kind, sched::CommandKind::Communicate);
  EXPECT_EQ(cmds[5].tensors, (std::vector<std::string>{"C"}));
  EXPECT_EQ(cmds[5].vars[0], jo);
}

TEST(Schedule, PositionSpaceDistribution) {
  IndexVar i("i"), j("j"), f("f"), fo("fo"), fi("fi");
  sched::Schedule s;
  s.fuse(i, j, f).divide_pos(f, fo, fi, 8, "B").distribute(fo);
  EXPECT_TRUE(s.distributed_is_position_space());
  EXPECT_EQ(s.position_split_tensor(), "B");
  EXPECT_EQ(s.distributed_pieces(fo), 8);
  auto srcs = s.fused_sources(f);
  ASSERT_EQ(srcs.size(), 2u);
  EXPECT_EQ(srcs[0], i);
  EXPECT_EQ(srcs[1], j);
}

TEST(Schedule, ErrorsOnUnproducedDistribute) {
  IndexVar q("q");
  sched::Schedule s;
  s.distribute(q);
  EXPECT_THROW(s.distributed_pieces(q), ScheduleError);
}

TEST(DenseRef, SpmvOracle) {
  IndexVar i("i"), j("j");
  Tensor a("a", {3}, fmt::dense_vector());
  Tensor B("B", {3, 3}, fmt::csr());
  Tensor c("c", {3}, fmt::dense_vector());
  fmt::Coo coo;
  coo.dims = {3, 3};
  coo.push({0, 0}, 2.0);
  coo.push({1, 2}, 3.0);
  coo.push({2, 1}, 4.0);
  B.from_coo(std::move(coo));
  c.init_dense([](const std::array<Coord, rt::kMaxDim>& x) {
    return static_cast<double>(x[0] + 1);
  });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  ref::DenseTensor r = ref::eval(stmt);
  EXPECT_DOUBLE_EQ(r.at({0}), 2.0 * 1);
  EXPECT_DOUBLE_EQ(r.at({1}), 3.0 * 3);
  EXPECT_DOUBLE_EQ(r.at({2}), 4.0 * 2);
}

TEST(DenseRef, DetectsConflictingExtents) {
  IndexVar i("i"), j("j");
  Tensor a("a", {3}, fmt::dense_vector());
  Tensor B("B", {3, 5}, fmt::csr());
  Tensor c("c", {4}, fmt::dense_vector());
  B.from_coo([] {
    fmt::Coo coo;
    coo.dims = {3, 5};
    return coo;
  }());
  Statement& stmt = (a(i) = B(i, j) * c(j));  // j: 5 vs 4
  EXPECT_THROW(ref::eval(stmt), NotationError);
}

}  // namespace
}  // namespace spdistal
