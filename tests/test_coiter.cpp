// Tests for the general co-iteration engine and two-phase assembly.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "compiler/lower.h"
#include "data/generators.h"
#include "kernels/assembly.h"
#include "kernels/coiter.h"
#include "tensor/dense_ref.h"

namespace spdistal::kern {
namespace {

using rt::Coord;

fmt::Coo small_csr_coo() {
  fmt::Coo coo;
  coo.dims = {4, 4};
  coo.push({0, 0}, 1.0);
  coo.push({0, 1}, 2.0);
  coo.push({0, 3}, 3.0);
  coo.push({1, 1}, 4.0);
  coo.push({1, 3}, 5.0);
  coo.push({2, 0}, 6.0);
  coo.push({3, 0}, 7.0);
  coo.push({3, 3}, 8.0);
  return coo;
}

TEST(LocatePosition, FindsAndMisses) {
  Tensor B("B", {4, 4}, fmt::csr());
  B.from_coo(small_csr_coo());
  EXPECT_EQ(locate_position(B.storage(), {0, 0}), 0);
  EXPECT_EQ(locate_position(B.storage(), {0, 3}), 2);
  EXPECT_EQ(locate_position(B.storage(), {3, 3}), 7);
  EXPECT_EQ(locate_position(B.storage(), {0, 2}), -1);
  EXPECT_EQ(locate_position(B.storage(), {2, 3}), -1);
}

TEST(LocatePosition, WalksSingletonChains) {
  Tensor B("B", {4, 4}, fmt::coo(2));
  B.from_coo(small_csr_coo());
  // COO positions enumerate entries in sorted order.
  EXPECT_EQ(locate_position(B.storage(), {0, 0}), 0);
  EXPECT_EQ(locate_position(B.storage(), {0, 3}), 2);
  EXPECT_EQ(locate_position(B.storage(), {3, 3}), 7);
  EXPECT_EQ(locate_position(B.storage(), {0, 2}), -1);
  EXPECT_EQ(locate_position(B.storage(), {2, 3}), -1);
}

TEST(Coiter, CooSpmvMatchesReference) {
  IndexVar i("i"), j("j");
  Tensor a("a", {4}, fmt::dense_vector());
  Tensor B("B", {4, 4}, fmt::coo(2));
  Tensor c("c", {4}, fmt::dense_vector());
  B.from_coo(small_csr_coo());
  c.init_dense([](const auto& x) { return static_cast<double>(x[0] + 1); });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  CoiterEngine eng(stmt);
  a.zero();
  eng.run();
  EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-12);
  // Value iteration restricted to rows 0-1 + rows 2-3 also completes.
  a.zero();
  for (Coord lo : {0, 2}) {
    PieceBounds piece;
    piece.dist_coords = rt::Rect1{lo, lo + 1};
    eng.run(piece);
  }
  EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-12);
}

TEST(Coiter, Coo3SpttvPositionSpaceWithMidChainClamp) {
  IndexVar i("i"), j("j"), k("k");
  fmt::Coo coo = data::uniform_3tensor(8, 6, 10, 60, 21);
  Tensor A("A", {8, 6}, fmt::csr());
  Tensor B("B", {8, 6, 10}, fmt::coo(3));
  Tensor c("c", {10}, fmt::dense_vector());
  B.from_coo(std::move(coo));
  c.init_dense([](const auto& x) { return 1.0 + 0.5 * (x[0] % 3); });
  Statement& stmt = (A(i, j) = B(i, j, k) * c(k));
  assemble_output(stmt);
  CoiterEngine eng(stmt, {i, j, k});
  const fmt::TensorStorage& bs = B.storage();
  const Coord nnz = bs.level(2).positions;
  // Position-space over the fused Singleton chain, two nz pieces.
  A.zero();
  for (Coord lo = 0; lo < nnz; lo += (nnz + 1) / 2) {
    PieceBounds piece;
    piece.dist_pos =
        rt::Rect1{lo, std::min<Coord>(lo + (nnz + 1) / 2 - 1, nnz - 1)};
    piece.pos_tensor = "B";
    piece.pos_level = 2;
    eng.run(piece);
  }
  const ref::DenseTensor expect = ref::eval(stmt);
  EXPECT_LE(ref::max_abs_diff(A, expect), 1e-12);
  // Mid-chain clamping: full position range, but each piece clamps the
  // fused variable j to half its coordinate range; the pieces tile the
  // computation exactly.
  A.zero();
  for (Coord lo : {0, 3}) {
    PieceBounds piece;
    piece.dist_pos = rt::Rect1{0, nnz - 1};
    piece.pos_tensor = "B";
    piece.pos_level = 2;
    piece.var_coords.push_back({j.id(), rt::Rect1{lo, lo + 2}});
    eng.run(piece);
  }
  EXPECT_LE(ref::max_abs_diff(A, expect), 1e-12);
}

TEST(Coiter, TwoNonUniqueOperandsRejected) {
  // Two COO operands sharing the iteration variables cannot co-iterate:
  // one non-unique level would have to be probed.
  IndexVar i("i"), j("j");
  Tensor a("a", {4}, fmt::dense_vector());
  Tensor B("B", {4, 4}, fmt::coo(2));
  Tensor C("C", {4, 4}, fmt::coo(2));
  Tensor c("c", {4}, fmt::dense_vector());
  B.from_coo(small_csr_coo());
  C.from_coo(small_csr_coo());
  c.init_dense([](const auto&) { return 1.0; });
  Statement& stmt = (a(i) = B(i, j) * C(i, j) * c(j));
  CoiterEngine eng(stmt);
  a.zero();
  EXPECT_THROW(eng.run(), ScheduleError);
}

TEST(Coiter, RejectsAccessLeftUndescended) {
  // a(i) = B(i,i) * c(i) with COO B: the loop over i drives B's root, and
  // no later loop consumes the Singleton level below, which stores i too.
  IndexVar i("i");
  Tensor a("a", {4}, fmt::dense_vector());
  Tensor B("B", {4, 4}, fmt::coo(2));
  Tensor c("c", {4}, fmt::dense_vector());
  B.from_coo(small_csr_coo());
  c.init_dense([](const auto& x) { return static_cast<double>(x[0] + 1); });
  Statement& stmt = (a(i) = B(i, i) * c(i));
  a.zero();
  try {
    CoiterEngine eng(stmt);
    eng.run();
    FAIL() << "an access left undescended was accepted";
  } catch (const ScheduleError& e) {
    EXPECT_NE(std::string(e.what()).find("B(i,i)"), std::string::npos)
        << e.what();
  }
  // CSR B descends its Dense row level and probes the column level at the
  // same coordinate: the diagonal.
  Tensor d("d", {4}, fmt::dense_vector());
  Tensor D("D", {4, 4}, fmt::csr());
  D.from_coo(small_csr_coo());
  Statement& diag = (d(i) = D(i, i) * c(i));
  CoiterEngine eng(diag);
  d.zero();
  eng.run();
  EXPECT_LE(ref::max_abs_diff(d, ref::eval(diag)), 1e-12);
  EXPECT_DOUBLE_EQ((*d.storage().vals())[3], 8.0 * 4.0);
}

TEST(Coiter, ProbingANonUniqueLevelRejected) {
  // a(i) = D(i,j) * B(i,j) * c(j), D CSR, B COO: a non-zero window over D's
  // column level fixes i and j by position, so B's non-unique root would
  // have to be probed, and binary search would pick an arbitrary duplicate.
  IndexVar i("i"), j("j");
  Tensor a("a", {4}, fmt::dense_vector());
  Tensor D("D", {4, 4}, fmt::csr());
  Tensor B("B", {4, 4}, fmt::coo(2));
  Tensor c("c", {4}, fmt::dense_vector());
  D.from_coo(small_csr_coo());
  B.from_coo(small_csr_coo());
  c.init_dense([](const auto&) { return 1.0; });
  Statement& stmt = (a(i) = D(i, j) * B(i, j) * c(j));
  CoiterEngine eng(stmt, {i, j});
  PieceBounds piece;
  piece.dist_pos = rt::Rect1{0, D.storage().level(1).positions - 1};
  piece.pos_tensor = "D";
  piece.pos_level = 1;
  a.zero();
  EXPECT_THROW(eng.run(piece), ScheduleError);
}

TEST(Coiter, SpmvMatchesReference) {
  IndexVar i("i"), j("j");
  Tensor a("a", {4}, fmt::dense_vector());
  Tensor B("B", {4, 4}, fmt::csr());
  Tensor c("c", {4}, fmt::dense_vector());
  B.from_coo(small_csr_coo());
  c.init_dense([](const auto& x) { return static_cast<double>(x[0] + 1); });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  CoiterEngine eng(stmt);
  a.zero();
  eng.run();
  EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-12);
}

// A term that does not use a loop's variable still runs once per
// coordinate of that loop: d(i) has no j, so the dense oracle adds it once
// per j, and so must the engine, both run directly and as the leaf of a
// compiled kernel.
TEST(Coiter, TermWithoutALoopVariableRunsOverThatLoop) {
  IndexVar i("i"), j("j"), io("io"), ii("ii");
  fmt::Coo coo;
  coo.dims = {3, 3};
  coo.push({0, 0}, 1.0);
  coo.push({1, 2}, 2.0);
  coo.push({2, 1}, 3.0);
  Tensor a("a", {3}, fmt::dense_vector());
  Tensor B("B", {3, 3}, fmt::csr());
  Tensor c("c", {3}, fmt::dense_vector());
  Tensor d("d", {3}, fmt::dense_vector());
  B.from_coo(std::move(coo));
  c.init_dense([](const auto& x) { return 1.0 + static_cast<double>(x[0]); });
  d.init_dense([](const auto& x) {
    return 10.0 * (1.0 + static_cast<double>(x[0]));
  });
  Statement& stmt = (a(i) = B(i, j) * c(j) + d(i));
  const ref::DenseTensor expect = ref::eval(stmt);
  EXPECT_EQ(expect.vals, (std::vector<double>{31, 66, 96}));

  CoiterEngine eng(stmt);
  a.zero();
  eng.run();
  EXPECT_LE(ref::max_abs_diff(a, expect), 1e-12);

  a.zero();
  a.schedule().divide(i, io, ii, 2).distribute(io);
  rt::MachineConfig cfg;
  cfg.nodes = 2;
  const rt::Machine m(cfg, rt::Grid(2), rt::ProcKind::CPU);
  comp::CompiledKernel ck = comp::CompiledKernel::compile(stmt, m);
  EXPECT_EQ(ck.leaf_kernel_name(), "coiter");
  rt::Runtime runtime(m);
  ck.instantiate(runtime)->run(1);
  EXPECT_LE(ref::max_abs_diff(a, expect), 1e-12);
}

TEST(Coiter, PieceRestrictionComputesPartial) {
  IndexVar i("i"), j("j");
  Tensor a("a", {4}, fmt::dense_vector());
  Tensor B("B", {4, 4}, fmt::csr());
  Tensor c("c", {4}, fmt::dense_vector());
  B.from_coo(small_csr_coo());
  c.init_dense([](const auto&) { return 1.0; });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  CoiterEngine eng(stmt);
  a.zero();
  PieceBounds piece;
  piece.dist_coords = rt::Rect1{0, 1};  // rows 0-1 only
  eng.run(piece);
  auto& av = *a.storage().vals();
  EXPECT_DOUBLE_EQ(av[0], 6.0);
  EXPECT_DOUBLE_EQ(av[1], 9.0);
  EXPECT_DOUBLE_EQ(av[2], 0.0);
  EXPECT_DOUBLE_EQ(av[3], 0.0);
  // The remaining piece completes the result.
  PieceBounds rest;
  rest.dist_coords = rt::Rect1{2, 3};
  eng.run(rest);
  EXPECT_DOUBLE_EQ(av[2], 6.0);
  EXPECT_DOUBLE_EQ(av[3], 15.0);
}

TEST(Coiter, PositionSpaceIterationMatches) {
  IndexVar i("i"), j("j");
  Tensor a("a", {4}, fmt::dense_vector());
  Tensor B("B", {4, 4}, fmt::csr());
  Tensor c("c", {4}, fmt::dense_vector());
  B.from_coo(small_csr_coo());
  c.init_dense([](const auto& x) { return 0.5 * static_cast<double>(x[0]); });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  CoiterEngine eng(stmt);
  a.zero();
  // Two pieces of 4 positions each.
  for (Coord lo : {0, 4}) {
    PieceBounds piece;
    piece.dist_pos = rt::Rect1{lo, lo + 3};
    piece.pos_tensor = "B";
    piece.pos_level = 1;
    eng.run(piece);
  }
  EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-12);
}

TEST(Coiter, IntersectionOfTwoSparse) {
  // Element-wise product of two sparse matrices: intersection iteration.
  IndexVar i("i"), j("j");
  Tensor A("A", {4, 4}, fmt::dense_matrix());
  Tensor B("B", {4, 4}, fmt::csr());
  Tensor C("C", {4, 4}, fmt::csr());
  B.from_coo(small_csr_coo());
  C.from_coo(data::shift_last_dim(small_csr_coo(), 1));
  Statement& stmt = (A(i, j) = B(i, j) * C(i, j));
  CoiterEngine eng(stmt);
  A.zero();
  eng.run();
  EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-12);
}

TEST(Coiter, RejectsIncompatibleOrder) {
  // B stored CSC but iterated row-major with a sparse column level first:
  // iteration order (i, j) conflicts with CSC's (j, i) levels.
  IndexVar i("i"), j("j");
  Tensor a("a", {4}, fmt::dense_vector());
  Tensor B("B", {4, 4}, fmt::csc());
  Tensor c("c", {4}, fmt::dense_vector());
  B.from_coo(small_csr_coo());
  Statement& stmt = (a(i) = B(i, j) * c(j));
  EXPECT_THROW(CoiterEngine eng(stmt), ScheduleError);
  // With the matching order (j, i) it is accepted.
  CoiterEngine ok(stmt, {j, i});
  a.zero();
  c.init_dense([](const auto&) { return 1.0; });
  ok.run();
  EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-12);
}

TEST(Assembly, SpAdd3UnionPattern) {
  IndexVar i("i"), j("j");
  Tensor A("A", {4, 4}, fmt::csr());
  Tensor B("B", {4, 4}, fmt::csr());
  Tensor C("C", {4, 4}, fmt::csr());
  Tensor D("D", {4, 4}, fmt::csr());
  B.from_coo(small_csr_coo());
  C.from_coo(data::shift_last_dim(small_csr_coo(), 1));
  D.from_coo(data::shift_last_dim(small_csr_coo(), 2));
  Statement& stmt = (A(i, j) = B(i, j) + C(i, j) + D(i, j));
  ASSERT_TRUE(needs_assembly(stmt));
  AssemblyResult res = assemble_output(stmt);
  EXPECT_FALSE(res.pattern_preserved);
  EXPECT_GE(res.output_nnz, 8);   // at least one input's pattern
  EXPECT_LE(res.output_nnz, 24);  // at most the union
  // Numeric pass through coiter matches the reference.
  CoiterEngine eng(stmt);
  A.zero();
  eng.run();
  EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-12);
}

TEST(Assembly, SpTtvProjectsPattern) {
  IndexVar i("i"), j("j"), k("k");
  Tensor A("A", {3, 4}, fmt::csr());
  Tensor B("B", {3, 4, 5}, fmt::csf3());
  Tensor c("c", {5}, fmt::dense_vector());
  fmt::Coo coo;
  coo.dims = {3, 4, 5};
  coo.push({0, 1, 2}, 1.0);
  coo.push({0, 1, 4}, 2.0);
  coo.push({2, 3, 0}, 3.0);
  B.from_coo(std::move(coo));
  c.init_dense([](const auto&) { return 2.0; });
  Statement& stmt = (A(i, j) = B(i, j, k) * c(k));
  AssemblyResult res = assemble_output(stmt);
  EXPECT_EQ(res.output_nnz, 2);  // fibers (0,1) and (2,3)
  CoiterEngine eng(stmt);
  A.zero();
  eng.run();
  EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-12);
}

TEST(Assembly, SddmmPreservesPattern) {
  IndexVar i("i"), j("j"), k("k");
  Tensor A("A", {4, 4}, fmt::csr());
  Tensor B("B", {4, 4}, fmt::csr());
  Tensor C("C", {4, 3}, fmt::dense_matrix());
  Tensor D("D", {3, 4}, fmt::dense_matrix());
  B.from_coo(small_csr_coo());
  Statement& stmt = (A(i, j) = B(i, j) * C(i, k) * D(k, j));
  AssemblyResult res = assemble_output(stmt);
  EXPECT_TRUE(res.pattern_preserved);
  EXPECT_EQ(res.output_nnz, 8);
}

TEST(Assembly, RejectsUncoveredOutputVar) {
  IndexVar i("i"), j("j");
  Tensor A("A", {4, 4}, fmt::csr());
  Tensor b("b", {4}, fmt::dcsr().order() == 1 ? fmt::dense_vector()
                                              : fmt::dense_vector());
  Tensor s("s", {4},
           fmt::Format({fmt::ModeFormat::Compressed()}));
  fmt::Coo coo;
  coo.dims = {4};
  coo.push({1}, 2.0);
  s.from_coo(std::move(coo));
  // A(i,j) = s(i): j is not covered by any sparse input.
  Statement& stmt = (A(i, j) = s(i));
  EXPECT_THROW(assemble_output(stmt), NotationError);
}

// Property: random einsum-like statements evaluated by the engine agree
// with the dense reference.
class CoiterRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(CoiterRandomProperty, MatchesDenseReference) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 42);
  const Coord n = 3 + static_cast<Coord>(rng.next_below(6));
  const Coord m = 3 + static_cast<Coord>(rng.next_below(6));
  const Coord p = 3 + static_cast<Coord>(rng.next_below(6));
  IndexVar i("i"), j("j"), k("k");

  auto random_matrix = [&](const std::string& name, Coord r, Coord c,
                           const fmt::Format& f) {
    Tensor t(name, {r, c}, f);
    fmt::Coo coo;
    coo.dims = {r, c};
    const int count = static_cast<int>(rng.next_below(
        static_cast<uint64_t>(r * c / 2 + 1)));
    for (int e = 0; e < count; ++e) {
      coo.push({rng.next_range(0, r - 1), rng.next_range(0, c - 1)},
               rng.next_double(-1, 1));
    }
    t.from_coo(std::move(coo));
    return t;
  };

  switch (GetParam() % 3) {
    case 0: {  // SpMM-like with sparse B
      Tensor A("A", {n, p}, fmt::dense_matrix());
      Tensor B = random_matrix("B", n, m, fmt::csr());
      Tensor C("C", {m, p}, fmt::dense_matrix());
      C.init_dense([&](const auto& x) {
        return static_cast<double>(x[0]) - 0.5 * static_cast<double>(x[1]);
      });
      Statement& stmt = (A(i, j) = B(i, k) * C(k, j));
      CoiterEngine eng(stmt, {i, k, j});
      A.zero();
      eng.run();
      EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-10);
      break;
    }
    case 1: {  // two-sparse sum
      Tensor A("A", {n, m}, fmt::csr());
      Tensor B = random_matrix("B", n, m, fmt::csr());
      Tensor C = random_matrix("C", n, m, fmt::csr());
      Statement& stmt = (A(i, j) = B(i, j) + C(i, j));
      assemble_output(stmt);
      CoiterEngine eng(stmt);
      A.zero();
      eng.run();
      EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-10);
      break;
    }
    case 2: {  // sparse-dense elementwise with reduction: y(i) = S(i,k)*T(i,k)
      Tensor y("y", {n}, fmt::dense_vector());
      Tensor S = random_matrix("S", n, m, fmt::csr());
      Tensor T = random_matrix("T", n, m, fmt::dcsr());
      Statement& stmt = (y(i) = S(i, k) * T(i, k));
      CoiterEngine eng(stmt);
      y.zero();
      eng.run();
      EXPECT_LE(ref::max_abs_diff(y, ref::eval(stmt)), 1e-10);
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomStatements, CoiterRandomProperty,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace spdistal::kern
