// PlacementReuse: within one instantiate, a TDN statement that resolves to a
// coordinate tree the launch already built installs that tree instead of
// building it again (fmt::TreeBuilder). The programs use the benchmark
// harness's TDN statements (bench/bench_util.cpp) on small data.
#include <gtest/gtest.h>

#include <map>

#include "compiler/lower.h"
#include "data/generators.h"
#include "tensor/dense_ref.h"

namespace spdistal::comp {
namespace {

using rt::Coord;

constexpr int kPieces = 4;
const char* const kRow2 = "T(x, y) -> M(x)";
const char* const kRepl1 = "T(x) -> M(q)";
const char* const kRepl2 = "T(x, y) -> M(q)";
const char* const kNz2 = "T(x, y) fuse(x, y -> g) -> M(~g)";
const char* const kNz3 = "T(x, y, z) fuse(x, y -> g) fuse(g, z -> h) -> M(~h)";

rt::Machine cpu_machine(int nodes) {
  rt::MachineConfig cfg;
  cfg.nodes = nodes;
  return rt::Machine(cfg, rt::Grid(nodes), rt::ProcKind::CPU);
}

// A statement, its output and B, the operand whose TDN statement matches
// the schedule's distribution.
struct Program {
  Tensor out, B;
  Statement* stmt = nullptr;
};

// Row-distributed CSR SpMM.
Program spmm_row() {
  IndexVar i("i"), j("j"), k("k"), io("io"), ii("ii");
  const fmt::Coo coo = data::powerlaw_matrix(40, 30, 240, 1.2, 7);
  Program p;
  p.out = Tensor("A", {40, 8}, fmt::dense_matrix(), tdn::parse_tdn(kRow2));
  p.B = Tensor("B", coo.dims, fmt::csr(), tdn::parse_tdn(kRow2));
  Tensor C("C", {30, 8}, fmt::dense_matrix(), tdn::parse_tdn(kRepl2));
  p.B.from_coo(coo);
  C.init_dense([](const auto& x) {
    return 0.5 + 0.01 * static_cast<double>((x[0] * 3 + x[1]) % 53);
  });
  p.stmt = &(p.out(i, j) = p.B(i, k) * C(k, j));
  p.out.schedule().divide(i, io, ii, kPieces).distribute(io)
      .communicate({"A", "B", "C"}, io);
  return p;
}

// SpMV split by non-zeros, B stored as `format` (CSR or COO).
Program spmv_nz(const fmt::Format& format) {
  IndexVar i("i"), j("j"), f("f"), fo("fo"), fi("fi");
  const fmt::Coo coo = data::powerlaw_matrix(50, 40, 300, 1.3, 5);
  Program p;
  p.out = Tensor("a", {50}, fmt::dense_vector(), tdn::parse_tdn(kRepl1));
  p.B = Tensor("B", coo.dims, format, tdn::parse_tdn(kNz2));
  Tensor c("c", {40}, fmt::dense_vector(), tdn::parse_tdn(kRepl1));
  p.B.from_coo(coo);
  c.init_dense([](const auto& x) {
    return 1.0 + 0.01 * static_cast<double>(x[0] % 97);
  });
  p.stmt = &(p.out(i) = p.B(i, j) * c(j));
  p.out.schedule().fuse(i, j, f).divide_pos(f, fo, fi, kPieces, "B")
      .distribute(fo);
  return p;
}

// SpMTTKRP on a CSF tensor split by non-zeros over all three levels.
Program mttkrp_nz() {
  IndexVar i("i"), j("j"), k("k"), l("l"), f("f"), g("g"), fo("fo"),
      fi("fi");
  const fmt::Coo coo = data::uniform_3tensor(12, 10, 9, 200, 3);
  Program p;
  p.out = Tensor("A", {12, 4}, fmt::dense_matrix(), tdn::parse_tdn(kRepl2));
  p.B = Tensor("B", coo.dims, fmt::csf3(), tdn::parse_tdn(kNz3));
  Tensor C("C", {10, 4}, fmt::dense_matrix(), tdn::parse_tdn(kRepl2));
  Tensor D("D", {9, 4}, fmt::dense_matrix(), tdn::parse_tdn(kRepl2));
  p.B.from_coo(coo);
  C.init_dense([](const auto& x) {
    return 0.5 + 0.01 * static_cast<double>((x[0] + 2 * x[1]) % 41);
  });
  D.init_dense([](const auto& x) {
    return 1.0 - 0.01 * static_cast<double>((2 * x[0] + x[1]) % 37);
  });
  p.stmt = &(p.out(i, l) = p.B(i, j, k) * C(j, l) * D(k, l));
  p.out.schedule().fuse(i, j, f).fuse(f, k, g)
      .divide_pos(g, fo, fi, kPieces, "B").distribute(fo);
  return p;
}

struct Shape {
  const char* name;
  Program (*build)();
};

void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.name; }

const Shape kShapes[] = {
    {"SpmmRowCsr", spmm_row},
    {"SpmvNzCsr", [] { return spmv_nz(fmt::csr()); }},
    {"SpmvNzCoo", [] { return spmv_nz(fmt::coo(2)); }},
    {"MttkrpNzCsf", mttkrp_nz},
};

class PlacementReuse : public ::testing::TestWithParam<Shape> {};

// The launch and B's placement share one tree: no partitioning op is
// emitted twice, and B's placement is still installed.
TEST_P(PlacementReuse, NoPartitioningOpTwice) {
  Program p = GetParam().build();
  const rt::Machine m = cpu_machine(kPieces);
  rt::Runtime runtime(m);
  auto inst = CompiledKernel::compile(*p.stmt, m).instantiate(runtime);
  std::map<std::string, int> seen;
  for (const PlanOp& op : inst->trace().ops()) {
    if (op.kind == PlanOpKind::SetPlacement ||
        op.kind == PlanOpKind::DistributedFor ||
        op.kind == PlanOpKind::LeafKernel) {
      continue;
    }
    EXPECT_EQ(++seen[op.text], 1) << "emitted twice: " << op.text;
  }
  EXPECT_FALSE(seen.empty());
  EXPECT_NE(inst->trace().str().find(
                "placement: " + p.B.distribution()->str("B")),
            std::string::npos);
}

// A twin that re-installs B through standalone distribute_tensor, which
// builds its own tree, runs bit-identically: the reused tree is the tree.
TEST_P(PlacementReuse, StandaloneReinstallRunsIdentically) {
  const rt::Machine m = cpu_machine(kPieces);
  auto run = [&](bool reinstall) {
    Program p = GetParam().build();
    rt::Runtime runtime(m);
    auto inst = CompiledKernel::compile(*p.stmt, m).instantiate(runtime);
    if (reinstall) {
      PlanTrace trace;
      tdn::distribute_tensor(trace, runtime, p.B.storage(),
                             *p.B.distribution(), m);
      EXPECT_GT(trace.ops().size(), 1u);  // built, then placed
    }
    runtime.reset_timing();
    inst->run(2);
    EXPECT_LE(ref::max_abs_diff(p.out, ref::eval(*p.stmt)), 1e-10);
    return std::make_pair(p.out.storage().vals()->data(), inst->report());
  };
  const auto [reused_out, reused] = run(false);
  const auto [rebuilt_out, rebuilt] = run(true);
  EXPECT_EQ(reused_out, rebuilt_out);
  EXPECT_EQ(reused.sim_time, rebuilt.sim_time);
  EXPECT_EQ(reused.inter_node_bytes, rebuilt.inter_node_bytes);
  EXPECT_EQ(reused.intra_node_bytes, rebuilt.intra_node_bytes);
  EXPECT_EQ(reused.messages, rebuilt.messages);
  EXPECT_EQ(reused.tasks, rebuilt.tasks);
  EXPECT_EQ(reused.imbalance, rebuilt.imbalance);
  EXPECT_EQ(reused.peak_sysmem, rebuilt.peak_sysmem);
}

INSTANTIATE_TEST_SUITE_P(Shapes, PlacementReuse, ::testing::ValuesIn(kShapes));

// A statement that does not match the launch still builds and installs its
// own tree: B's rows in 4 blocks on Grid(4) under a 2-piece launch.
TEST(PlacementReuseMismatch, UnmatchedStatementBuildsItsOwnTree) {
  IndexVar i("i"), j("j"), io("io"), ii("ii");
  const fmt::Coo coo = data::uniform_matrix(32, 32, 200, 9);
  Tensor a("a", {32}, fmt::dense_vector());
  Tensor B("B", {32, 32}, fmt::csr(), tdn::parse_tdn("B(x, y) -> M(x)"));
  Tensor c("c", {32}, fmt::dense_vector());
  B.from_coo(coo);
  c.init_dense([](const auto& x) { return 1.0 + (x[0] % 3); });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  a.schedule().divide(i, io, ii, 2).distribute(io);
  const rt::Machine m = cpu_machine(4);
  rt::Runtime runtime(m);
  auto inst = CompiledKernel::compile(stmt, m).instantiate(runtime);
  const std::string plan = inst->trace().str();
  EXPECT_NE(plan.find("universeBounds(pieces=2)"), std::string::npos);
  EXPECT_NE(plan.find("universeBounds(pieces=4)"), std::string::npos);
  // The 4-color placement is installed: reading each color's vals on its
  // own node moves nothing.
  PlanTrace trace;
  const tdn::Materialized placed =
      tdn::materialize(trace, B.storage(), *B.distribution(), m);
  runtime.reset_timing();
  rt::IndexLaunch launch;
  launch.name = "read_local";
  launch.domain = 4;
  launch.reqs = {rt::RegionReq{B.storage().vals(),
                               &placed.partition.vals_part,
                               rt::Privilege::RO}};
  launch.body = [](const rt::TaskContext&) { return rt::WorkEstimate{1, 1}; };
  runtime.execute(launch);
  runtime.flush();
  EXPECT_DOUBLE_EQ(runtime.report().inter_node_bytes, 0.0);
  inst->run(1);
  EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-10);
}

}  // namespace
}  // namespace spdistal::comp
