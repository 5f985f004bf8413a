// End-to-end compiler tests: lowering (Figure 9a), generated plan structure
// (Figure 9b), execution on the simulated machine, and the key property
// that results are independent of the distribution (node count, universe vs
// non-zero partitioning, CPU vs GPU machines).
#include <gtest/gtest.h>

#include "compiler/lower.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "tensor/dense_ref.h"
#include "verify/verify.h"

namespace spdistal::comp {
namespace {

using rt::Coord;

rt::Machine cpu_machine(int nodes) {
  rt::MachineConfig cfg;
  cfg.nodes = nodes;
  return rt::Machine(cfg, rt::Grid(nodes), rt::ProcKind::CPU);
}

rt::Machine gpu_machine(int nodes, int gpus) {
  rt::MachineConfig cfg;
  cfg.nodes = nodes;
  return rt::Machine(cfg, rt::Grid(gpus), rt::ProcKind::GPU);
}

// The complete Figure 1 program: distributed CPU SpMV (B in `format`).
struct SpmvProgram {
  IndexVar i{"i"}, j{"j"}, io{"io"}, ii{"ii"};
  Tensor a, B, c;
  Statement* stmt;

  SpmvProgram(int pieces, fmt::Coo coo, const fmt::Format& format = fmt::csr()) {
    const Coord n = coo.dims[0];
    const Coord m = coo.dims[1];
    a = Tensor("a", {n}, fmt::dense_vector(),
               tdn::parse_tdn("a(x) -> M(x)"));
    B = Tensor("B", {n, m}, format, tdn::parse_tdn("B(x, y) -> M(x)"));
    c = Tensor("c", {m}, fmt::dense_vector(),
               tdn::parse_tdn("c(x) -> M(y)"));
    B.from_coo(std::move(coo));
    c.init_dense([](const auto& x) {
      return 1.0 + 0.5 * static_cast<double>(x[0] % 3);
    });
    stmt = &(a(i) = B(i, j) * c(j));
    a.schedule()
        .divide(i, io, ii, pieces)
        .distribute(io)
        .communicate({"a", "B", "c"}, io)
        .parallelize(ii, sched::ParallelUnit::CPUThread);
  }
};

TEST(Compile, Figure1SpmvAnalysis) {
  SpmvProgram prog(4, data::uniform_matrix(64, 64, 400, 1));
  rt::Machine m = cpu_machine(4);
  CompiledKernel ck = CompiledKernel::compile(*prog.stmt, m);
  EXPECT_EQ(ck.pieces(), 4);
  EXPECT_FALSE(ck.position_space());
  EXPECT_EQ(ck.dist_source_var(), prog.i);
  EXPECT_EQ(ck.leaf_kernel_name(), "spmv_row");
  EXPECT_EQ(ck.leaf_threads(), m.config().cores_per_node);
}

TEST(Compile, RequiresDistribute) {
  SpmvProgram prog(4, data::uniform_matrix(32, 32, 100, 2));
  sched::Schedule empty;
  EXPECT_THROW(CompiledKernel::compile(*prog.stmt, empty, cpu_machine(2)),
               ScheduleError);
}

// An index variable must span one extent. With B 4x6 and c of length 3,
// every leaf would index c past its end through j. Under a row schedule
// and under divide_pos alike, compile rejects the statement and names the
// variable, both tensors and both extents.
TEST(Compile, RejectsVariableSpanningTwoExtents) {
  for (bool nonzero : {false, true}) {
    IndexVar i("i"), j("j"), io("io"), ii("ii"), f("f"), fo("fo"), fi("fi");
    Tensor a("a", {4}, fmt::dense_vector());
    Tensor B("B", {4, 6}, fmt::csr());
    Tensor c("c", {3}, fmt::dense_vector());
    B.from_coo(data::uniform_matrix(4, 6, 12, 2));
    c.init_dense([](const auto&) { return 1.0; });
    Statement& stmt = (a(i) = B(i, j) * c(j));
    if (nonzero) {
      a.schedule().fuse(i, j, f).divide_pos(f, fo, fi, 2, "B").distribute(fo);
    } else {
      a.schedule().divide(i, io, ii, 2).distribute(io);
    }
    SCOPED_TRACE(nonzero ? "divide_pos" : "row");
    try {
      CompiledKernel::compile(stmt, cpu_machine(2));
      ADD_FAILURE() << "compiled a statement whose j spans 6 in B, 3 in c";
    } catch (const NotationError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "index variable j spans extent 6 in B but 3 in c"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Execute, SpmvMatchesReferenceAndTraceMatchesFigure9b) {
  SpmvProgram prog(4, data::powerlaw_matrix(96, 96, 600, 1.1, 3));
  rt::Machine m = cpu_machine(4);
  rt::Runtime runtime(m);
  CompiledKernel ck = CompiledKernel::compile(*prog.stmt, m);
  auto inst = ck.instantiate(runtime);
  inst->run(1);
  EXPECT_LE(ref::max_abs_diff(prog.a, ref::eval(*prog.stmt)), 1e-12);

  // The generated plan has the Figure 9b structure for B: a universe
  // coloring, partitionByBounds of the row space, an image for crd, copies
  // for pos/vals, then a distributed loop and the leaf kernel.
  const PlanTrace& trace = inst->trace();
  EXPECT_GE(trace.count(PlanOpKind::MakeUniverseColoring), 1);
  EXPECT_GE(trace.count(PlanOpKind::PartitionByBounds), 1);
  EXPECT_GE(trace.count(PlanOpKind::Image), 1);
  EXPECT_EQ(trace.count(PlanOpKind::DistributedFor), 1);
  EXPECT_GE(trace.count(PlanOpKind::LeafKernel), 1);
  EXPECT_EQ(trace.count(PlanOpKind::Preimage), 0);
}

TEST(Execute, NonZeroSpmvUsesPreimage) {
  // Figure 1's computation with the non-zero based schedule of §II-D.
  IndexVar i("i"), j("j"), f("f"), fo("fo"), fi("fi");
  fmt::Coo coo = data::powerlaw_matrix(96, 96, 600, 1.3, 4);
  Tensor a("a", {96}, fmt::dense_vector());
  Tensor B("B", {96, 96}, fmt::csr(),
           tdn::parse_tdn("B(x, y) fuse(x, y -> g) -> M(~g)"));
  Tensor c("c", {96}, fmt::dense_vector(), tdn::parse_tdn("c(x) -> M(y)"));
  B.from_coo(std::move(coo));
  c.init_dense([](const auto& x) { return 1.0 + static_cast<double>(x[0] % 2); });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  a.schedule().fuse(i, j, f).divide_pos(f, fo, fi, 4, "B").distribute(fo);

  rt::Machine m = cpu_machine(4);
  rt::Runtime runtime(m);
  CompiledKernel ck = CompiledKernel::compile(stmt, m);
  EXPECT_TRUE(ck.position_space());
  EXPECT_EQ(ck.split_tensor(), "B");
  EXPECT_EQ(ck.split_level(), 1);
  EXPECT_EQ(ck.leaf_kernel_name(), "spmv_nz");
  auto inst = ck.instantiate(runtime);
  inst->run(1);
  EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-12);
  // Figure 9d: the non-zero plan derives the row partition via preimage.
  EXPECT_GE(inst->trace().count(PlanOpKind::MakeNonZeroColoring), 1);
  EXPECT_GE(inst->trace().count(PlanOpKind::Preimage), 1);
}

TEST(Execute, SpAdd3RejectsPositionSpace) {
  IndexVar i("i"), j("j"), f("f"), fo("fo"), fi("fi");
  fmt::Coo coo = data::uniform_matrix(32, 32, 120, 5);
  Tensor A("A", {32, 32}, fmt::csr());
  Tensor B("B", {32, 32}, fmt::csr());
  Tensor C("C", {32, 32}, fmt::csr());
  Tensor D("D", {32, 32}, fmt::csr());
  B.from_coo(coo);
  C.from_coo(data::shift_last_dim(coo, 1));
  D.from_coo(data::shift_last_dim(coo, 2));
  Statement& stmt = (A(i, j) = B(i, j) + C(i, j) + D(i, j));
  A.schedule().fuse(i, j, f).divide_pos(f, fo, fi, 4, "B").distribute(fo);
  EXPECT_THROW(CompiledKernel::compile(stmt, cpu_machine(4)), ScheduleError);
}

// The core distribution-independence property, run over every paper kernel:
// the computed values are identical (up to FP tolerance) across 1/2/4/8
// nodes, and between CPU and GPU machines.
struct KernelCase {
  std::string name;
  // Builds the statement + schedule for `pieces`; returns the output tensor
  // and statement.
  std::function<std::pair<Tensor, Statement*>(int pieces)> build;
};

std::vector<KernelCase> kernel_cases() {
  std::vector<KernelCase> cases;
  cases.push_back({"spmv", [](int pieces) {
    auto* p = new SpmvProgram(pieces, data::powerlaw_matrix(80, 80, 500, 1.2, 7));
    return std::make_pair(p->a, p->stmt);
  }});
  cases.push_back({"spmm", [](int pieces) {
    IndexVar i("i"), j("j"), k("k"), io("io"), ii("ii");
    fmt::Coo coo = data::uniform_matrix(48, 40, 300, 8);
    Tensor A("A", {48, 8}, fmt::dense_matrix(), tdn::parse_tdn("A(x, y) -> M(x)"));
    Tensor B("B", {48, 40}, fmt::csr(), tdn::parse_tdn("B(x, y) -> M(x)"));
    Tensor C("C", {40, 8}, fmt::dense_matrix(), tdn::parse_tdn("C(x, y) -> M(z)"));
    B.from_coo(std::move(coo));
    C.init_dense([](const auto& x) {
      return 0.25 * static_cast<double>((x[0] + x[1]) % 7);
    });
    Statement* stmt = &(A(i, j) = B(i, k) * C(k, j));
    A.schedule().divide(i, io, ii, pieces).distribute(io)
        .communicate({"A", "B", "C"}, io)
        .parallelize(ii, sched::ParallelUnit::CPUThread);
    return std::make_pair(A, stmt);
  }});
  cases.push_back({"spadd3", [](int pieces) {
    IndexVar i("i"), j("j"), io("io"), ii("ii");
    fmt::Coo coo = data::powerlaw_matrix(64, 64, 400, 1.1, 9);
    Tensor A("A", {64, 64}, fmt::csr(), tdn::parse_tdn("A(x, y) -> M(x)"));
    Tensor B("B", {64, 64}, fmt::csr(), tdn::parse_tdn("B(x, y) -> M(x)"));
    Tensor C("C", {64, 64}, fmt::csr(), tdn::parse_tdn("C(x, y) -> M(x)"));
    Tensor D("D", {64, 64}, fmt::csr(), tdn::parse_tdn("D(x, y) -> M(x)"));
    B.from_coo(coo);
    C.from_coo(data::shift_last_dim(coo, 3));
    D.from_coo(data::shift_last_dim(coo, 7));
    Statement* stmt = &(A(i, j) = B(i, j) + C(i, j) + D(i, j));
    A.schedule().divide(i, io, ii, pieces).distribute(io)
        .parallelize(ii, sched::ParallelUnit::CPUThread);
    return std::make_pair(A, stmt);
  }});
  cases.push_back({"sddmm_nz", [](int pieces) {
    IndexVar i("i"), j("j"), k("k"), f("f"), fo("fo"), fi("fi");
    fmt::Coo coo = data::powerlaw_matrix(56, 56, 350, 1.2, 10);
    Tensor A("A", {56, 56}, fmt::csr());
    Tensor B("B", {56, 56}, fmt::csr(),
             tdn::parse_tdn("B(x, y) fuse(x, y -> g) -> M(~g)"));
    Tensor C("C", {56, 6}, fmt::dense_matrix(), tdn::parse_tdn("C(x, y) -> M(z)"));
    Tensor D("D", {6, 56}, fmt::dense_matrix(), tdn::parse_tdn("D(x, y) -> M(z)"));
    B.from_coo(std::move(coo));
    C.init_dense([](const auto& x) {
      return 1.0 + 0.5 * static_cast<double>(x[1] % 3);
    });
    D.init_dense([](const auto& x) {
      return 0.5 + 0.25 * static_cast<double>(x[0] % 2);
    });
    Statement* stmt = &(A(i, j) = B(i, j) * C(i, k) * D(k, j));
    A.schedule().fuse(i, j, f).divide_pos(f, fo, fi, pieces, "B")
        .distribute(fo);
    return std::make_pair(A, stmt);
  }});
  cases.push_back({"spttv", [](int pieces) {
    IndexVar i("i"), j("j"), k("k"), io("io"), ii("ii");
    fmt::Coo coo = data::uniform_3tensor(24, 18, 20, 350, 11);
    Tensor A("A", {24, 18}, fmt::csr(), tdn::parse_tdn("A(x, y) -> M(x)"));
    Tensor B("B", {24, 18, 20}, fmt::csf3(),
             tdn::parse_tdn("B(x, y, z) -> M(x)"));
    Tensor c("c", {20}, fmt::dense_vector(), tdn::parse_tdn("c(x) -> M(q)"));
    B.from_coo(std::move(coo));
    c.init_dense([](const auto& x) {
      return 1.0 + 0.2 * static_cast<double>(x[0] % 4);
    });
    Statement* stmt = &(A(i, j) = B(i, j, k) * c(k));
    A.schedule().divide(i, io, ii, pieces).distribute(io)
        .parallelize(ii, sched::ParallelUnit::CPUThread);
    return std::make_pair(A, stmt);
  }});
  cases.push_back({"spmttkrp", [](int pieces) {
    IndexVar i("i"), j("j"), k("k"), l("l"), io("io"), ii("ii");
    fmt::Coo coo = data::powerlaw_3tensor(30, 16, 12, 300, 1.1, 12);
    Tensor A("A", {30, 5}, fmt::dense_matrix(), tdn::parse_tdn("A(x, y) -> M(x)"));
    Tensor B("B", {30, 16, 12}, fmt::csf3(), tdn::parse_tdn("B(x, y, z) -> M(x)"));
    Tensor C("C", {16, 5}, fmt::dense_matrix(), tdn::parse_tdn("C(x, y) -> M(z)"));
    Tensor D("D", {12, 5}, fmt::dense_matrix(), tdn::parse_tdn("D(x, y) -> M(z)"));
    B.from_coo(std::move(coo));
    C.init_dense([](const auto& x) {
      return 0.5 + 0.1 * static_cast<double>((x[0] * 2 + x[1]) % 5);
    });
    D.init_dense([](const auto& x) {
      return 1.0 - 0.1 * static_cast<double>((x[0] + 3 * x[1]) % 4);
    });
    Statement* stmt = &(A(i, l) = B(i, j, k) * C(j, l) * D(k, l));
    A.schedule().divide(i, io, ii, pieces).distribute(io)
        .parallelize(ii, sched::ParallelUnit::CPUThread);
    return std::make_pair(A, stmt);
  }});
  cases.push_back({"spttv_nz", [](int pieces) {
    IndexVar i("i"), j("j"), k("k"), f("f"), g("g"), fo("fo"), fi("fi");
    fmt::Coo coo = data::powerlaw_3tensor(26, 14, 18, 320, 1.2, 15);
    Tensor A("A", {26, 14}, fmt::csr());
    Tensor B("B", {26, 14, 18}, fmt::csf3());
    Tensor c("c", {18}, fmt::dense_vector(), tdn::parse_tdn("c(x) -> M(q)"));
    B.from_coo(std::move(coo));
    c.init_dense([](const auto& x) {
      return 1.0 + 0.1 * static_cast<double>(x[0] % 3);
    });
    Statement* stmt = &(A(i, j) = B(i, j, k) * c(k));
    A.schedule().fuse(i, j, f).fuse(f, k, g)
        .divide_pos(g, fo, fi, pieces, "B").distribute(fo);
    return std::make_pair(A, stmt);
  }});
  cases.push_back({"spmttkrp_nz", [](int pieces) {
    IndexVar i("i"), j("j"), k("k"), l("l"), f("f"), g("g"), fo("fo"), fi("fi");
    fmt::Coo coo = data::powerlaw_3tensor(22, 12, 16, 280, 1.2, 16);
    Tensor A("A", {22, 4}, fmt::dense_matrix());
    Tensor B("B", {22, 12, 16}, fmt::csf3());
    Tensor C("C", {12, 4}, fmt::dense_matrix(), tdn::parse_tdn("C(x, y) -> M(q)"));
    Tensor D("D", {16, 4}, fmt::dense_matrix(), tdn::parse_tdn("D(x, y) -> M(q)"));
    B.from_coo(std::move(coo));
    C.init_dense([](const auto& x) {
      return 0.5 + 0.2 * static_cast<double>((x[0] + x[1]) % 3);
    });
    D.init_dense([](const auto& x) {
      return 1.0 - 0.25 * static_cast<double>((2 * x[0] + x[1]) % 2);
    });
    Statement* stmt = &(A(i, l) = B(i, j, k) * C(j, l) * D(k, l));
    A.schedule().fuse(i, j, f).fuse(f, k, g)
        .divide_pos(g, fo, fi, pieces, "B").distribute(fo);
    return std::make_pair(A, stmt);
  }});
  return cases;
}

class DistributionIndependence : public ::testing::TestWithParam<int> {};

TEST_P(DistributionIndependence, SameResultOnAnyNodeCount) {
  const KernelCase kc = kernel_cases()[static_cast<size_t>(GetParam())];
  // Reference: 1 node.
  auto [out1, stmt1] = kc.build(1);
  {
    rt::Machine m = cpu_machine(1);
    rt::Runtime runtime(m);
    auto inst = CompiledKernel::compile(*stmt1, m).instantiate(runtime);
    inst->run(1);
  }
  const ref::DenseTensor oracle = ref::eval(*stmt1);
  EXPECT_LE(ref::max_abs_diff(out1, oracle), 1e-10) << kc.name << " @1";

  for (int nodes : {2, 4, 8}) {
    auto [out, stmt] = kc.build(nodes);
    rt::Machine m = cpu_machine(nodes);
    rt::Runtime runtime(m);
    auto inst = CompiledKernel::compile(*stmt, m).instantiate(runtime);
    inst->run(2);  // two iterations: steady state must stay correct
    EXPECT_LE(ref::max_abs_diff(out, ref::eval(*stmt)), 1e-10)
        << kc.name << " @" << nodes;
  }
}

TEST_P(DistributionIndependence, SameResultOnGpuMachine) {
  const KernelCase kc = kernel_cases()[static_cast<size_t>(GetParam())];
  auto [out, stmt] = kc.build(8);
  rt::Machine m = gpu_machine(2, 8);
  rt::Runtime runtime(m);
  auto inst = CompiledKernel::compile(*stmt, m).instantiate(runtime);
  inst->run(1);
  EXPECT_LE(ref::max_abs_diff(out, ref::eval(*stmt)), 1e-10) << kc.name;
}

INSTANTIATE_TEST_SUITE_P(AllKernels, DistributionIndependence,
                         ::testing::Range(0, 8));

// An empty operand under a non-zero schedule on 4 nodes: lowering blocks
// max(positions, 1) positions, so the first of the 4 pieces gets the window
// [0, 0] of a level that stores none, and every leaf must clamp it to
// nothing. The output must equal the (all-zero) oracle.
struct EmptySplitCase {
  std::string kernel;
  std::string format_name;
  fmt::Format format;
};

std::vector<EmptySplitCase> empty_split_cases() {
  std::vector<EmptySplitCase> cases;
  for (const char* kernel : {"spmv", "spmm", "sddmm"}) {
    cases.push_back({kernel, "csr", fmt::csr()});
    cases.push_back({kernel, "coo", fmt::coo(2)});
    cases.push_back({kernel, "dcsr", fmt::dcsr()});
  }
  for (const char* kernel : {"spttv", "spmttkrp"}) {
    cases.push_back({kernel, "csf", fmt::csf3()});
    cases.push_back({kernel, "ddc", fmt::ddc3()});
    cases.push_back({kernel, "coo3", fmt::coo(3)});
  }
  return cases;
}

class EmptySplitLevel : public ::testing::TestWithParam<int> {};

TEST_P(EmptySplitLevel, MatchesTheOracle) {
  const EmptySplitCase ec = empty_split_cases()[static_cast<size_t>(GetParam())];
  IndexVar i("i"), j("j"), k("k"), l("l"), f("f"), g("g"), fo("fo"),
      fi("fi");
  const bool matrix = ec.format.order() == 2;
  const std::vector<Coord> dims =
      matrix ? std::vector<Coord>{6, 5} : std::vector<Coord>{6, 5, 4};
  Tensor B("B", dims, ec.format);
  fmt::Coo empty;
  empty.dims = dims;
  B.from_coo(empty);
  auto ones = [](const auto&) { return 1.0; };
  Tensor out;
  Statement* stmt = nullptr;
  if (ec.kernel == "spmv") {
    Tensor a("a", {6}, fmt::dense_vector()), c("c", {5}, fmt::dense_vector());
    c.init_dense(ones);
    stmt = &(a(i) = B(i, j) * c(j));
    out = a;
  } else if (ec.kernel == "spmm") {
    Tensor A("A", {6, 3}, fmt::dense_matrix());
    Tensor C("C", {5, 3}, fmt::dense_matrix());
    C.init_dense(ones);
    stmt = &(A(i, j) = B(i, k) * C(k, j));
    out = A;
  } else if (ec.kernel == "sddmm") {
    Tensor A("A", {6, 5}, fmt::csr());
    Tensor C("C", {6, 3}, fmt::dense_matrix());
    Tensor D("D", {3, 5}, fmt::dense_matrix());
    C.init_dense(ones);
    D.init_dense(ones);
    stmt = &(A(i, j) = B(i, j) * C(i, k) * D(k, j));
    out = A;
  } else if (ec.kernel == "spttv") {
    Tensor A("A", {6, 5}, fmt::csr()), c("c", {4}, fmt::dense_vector());
    c.init_dense(ones);
    stmt = &(A(i, j) = B(i, j, k) * c(k));
    out = A;
  } else {
    Tensor A("A", {6, 3}, fmt::dense_matrix());
    Tensor C("C", {5, 3}, fmt::dense_matrix());
    Tensor D("D", {4, 3}, fmt::dense_matrix());
    C.init_dense(ones);
    D.init_dense(ones);
    stmt = &(A(i, l) = B(i, j, k) * C(j, l) * D(k, l));
    out = A;
  }
  // Fuse the split tensor's levels (the second access variable of SpMM is
  // k) and cut the fused variable into 4 non-zero blocks.
  const std::vector<IndexVar> fused =
      fused_level_vars(*stmt, "B", ec.format.order());
  sched::Schedule& s = out.schedule();
  s.fuse(fused[0], fused[1], f);
  if (!matrix) s.fuse(f, fused[2], g);
  s.divide_pos(matrix ? f : g, fo, fi, 4, "B").distribute(fo);
  rt::Machine m = cpu_machine(4);
  rt::Runtime runtime(m);
  auto inst = CompiledKernel::compile(*stmt, m).instantiate(runtime);
  inst->run(1);
  EXPECT_EQ(ref::max_abs_diff(out, ref::eval(*stmt)), 0.0)
      << ec.kernel << " " << ec.format_name;
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, EmptySplitLevel,
    ::testing::Range(0, static_cast<int>(empty_split_cases().size())),
    [](const ::testing::TestParamInfo<int>& info) {
      const EmptySplitCase ec =
          empty_split_cases()[static_cast<size_t>(info.param)];
      return ec.kernel + "_" + ec.format_name;
    });

// Scaling sanity: more nodes => lower simulated time for a compute-heavy
// kernel; non-zero distribution beats universe distribution on skewed data.
TEST(Simulation, StrongScalingAndLoadBalance) {
  auto time_with = [&](int nodes, bool nonzero) {
    IndexVar i("i"), j("j"), f("f"), fo("fo"), fi("fi"), io("io"), ii("ii");
    // Heavily skewed matrix (a few giant rows), large enough that leaf work
    // dominates task-launch overhead.
    fmt::Coo coo = data::powerlaw_matrix(3000, 3000, 200000, 1.5, 13);
    const Coord n = coo.dims[0];
    Tensor a("a", {n}, fmt::dense_vector());
    Tensor B("B", {n, n}, fmt::csr(),
             nonzero ? tdn::parse_tdn("B(x, y) fuse(x, y -> g) -> M(~g)")
                     : tdn::parse_tdn("B(x, y) -> M(x)"));
    Tensor c("c", {n}, fmt::dense_vector(), tdn::parse_tdn("c(x) -> M(z)"));
    B.from_coo(std::move(coo));
    c.init_dense([](const auto&) { return 1.0; });
    Statement& stmt = (a(i) = B(i, j) * c(j));
    if (nonzero) {
      a.schedule().fuse(i, j, f).divide_pos(f, fo, fi, nodes, "B")
          .distribute(fo);
    } else {
      a.schedule().divide(i, io, ii, nodes).distribute(io);
    }
    (void)n;
    // Paper-scale timing: throughputs slowed by the dataset scale factor so
    // compute dominates task overhead exactly as it does at full size.
    rt::MachineConfig cfg = data::paper_machine_config(nodes);
    rt::Machine m(cfg, rt::Grid(nodes), rt::ProcKind::CPU);
    rt::Runtime runtime(m);
    auto inst = CompiledKernel::compile(stmt, m).instantiate(runtime);
    inst->run(1);            // warm-up: placement + first-touch communication
    runtime.reset_timing();
    inst->run(10);           // steady state
    return inst->report().sim_time / 10;
  };
  const double t1 = time_with(1, false);
  const double t8 = time_with(8, false);
  EXPECT_LT(t8, t1);  // strong scaling
  const double t8nz = time_with(8, true);
  // Non-zero distribution is better load balanced on skewed data. (It pays
  // reduction communication, so allow a margin rather than strict order.)
  EXPECT_LT(t8nz, t8 * 1.1);
}

// --- Multi-dimensional distribution onto Machine(Grid(x, y)) -----------------

// The paper's 2-D SpMM schedule (§II-C): divide both output variables and
// distribute each onto one grid axis.
struct Grid2SpmmProgram {
  IndexVar i{"i"}, j{"j"}, k{"k"}, io{"io"}, ii{"ii"}, jo{"jo"}, ji{"ji"};
  Tensor A, B, C;
  Statement* stmt;

  Grid2SpmmProgram(int px, int py, fmt::Coo coo, Coord jdim = 16) {
    const Coord n = coo.dims[0];
    const Coord m = coo.dims[1];
    // Figure 4c-style placements on Machine(Grid(x, y)): A tiled on both
    // axes, B row-blocked (replicated across y), C column-blocked
    // (replicated across x).
    A = Tensor("A", {n, jdim}, fmt::dense_matrix(),
               tdn::parse_tdn("A(x, y) -> M(x, y)"));
    B = Tensor("B", {n, m}, fmt::csr(), tdn::parse_tdn("B(x, y) -> M(x, z)"));
    C = Tensor("C", {m, jdim}, fmt::dense_matrix(),
               tdn::parse_tdn("C(x, y) -> M(z, y)"));
    B.from_coo(std::move(coo));
    C.init_dense([](const auto& x) {
      return 0.25 * static_cast<double>((x[0] + 2 * x[1]) % 9);
    });
    stmt = &(A(i, j) = B(i, k) * C(k, j));
    A.schedule()
        .divide(i, io, ii, px)
        .divide(j, jo, ji, py)
        .distribute(io)
        .distribute(jo)
        .communicate({"A", "B", "C"}, io)
        .parallelize(ii, sched::ParallelUnit::CPUThread);
  }
};

TEST(CompileGrid, Spmm2dAnalysis) {
  Grid2SpmmProgram prog(2, 2, data::uniform_matrix(64, 64, 400, 21));
  rt::MachineConfig cfg;
  cfg.nodes = 4;
  rt::Machine m(cfg, rt::Grid(2, 2), rt::ProcKind::CPU);
  CompiledKernel ck = CompiledKernel::compile(*prog.stmt, m);
  EXPECT_EQ(ck.pieces(), 4);
  EXPECT_EQ(ck.grid_pieces(), (std::vector<int>{2, 2}));
  ASSERT_EQ(ck.dist_source_vars().size(), 2u);
  EXPECT_EQ(ck.dist_source_vars()[0], prog.i);
  EXPECT_EQ(ck.dist_source_vars()[1], prog.j);
  EXPECT_FALSE(ck.position_space());
  // spmm_row clamps its dense j loop to the axis-1 tile.
  EXPECT_EQ(ck.leaf_kernel_name(), "spmm_row");
}

TEST(ExecuteGrid, Spmm2dMatchesOracle) {
  for (auto [px, py] : {std::pair<int, int>{2, 2}, {4, 2}, {2, 4}}) {
    Grid2SpmmProgram prog(px, py,
                          data::powerlaw_matrix(96, 96, 800, 1.2, 22));
    rt::MachineConfig cfg;
    cfg.nodes = px * py;
    rt::Machine m(cfg, rt::Grid(px, py), rt::ProcKind::CPU);
    rt::Runtime runtime(m);
    auto inst = CompiledKernel::compile(*prog.stmt, m).instantiate(runtime);
    inst->run(2);  // steady state must stay correct
    EXPECT_LE(ref::max_abs_diff(prog.A, ref::eval(*prog.stmt)), 1e-10)
        << px << "x" << py;
    EXPECT_EQ(inst->trace().count(PlanOpKind::DistributedFor), 1);
  }
}

TEST(ExecuteGrid, Spmm2dOnGpuMachineMatchesOracle) {
  Grid2SpmmProgram prog(2, 4, data::powerlaw_matrix(80, 80, 600, 1.3, 23));
  rt::MachineConfig cfg;
  cfg.nodes = 2;
  cfg.gpus_per_node = 4;
  rt::Machine m(cfg, rt::Grid(2, 4), rt::ProcKind::GPU);
  rt::Runtime runtime(m);
  auto inst = CompiledKernel::compile(*prog.stmt, m).instantiate(runtime);
  inst->run(1);
  EXPECT_LE(ref::max_abs_diff(prog.A, ref::eval(*prog.stmt)), 1e-10);
}

// 2-D SpMV distributes the reduction variable j on axis 1: the output is
// merged across the column axis (reduction privileges), the co-iteration
// engine clamps j per piece.
TEST(ExecuteGrid, Spmv2dReductionAxisMatchesOracle) {
  IndexVar i("i"), j("j"), io("io"), ii("ii"), jo("jo"), ji("ji");
  fmt::Coo coo = data::powerlaw_matrix(72, 72, 500, 1.2, 24);
  Tensor a("a", {72}, fmt::dense_vector());
  Tensor B("B", {72, 72}, fmt::csr());
  Tensor c("c", {72}, fmt::dense_vector());
  B.from_coo(std::move(coo));
  c.init_dense([](const auto& x) {
    return 1.0 + 0.5 * static_cast<double>(x[0] % 3);
  });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  a.schedule()
      .divide(i, io, ii, 2)
      .divide(j, jo, ji, 2)
      .distribute(io)
      .distribute(jo);
  rt::MachineConfig cfg;
  cfg.nodes = 4;
  rt::Machine m(cfg, rt::Grid(2, 2), rt::ProcKind::CPU);
  CompiledKernel ck = CompiledKernel::compile(stmt, m);
  EXPECT_EQ(ck.leaf_kernel_name(), "coiter");  // spmv_row cannot clamp j
  rt::Runtime runtime(m);
  auto inst = ck.instantiate(runtime);
  inst->run(2);
  EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-10);
}

TEST(ExecuteGrid, Sddmm2dMatchesOracle) {
  IndexVar i("i"), j("j"), k("k"), io("io"), ii("ii"), jo("jo"), ji("ji");
  fmt::Coo coo = data::powerlaw_matrix(56, 56, 350, 1.2, 25);
  Tensor A("A", {56, 56}, fmt::csr());
  Tensor B("B", {56, 56}, fmt::csr());
  Tensor C("C", {56, 6}, fmt::dense_matrix());
  Tensor D("D", {6, 56}, fmt::dense_matrix());
  B.from_coo(std::move(coo));
  C.init_dense([](const auto& x) {
    return 1.0 + 0.5 * static_cast<double>(x[1] % 3);
  });
  D.init_dense([](const auto& x) {
    return 0.5 + 0.25 * static_cast<double>(x[0] % 2);
  });
  Statement& stmt = (A(i, j) = B(i, j) * C(i, k) * D(k, j));
  A.schedule()
      .divide(i, io, ii, 2)
      .divide(j, jo, ji, 2)
      .distribute(io)
      .distribute(jo);
  rt::MachineConfig cfg;
  cfg.nodes = 4;
  rt::Machine m(cfg, rt::Grid(2, 2), rt::ProcKind::CPU);
  CompiledKernel ck = CompiledKernel::compile(stmt, m);
  EXPECT_EQ(ck.leaf_kernel_name(), "sddmm_row");
  rt::Runtime runtime(m);
  auto inst = ck.instantiate(runtime);
  inst->run(2);
  EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-10);
}

// Cross-product of a non-zero split (axis 0) and a universe split (axis 1):
// equal non-zero blocks of B x column blocks of the dense output.
TEST(ExecuteGrid, SpmmNonZeroTimesUniverseGridMatchesOracle) {
  IndexVar i("i"), j("j"), k("k"), f("f"), fo("fo"), fi("fi"), jo("jo"),
      ji("ji");
  fmt::Coo coo = data::powerlaw_matrix(64, 64, 500, 1.4, 28);
  Tensor A("A", {64, 12}, fmt::dense_matrix());
  Tensor B("B", {64, 64}, fmt::csr());
  Tensor C("C", {64, 12}, fmt::dense_matrix());
  B.from_coo(std::move(coo));
  C.init_dense([](const auto& x) {
    return 0.5 + 0.1 * static_cast<double>((x[0] + x[1]) % 5);
  });
  Statement& stmt = (A(i, j) = B(i, k) * C(k, j));
  A.schedule()
      .fuse(i, k, f)
      .divide_pos(f, fo, fi, 2, "B")
      .divide(j, jo, ji, 2)
      .distribute(fo)
      .distribute(jo);
  rt::MachineConfig cfg;
  cfg.nodes = 4;
  rt::Machine m(cfg, rt::Grid(2, 2), rt::ProcKind::CPU);
  CompiledKernel ck = CompiledKernel::compile(stmt, m);
  EXPECT_TRUE(ck.position_space());
  EXPECT_EQ(ck.pieces(), 4);
  EXPECT_EQ(ck.grid_pieces(), (std::vector<int>{2, 2}));
  EXPECT_EQ(ck.leaf_kernel_name(), "spmm_nz");  // clamps j per piece
  rt::Runtime runtime(m);
  auto inst = ck.instantiate(runtime);
  inst->run(2);
  EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-10);
}

TEST(CompileGrid, RejectsFusedVariableOnInnerAxis) {
  IndexVar i("i"), j("j"), k("k"), f("f"), fo("fo"), fi("fi"), io("io"),
      ii("ii");
  fmt::Coo coo = data::uniform_matrix(32, 32, 100, 29);
  Tensor A("A", {32, 8}, fmt::dense_matrix());
  Tensor B("B", {32, 32}, fmt::csr());
  Tensor C("C", {32, 8}, fmt::dense_matrix());
  B.from_coo(std::move(coo));
  C.init_dense([](const auto&) { return 1.0; });
  Statement& stmt = (A(i, j) = B(i, k) * C(k, j));
  // i is fused into the position split; it cannot also be an inner axis.
  A.schedule()
      .fuse(i, k, f)
      .divide_pos(f, fo, fi, 2, "B")
      .divide(i, io, ii, 2)
      .distribute(fo)
      .distribute(io);
  EXPECT_THROW(CompiledKernel::compile(stmt, cpu_machine(4)), ScheduleError);
}

TEST(CompileGrid, RejectsPositionSpaceOnInnerAxis) {
  IndexVar i("i"), j("j"), f("f"), fo("fo"), fi("fi"), go("go"), gi("gi");
  fmt::Coo coo = data::uniform_matrix(32, 32, 100, 26);
  Tensor a("a", {32}, fmt::dense_vector());
  Tensor B("B", {32, 32}, fmt::csr());
  Tensor c("c", {32}, fmt::dense_vector());
  B.from_coo(std::move(coo));
  c.init_dense([](const auto&) { return 1.0; });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  // Only axis 0 may drive non-zero blocks; a second divide_pos axis is
  // rejected.
  a.schedule()
      .fuse(i, j, f)
      .divide_pos(f, fo, fi, 2, "B")
      .divide_pos(fi, go, gi, 2, "B")
      .distribute(fo)
      .distribute(go);
  EXPECT_THROW(CompiledKernel::compile(stmt, cpu_machine(4)), ScheduleError);
}

TEST(CompileGrid, RejectsSameVariableOnTwoAxes) {
  IndexVar i("i"), j("j"), io("io"), ii("ii"), io2("io2"), ii2("ii2");
  fmt::Coo coo = data::uniform_matrix(32, 32, 100, 27);
  Tensor a("a", {32}, fmt::dense_vector());
  Tensor B("B", {32, 32}, fmt::csr());
  Tensor c("c", {32}, fmt::dense_vector());
  B.from_coo(std::move(coo));
  c.init_dense([](const auto&) { return 1.0; });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  a.schedule()
      .divide(i, io, ii, 2)
      .divide(i, io2, ii2, 2)
      .distribute(io)
      .distribute(io2);
  EXPECT_THROW(CompiledKernel::compile(stmt, cpu_machine(4)), ScheduleError);
}

// --- schedule errors ---------------------------------------------------------

// The message of the ScheduleError compile raises for `stmt` under
// `schedule` on 2 nodes, or "" when it compiles.
std::string compile_error(const Statement& stmt,
                          const sched::Schedule& schedule) {
  try {
    CompiledKernel::compile(stmt, schedule, cpu_machine(2));
  } catch (const ScheduleError& e) {
    return e.what();
  }
  return "";
}

// Figure 1's SpMV over a 16x16 B in `format`.
SpmvProgram small_spmv(const fmt::Format& format = fmt::csr()) {
  return SpmvProgram(2, data::uniform_matrix(16, 16, 40, 31), format);
}

// divide(i, io, ii, 2).distribute(io) over p's variables.
sched::Schedule row_blocks(const SpmvProgram& p) {
  sched::Schedule s;
  s.divide(p.i, p.io, p.ii, 2).distribute(p.io);
  return s;
}

// A(i, i) = B(i, j) * c(j): one variable drives both output axes.
std::string repeated_output_var(const fmt::Format& format) {
  SpmvProgram p = small_spmv();
  Tensor A("A", {16, 16}, format);
  return compile_error(A(p.i, p.i) = p.B(p.i, p.j) * p.c(p.j),
                       row_blocks(p));
}

// One schedule error compile raises in every mode: a fragment of its
// message, and the statement and schedule that raise it (returning the
// message, or "" when they compile).
struct ScheduleErrorCase {
  const char* name;
  const char* error;  // empty: the schedule compiles
  std::string (*compile)();
};

const ScheduleErrorCase kScheduleErrors[] = {
    {"nonunique_pair",
     "operands B, C are all non-unique at shared variable i",
     [] {
       SpmvProgram p = small_spmv(fmt::coo(2));
       Tensor C("C", {16, 16}, fmt::coo(2));
       C.from_coo(data::uniform_matrix(16, 16, 40, 32));
       return compile_error(p.a(p.i) = p.B(p.i, p.j) * C(p.i, p.j) *
                                       p.c(p.j),
                            row_blocks(p));
     }},
    {"parallelize_distributed",
     "parallelize(io, ...) targets a distributed variable",
     [] {
       SpmvProgram p = small_spmv();
       sched::Schedule s = row_blocks(p);
       s.parallelize(p.io, sched::ParallelUnit::CPUThread);
       return compile_error(*p.stmt, s);
     }},
    {"communicate_unbound",
     "communicate references tensor `no_such_tensor` which the statement",
     [] {
       SpmvProgram p = small_spmv();
       sched::Schedule s = row_blocks(p);
       s.communicate({"no_such_tensor"}, p.io);
       return compile_error(*p.stmt, s);
     }},
    {"divide_pos_unbound", "divide_pos targets tensor `Q` which the statement",
     [] {
       SpmvProgram p = small_spmv();
       IndexVar f("f"), fo("fo"), fi("fi");
       sched::Schedule s;
       s.fuse(p.i, p.j, f).divide_pos(f, fo, fi, 2, "Q").distribute(fo);
       return compile_error(*p.stmt, s);
     }},
    {"distribute_unproduced",
     "distribute(ii): variable was not produced by divide()/divide_pos()",
     [] {
       SpmvProgram p = small_spmv();
       sched::Schedule s;
       s.divide(p.i, p.io, p.ii, 2).distribute(p.ii);
       return compile_error(*p.stmt, s);
     }},
    {"distribute_unused_source",
     "distribute(ko): source variable k indexes no tensor",
     [] {
       SpmvProgram p = small_spmv();
       IndexVar k("k"), ko("ko"), ki("ki");
       sched::Schedule s;
       s.divide(k, ko, ki, 2).distribute(ko);
       return compile_error(*p.stmt, s);
     }},
    {"distribute_fused_inner_axis",
     "distribute(fo): source variable f comes from fuse(), but only the "
     "first distributed axis may be fused",
     [] {
       IndexVar i("i"), j("j"), k("k"), f("f"), fo("fo"), fi("fi"), io("io"),
           ii("ii");
       Tensor A("A", {8, 8}, fmt::dense_matrix());
       Tensor B("B", {8, 8, 8}, fmt::csf3());
       Tensor c("c", {8}, fmt::dense_vector());
       B.from_coo(data::uniform_3tensor(8, 8, 8, 40, 34));
       c.init_dense([](const auto&) { return 1.0; });
       sched::Schedule s;
       s.fuse(j, k, f)
           .divide(i, io, ii, 2)
           .distribute(io)
           .divide(f, fo, fi, 2)
           .distribute(fo);
       return compile_error(A(i, j) = B(i, j, k) * c(k), s);
     }},
    {"divide_pos_deep_chain",
     "fuses 3 index variables but `B` has only 2 storage levels",
     [] {
       IndexVar i("i"), j("j"), k("k"), f("f"), g("g"), go("go"), gi("gi");
       Tensor A("A", {16, 4}, fmt::dense_matrix());
       Tensor B("B", {16, 16}, fmt::csr());
       Tensor C("C", {16, 4}, fmt::dense_matrix());
       B.from_coo(data::uniform_matrix(16, 16, 40, 33));
       C.init_dense([](const auto&) { return 1.0; });
       sched::Schedule s;
       s.fuse(i, j, f).fuse(f, k, g).divide_pos(g, go, gi, 2, "B").distribute(
           go);
       return compile_error(A(i, k) = B(i, j) * C(j, k), s);
     }},
    {"output_repeated_var_dense", "output access A repeats index variable i",
     [] { return repeated_output_var(fmt::dense_matrix()); }},
    {"output_repeated_var_csr", "output access A repeats index variable i",
     [] { return repeated_output_var(fmt::csr()); }},
    // The Figure 1 schedule compiles.
    {"clean_figure1", "",
     [] {
       SpmvProgram p = small_spmv();
       return compile_error(*p.stmt, p.a.schedule());
     }},
    // Each term of a sum is co-iterated on its own, so two non-unique
    // operands in different terms compile.
    {"clean_nonunique_sum", "",
     [] {
       SpmvProgram p = small_spmv(fmt::coo(2));
       Tensor A("A", {16, 16}, fmt::dense_matrix());
       Tensor C("C", {16, 16}, fmt::coo(2));
       C.from_coo(data::uniform_matrix(16, 16, 40, 32));
       return compile_error(A(p.i, p.j) = p.B(p.i, p.j) + C(p.i, p.j),
                            row_blocks(p));
     }},
};

class ScheduleErrors : public ::testing::TestWithParam<int> {};

// compile raises each schedule error with the same message whether verify
// mode is off or on, and verify mode finds nothing more.
TEST_P(ScheduleErrors, SameErrorWithVerifyOffAndOn) {
  const ScheduleErrorCase& c = kScheduleErrors[GetParam()];
  const bool prev = verify::enabled();
  verify::set_enabled(false);
  const std::string off = c.compile();
  verify::set_enabled(true);
  const verify::Stats before = verify::stats();
  const std::string on = c.compile();
  const verify::Stats after = verify::stats();
  verify::set_enabled(prev);
  EXPECT_EQ(off, on) << c.name;
  EXPECT_EQ(after.violations, before.violations) << c.name;
  EXPECT_EQ(after.warnings, before.warnings) << c.name;
  if (*c.error == '\0') {
    EXPECT_EQ(off, "") << c.name;
  } else {
    EXPECT_NE(off.find(c.error), std::string::npos) << c.name << ": " << off;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rules, ScheduleErrors,
    ::testing::Range(0, static_cast<int>(std::size(kScheduleErrors))),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(kScheduleErrors[info.param].name);
    });

// Mismatched data and compute distributions still compute correctly but
// move more data (paper §II-D, last paragraph).
TEST(Simulation, DistributionMismatchCostsCommunication) {
  auto run_with = [&](const std::string& tdn_b) {
    IndexVar i("i"), j("j"), io("io"), ii("ii");
    fmt::Coo coo = data::uniform_matrix(128, 128, 2000, 14);
    Tensor a("a", {128}, fmt::dense_vector(), tdn::parse_tdn("a(x) -> M(x)"));
    Tensor B("B", {128, 128}, fmt::csr(), tdn::parse_tdn(tdn_b));
    Tensor c("c", {128}, fmt::dense_vector(), tdn::parse_tdn("c(x) -> M(z)"));
    B.from_coo(std::move(coo));
    c.init_dense([](const auto&) { return 1.0; });
    Statement& stmt = (a(i) = B(i, j) * c(j));
    a.schedule().divide(i, io, ii, 4).distribute(io);
    rt::Machine m = cpu_machine(4);
    rt::Runtime runtime(m);
    auto inst = CompiledKernel::compile(stmt, m).instantiate(runtime);
    runtime.reset_timing();  // measure only compute-time communication
    inst->run(1);
    EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-10);
    return inst->report().inter_node_bytes;
  };
  const double matched = run_with("B(x, y) -> M(x)");
  const double mismatched = run_with("B(x, y) fuse(x, y -> g) -> M(~g)");
  EXPECT_GT(mismatched, matched);
}

}  // namespace
}  // namespace spdistal::comp
