// Cross-module integration tests: end-to-end programs exercising the full
// pipeline (I/O -> pack -> TDN -> compile -> simulate), the batched SpMM
// schedule, weak-scaling smoke checks, the Figure 9b plan printer, and
// report plumbing.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "baselines/petsc_like.h"
#include "compiler/lower.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "tensor/dense_ref.h"
#include "tensor/io.h"

namespace spdistal {
namespace {

rt::Machine scaled_cpu(int nodes) {
  rt::MachineConfig cfg = data::paper_machine_config(nodes);
  return rt::Machine(cfg, rt::Grid(nodes), rt::ProcKind::CPU);
}

// File -> pack -> distribute -> compute -> verify, the examples/file_spmv
// pipeline.
TEST(Integration, MatrixMarketToDistributedSpmv) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "spd_int.mtx").string();
  io::write_matrix_market(path, data::powerlaw_matrix(300, 300, 2500, 1.1, 3));
  fmt::Coo coo = io::read_matrix_market(path);
  IndexVar i("i"), j("j"), io_("io"), ii("ii");
  Tensor a("a", {coo.dims[0]}, fmt::dense_vector(),
           tdn::parse_tdn("a(x) -> M(x)"));
  Tensor B("B", coo.dims, fmt::csr(), tdn::parse_tdn("B(x, y) -> M(x)"));
  Tensor c("c", {coo.dims[1]}, fmt::dense_vector(),
           tdn::parse_tdn("c(x) -> M(q)"));
  B.from_coo(std::move(coo));
  c.init_dense([](const auto& x) { return 0.5 + (x[0] % 3); });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  a.schedule().divide(i, io_, ii, 4).distribute(io_).parallelize(
      ii, sched::ParallelUnit::CPUThread);
  rt::Machine m = scaled_cpu(4);
  rt::Runtime runtime(m);
  auto inst = comp::CompiledKernel::compile(stmt, m).instantiate(runtime);
  inst->run(2);
  EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-10);
  std::remove(path.c_str());
}

// The plan trace prints a readable Figure 9b-style program.
TEST(Integration, PlanTraceIsPrintable) {
  IndexVar i("i"), j("j"), io_("io"), ii("ii");
  Tensor a("a", {64}, fmt::dense_vector());
  Tensor B("B", {64, 64}, fmt::csr());
  Tensor c("c", {64}, fmt::dense_vector());
  B.from_coo(data::uniform_matrix(64, 64, 400, 5));
  c.init_dense([](const auto&) { return 1.0; });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  a.schedule().divide(i, io_, ii, 2).distribute(io_);
  rt::Machine m = scaled_cpu(2);
  rt::Runtime runtime(m);
  auto inst = comp::CompiledKernel::compile(stmt, m).instantiate(runtime);
  const std::string plan = inst->trace().str();
  EXPECT_NE(plan.find("partitionByBounds"), std::string::npos);
  EXPECT_NE(plan.find("image(B2.pos"), std::string::npos);
  EXPECT_NE(plan.find("distributed for"), std::string::npos);
  EXPECT_NE(plan.find("leaf kernel: spmv_row"), std::string::npos);
}

// Needed-coordinate derivation: a banded matrix's vector operand moves only
// halo bytes, never the full vector, and never OOMs tight memories.
TEST(Integration, BandedSpmvMovesOnlyHalo) {
  IndexVar i("i"), j("j"), io_("io"), ii("ii");
  const Coord n = 8000;
  Tensor a("a", {n}, fmt::dense_vector(), tdn::parse_tdn("a(x) -> M(x)"));
  Tensor B("B", {n, n}, fmt::csr(), tdn::parse_tdn("B(x, y) -> M(x)"));
  Tensor c("c", {n}, fmt::dense_vector(), tdn::parse_tdn("c(x) -> M(x)"));
  fmt::Coo coo = data::banded_matrix(n, 9, 6);
  // The exact result, a[i] = sum over row i of B(i, j) * 2.0, from the same
  // entries: the dense oracle would densify B into n * n doubles.
  ref::DenseTensor expect{{n}, std::vector<double>(static_cast<size_t>(n))};
  for (size_t e = 0; e < coo.vals.size(); ++e) {
    expect.vals[static_cast<size_t>(coo.coords[e][0])] += coo.vals[e] * 2.0;
  }
  B.from_coo(std::move(coo));
  c.init_dense([](const auto&) { return 2.0; });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  a.schedule().divide(i, io_, ii, 8).distribute(io_).parallelize(
      ii, sched::ParallelUnit::CPUThread);
  rt::Machine m = scaled_cpu(8);
  rt::Runtime runtime(m);
  auto inst = comp::CompiledKernel::compile(stmt, m).instantiate(runtime);
  runtime.reset_timing();
  inst->run(1);
  // First iteration moves at most the halos (a few rows of 8 bytes per
  // boundary), nothing like the full vector (64 KB).
  EXPECT_LT(runtime.report().inter_node_bytes, 8 * 9 * 8.0 * 2);
  EXPECT_LE(ref::max_abs_diff(a, expect), 1e-10);
}

// GPU machines with per-device framebuffers run the same program and agree
// with the CPU result; memory accounting reports framebuffer peaks.
TEST(Integration, GpuRunReportsFramebufferPeak) {
  IndexVar i("i"), j("j"), io_("io"), ii("ii");
  Tensor a("a", {128}, fmt::dense_vector());
  Tensor B("B", {128, 128}, fmt::csr());
  Tensor c("c", {128}, fmt::dense_vector());
  B.from_coo(data::uniform_matrix(128, 128, 900, 8));
  c.init_dense([](const auto& x) { return 1.0 + (x[0] % 2); });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  a.schedule().divide(i, io_, ii, 8).distribute(io_);
  rt::MachineConfig cfg = data::paper_machine_config(2);
  rt::Machine m(cfg, rt::Grid(8), rt::ProcKind::GPU);
  rt::Runtime runtime(m);
  auto inst = comp::CompiledKernel::compile(stmt, m).instantiate(runtime);
  inst->run(1);
  EXPECT_GT(runtime.report().peak_fbmem, 0);
  EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-10);
}

// Weak scaling smoke: doubling nodes with doubled problem size keeps
// simulated iteration time roughly constant.
TEST(Integration, WeakScalingIsFlat) {
  auto time_at = [&](int nodes) {
    IndexVar i("i"), j("j"), io_("io"), ii("ii");
    const Coord n = 20000 * nodes;
    Tensor a("a", {n}, fmt::dense_vector(), tdn::parse_tdn("a(x) -> M(x)"));
    Tensor B("B", {n, n}, fmt::csr(), tdn::parse_tdn("B(x, y) -> M(x)"));
    Tensor c("c", {n}, fmt::dense_vector(), tdn::parse_tdn("c(x) -> M(x)"));
    B.from_coo(data::banded_matrix(n, 13, 9));
    c.init_dense([](const auto&) { return 1.0; });
    Statement& stmt = (a(i) = B(i, j) * c(j));
    a.schedule().divide(i, io_, ii, nodes).distribute(io_).parallelize(
        ii, sched::ParallelUnit::CPUThread);
    rt::Machine m = scaled_cpu(nodes);
    rt::Runtime runtime(m);
    auto inst = comp::CompiledKernel::compile(stmt, m).instantiate(runtime);
    inst->run(1);
    runtime.reset_timing();
    inst->run(3);
    return inst->report().sim_time / 3;
  };
  const double t1 = time_at(1);
  const double t4 = time_at(4);
  EXPECT_LT(t4, 1.25 * t1);
  EXPECT_GT(t4, 0.75 * t1);
}

// The batched SpMM schedule (Figure 11b) computes correct values while
// holding only chunks of C per device.
TEST(Integration, BatchedSpmmCorrectAndBounded) {
  IndexVar i("i"), j("j"), k("k"), io_("io"), ii("ii");
  fmt::Coo coo = data::uniform_matrix(96, 80, 700, 10);
  Tensor A("A", {96, 8}, fmt::dense_matrix(), tdn::parse_tdn("A(x, y) -> M(x)"));
  Tensor B("B", {96, 80}, fmt::csr(), tdn::parse_tdn("B(x, y) -> M(x)"));
  Tensor C("C", {80, 8}, fmt::dense_matrix(), tdn::parse_tdn("C(x, y) -> M(y)"));
  B.from_coo(std::move(coo));
  C.init_dense([](const auto& x) {
    return 0.25 * static_cast<double>((x[0] + x[1]) % 5);
  });
  Statement& stmt = (A(i, j) = B(i, k) * C(k, j));
  A.schedule().divide(i, io_, ii, 4).distribute(io_).parallelize(
      ii, sched::ParallelUnit::CPUThread);
  rt::Machine m = scaled_cpu(4);
  rt::Runtime runtime(m);
  auto inst = comp::CompiledKernel::compile(stmt, m).instantiate(runtime);
  inst->run(1);
  EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-10);
}

// Dataset registry sanity: every Table II entry generates, packs into its
// evaluation format, and reports plausible statistics.
class DatasetRegistry : public ::testing::TestWithParam<int> {};

TEST_P(DatasetRegistry, GeneratesAndPacks) {
  const auto& all_m = data::matrix_datasets();
  const auto& all_t = data::tensor_datasets();
  const size_t idx = static_cast<size_t>(GetParam());
  const data::DatasetInfo& info =
      idx < all_m.size() ? all_m[idx] : all_t[idx - all_m.size()];
  fmt::Coo coo = info.make();
  EXPECT_EQ(coo.order(), info.order);
  EXPECT_GT(coo.nnz(), 0);
  // Scaled nnz within a factor of ~4 of the target (duplicate collisions).
  const double target = info.paper_nnz / data::kScaleFactor;
  EXPECT_GT(static_cast<double>(coo.nnz()), target / 4);
  EXPECT_LT(static_cast<double>(coo.nnz()), target * 2);
  const fmt::Format f = info.order == 2 ? fmt::csr() : fmt::csf3();
  fmt::TensorStorage st = fmt::pack(info.name, f, coo.dims, coo);
  fmt::Coo combined = coo;
  std::vector<int> order(static_cast<size_t>(info.order));
  for (size_t d = 0; d < order.size(); ++d) order[d] = static_cast<int>(d);
  combined.sort_and_combine(order);
  EXPECT_EQ(st.nnz(), combined.nnz());
}

INSTANTIATE_TEST_SUITE_P(TableII, DatasetRegistry, ::testing::Range(0, 14));

// Bulk-synchronous baselines vs deferred execution: for the same kernel and
// data, PETSc's barriers make per-processor clocks equal at the end, while
// SpDISTAL's pipelined clocks can differ.
TEST(Integration, BaselineIsBulkSynchronous) {
  fmt::Coo coo = data::powerlaw_matrix(500, 500, 5000, 1.2, 11);
  IndexVar i("i"), j("j");
  Tensor a("a", {500}, fmt::dense_vector());
  Tensor B("B", {500, 500}, fmt::csr());
  Tensor c("c", {500}, fmt::dense_vector());
  B.from_coo(std::move(coo));
  c.init_dense([](const auto&) { return 1.0; });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  base::LibrarySystem petsc = base::make_petsc_like(scaled_cpu(4));
  const double t = petsc.run(stmt, 1, 3);
  EXPECT_GT(t, 0);
  EXPECT_LE(ref::max_abs_diff(a, ref::eval(stmt)), 1e-10);
}

}  // namespace
}  // namespace spdistal
