// Quickstart: the paper's Figure 1, line for line.
//
// A distributed CPU SpMV built from SpDISTAL's three input languages:
//   * the computation language (tensor index notation):  a(i) = B(i,j)·c(j)
//   * the format language (data structures + data distribution)
//   * the scheduling language (computation distribution)
//
// Build and run:  ./build/examples/quickstart
#include <cstdio>

#include "common/str_util.h"
#include "compiler/lower.h"
#include "data/generators.h"

using namespace spdistal;

int main() {
  // Declare input parameters for generated code.
  const int pieces = 4;
  const Coord n = 10000, m = 10000;

  // Define the machine M as a 1D grid of processors.
  rt::MachineConfig config;
  config.nodes = pieces;
  // Scaled-dataset timing: data::kScaleFactor and paper_machine_config in
  // src/data/datasets.h.
  config.time_scale = 8192;
  config.capacity_scale = 8192;
  rt::Machine M(config, rt::Grid(pieces), rt::ProcKind::CPU);

  // Define the data structure and distribution for each tensor: two dense
  // vector formats (one blocked onto M, one replicated), and a CSR matrix
  // distributed row-wise. (Figure 1 lines 12-16, in TDN notation.)
  tdn::Distribution BlockedDense = tdn::parse_tdn("T(x) -> M(x)");
  tdn::Distribution ReplDense = tdn::parse_tdn("T(x) -> M(y)");
  tdn::Distribution BlockedCSR = tdn::parse_tdn("T(x, y) -> M(x)");

  // Create our tensors, using the defined formats. Our SpMV algorithm will
  // block a and B, and replicate c.
  Tensor a("a", {n}, fmt::dense_vector(), BlockedDense);
  Tensor B("B", {n, m}, fmt::csr(), BlockedCSR);
  Tensor c("c", {m}, fmt::dense_vector(), ReplDense);

  // Load data: a banded PDE-style matrix and a simple vector.
  B.from_coo(data::banded_matrix(n, 27, /*seed=*/1));
  c.init_dense([](const auto& x) {
    return 1.0 / (1.0 + static_cast<double>(x[0] % 13));
  });

  // Declare the computation, a matrix-vector multiply.
  IndexVar i("i"), j("j");
  Statement& stmt = (a(i) = B(i, j) * c(j));

  // Map the computation onto M via scheduling commands.
  IndexVar io("io"), ii("ii");
  a.schedule()
      // Block i for each node, and distribute each block onto each node.
      .divide(i, io, ii, pieces)
      .distribute(io)
      // Communicate the needed sub-tensors for each chunk of i.
      .communicate({"a", "B", "c"}, io)
      // Parallelize chunks of i over CPU threads on each node.
      .parallelize(ii, sched::ParallelUnit::CPUThread);

  // Compile, instantiate against the runtime, and run.
  rt::Runtime runtime(M);
  comp::CompiledKernel kernel = comp::CompiledKernel::compile(stmt, M);
  auto instance = kernel.instantiate(runtime);
  instance->run(1);            // warm-up (places data, first-touch copies)
  runtime.reset_timing();
  instance->run(10);           // steady state

  const rt::SimReport report = instance->report();
  std::printf("distributed SpMV: %s, %d pieces, leaf kernel '%s'\n",
              stmt.str().c_str(), kernel.pieces(),
              kernel.leaf_kernel_name().c_str());
  std::printf("  simulated time/iteration : %s\n",
              human_seconds(report.sim_time / 10).c_str());
  std::printf("  steady-state comm        : %s\n",
              human_bytes(report.inter_node_bytes / 10).c_str());
  std::printf("  load imbalance (max/mean): %.2f\n", report.imbalance);
  double sum = 0;
  for (Coord k = 0; k < n; ++k) sum += (*a.storage().vals())[k];
  std::printf("  checksum(a)              : %.6f\n", sum);

  std::printf("\ngenerated partitioning plan (Figure 9b):\n%s\n",
              instance->trace().str().c_str());
  return 0;
}
