// Work accounting shared by leaf kernels: every kernel measures the work it
// actually performed (non-zeros processed, values touched) and reports a
// WorkEstimate the simulator prices on the owning processor.
//
// Thread-safety contract: point tasks of a launch retire concurrently on
// the deferred executor's worker pool, so work measurement must stay
// task-local. A WorkCounter lives on the stack of one leaf invocation; the
// returned WorkEstimate is written into the launch record's per-point slot
// (no shared accumulation), and the simulator prices the slots serially at
// launch retirement. Never accumulate work through captured or global
// state from inside a leaf.
#pragma once

#include <cstdint>

#include "runtime/simulator.h"

namespace spdistal::kern {

// Accumulator with convenience methods for common sparse-kernel costs.
// Alongside the priced flops/bytes it counts the stored non-zeros the leaf
// processed (one per sparse multiply-add), reported on the measured trace
// track beside the leaf's wall time.
struct WorkCounter {
  double flops = 0;
  double bytes = 0;
  double nnz = 0;

  // One multiply-add over a sparse entry: reads value + coordinate, touches
  // an operand and the accumulator.
  void fma_sparse(int64_t n = 1) {
    flops += 2.0 * static_cast<double>(n);
    bytes += (8.0 + 4.0 + 8.0) * static_cast<double>(n);
    nnz += static_cast<double>(n);
  }
  // One multiply-add over dense data only.
  void fma_dense(int64_t n = 1) {
    flops += 2.0 * static_cast<double>(n);
    bytes += 16.0 * static_cast<double>(n);
  }
  // `len` multiply-adds over dense rows that stream once and then stay
  // cache-resident (the accumulator row is register/L1-resident): 2 flops
  // per element, one 8-byte streaming read each plus segment bookkeeping.
  // Each of the `n` rows corresponds to one stored non-zero.
  void fma_dense_cached(int64_t len, int64_t n = 1) {
    flops += 2.0 * static_cast<double>(len) * static_cast<double>(n);
    bytes += (8.0 * static_cast<double>(len) + 12.0) * static_cast<double>(n);
    nnz += static_cast<double>(n);
  }
  // Streaming over `n` values without arithmetic (copies, pattern scans).
  void stream(int64_t n, double bytes_per = 8.0) {
    bytes += bytes_per * static_cast<double>(n);
  }
  // Row/segment bookkeeping (pos reads).
  void segment(int64_t n = 1) { bytes += 16.0 * static_cast<double>(n); }

  rt::WorkEstimate done() const { return rt::WorkEstimate{flops, bytes, nnz}; }
};

}  // namespace spdistal::kern
