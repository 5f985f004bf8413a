// Independent reference evaluators for the six evaluation kernels.
//
// Each evaluator loops over the sparse operand's coordinate list (the COO
// the benchmark generated, before packing) and over the dense operands read
// back from their tensors' storage. Inputs are therefore defined once, by
// bench_util::build_kernel, while no computation is shared with the
// compiler, the leaf kernels or the co-iteration engine under test.
//
// The evaluation is also the benchmark's ruler for host speed: it runs in
// plain C++ on the workload's own data, so when the shared host slows the
// library's iterations down it slows this loop down by a similar factor
// (README.md, "Noise").
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace spdbench::oracle {

// (row-major linearized coordinate, value), sorted by coordinate.
using Entries = std::vector<std::pair<int64_t, double>>;

// An output value passes when |out - ref| <= kRelTol * max(1, |ref|).
inline constexpr double kRelTol = 1e-9;

class Reference {
 public:
  // Reads everything run() needs: the COO of `stmt`'s sparse operand
  // (as build_kernel packed it), SpAdd3's shifted addends, and the dense
  // operands' values. `coo` must outlive the Reference.
  Reference(base::KernelKind kind, const fmt::Coo& coo, const Statement& stmt);

  // Evaluates the statement once with plain loops over the inputs read
  // above, into buffers reused from run to run (so the loop allocates
  // nothing once warm).
  void run();
  // The output of the last run().
  Entries result() const;

 private:
  struct Dense {
    std::vector<double> v;
    Coord cols = 1;
    double at(Coord i, Coord j) const {
      return v[static_cast<size_t>(i * cols + j)];
    }
  };
  static Dense dense_values(const Tensor& t);

  base::KernelKind kind_;
  const fmt::Coo& coo_;
  std::vector<fmt::Coo> shifted_;  // SpAdd3's second and third addends
  Dense x_, y_;                    // the dense operands, in expression order
  std::vector<double> dense_out_;  // SpMV, SpMM, SpMTTKRP
  Entries sparse_out_;             // SpAdd3, SDDMM, SpTTV
};

struct Check {
  int64_t compared = 0;    // output coordinates compared
  int64_t mismatches = 0;  // coordinates outside tolerance
  double max_rel_err = 0;
  std::string first_mismatch;

  bool ok() const { return mismatches == 0; }
};

// Compares the stored values of `out` with the reference entries.
Check check(const Entries& want, const Tensor& out);

// FNV-1a over the output's stored (coordinate, value bits) pairs in storage
// order: equal for two runs iff their outputs are bit-identical.
uint64_t checksum(const Tensor& out);

}  // namespace spdbench::oracle
