// Candidate pricing, in two tiers.
//
// The analytic fast path estimates seconds/iteration from the statement's
// stored non-zeros alone: per-piece work profiles (bucketing each sparse
// operand's non-zeros over the distributed dimension — the universe split's
// load imbalance; equal blocks for non-zero splits), bytes moved per
// iteration from placement diffs (reduction merges for overlapping output
// partitions), and task launch overhead. It exists to *rank* candidates so
// the search only pays for full simulation on the promising ones. It uses
// the machine model's rates, so its estimates are simulated seconds too.
//
// The simulation tier is ground truth: the candidate is compiled and
// instantiated against a scratch rt::Runtime on proxy tensors (exact clones,
// downsampled above kMaxProxyNnz) and priced by SimReport::sim_time over two
// warm steady-state iterations — the same protocol the benchmark harnesses
// use.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "autosched/recipe.h"
#include "runtime/machine.h"

namespace spdistal::autosched {

// Analytic estimator for one (statement, machine) pair. The per-coordinate
// non-zero histograms it buckets universe splits with depend only on
// (tensor, distributed dimension), so they are computed once and shared
// across every candidate of a search rather than re-scanning each operand's
// non-zeros per candidate.
class AnalyticModel {
 public:
  AnalyticModel(const Statement& stmt, const rt::Machine& machine);

  // Estimated seconds/iteration of `recipe`.
  double estimate(const Recipe& recipe);

 private:
  const std::vector<int64_t>& histogram(const std::string& tensor, int dim);

  const Statement& stmt_;
  const rt::Machine& machine_;
  double fpn_ = 2.0;   // flops per stored non-zero of the kernel class
  double bpn_ = 20.0;  // streamed bytes per stored non-zero
  std::map<std::string, std::vector<int64_t>> hists_;  // "name:dim" keyed
};

// One-shot convenience wrapper around AnalyticModel.
double analytic_estimate(const Statement& stmt, const Recipe& recipe,
                         const rt::Machine& machine);

// Sparse operands with more stored non-zeros than this are downsampled
// (with a fixed seed, so proxies and cache keys stay stable) before
// candidate simulation.
constexpr int64_t kMaxProxyNnz = 1 << 15;

// Clones every binding of `stmt` (sharing nothing), downsampling sparse
// operands above kMaxProxyNnz. The returned statement is safe to
// instantiate and run without touching the user's tensors.
Statement make_proxy(const Statement& stmt);

// Clones only the output binding of a proxy (fresh storage for a candidate
// simulation to zero/assemble); input bindings are shared handles, read-only
// during simulation — so concurrent candidates reuse one downsampled proxy
// instead of re-running make_proxy's convert/sample/pack per candidate.
Statement clone_proxy_output(const Statement& proxy);

// Simulated seconds/iteration of `schedule` applied to `proxy` (built once
// via make_proxy and reused across candidates). Throws OutOfMemoryError /
// SpdError when the candidate cannot be instantiated; callers treat that as
// an infinite cost.
double simulate_candidate(Statement& proxy, const sched::Schedule& schedule,
                          const rt::Machine& machine);

}  // namespace spdistal::autosched
