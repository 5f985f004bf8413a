// Auto-scheduler knobs. Defaults favor search quality over search time: the
// candidate space per statement is small (a dozen or so recipes), so the
// default simulates most of it and relies on the analytic fast path only to
// order the work and to cut obviously-bad plans on large candidate sets.
#pragma once

#include <cstdint>

namespace spdistal::autosched {

struct Options {
  // Candidates fully simulated after analytic ranking (<= 0 simulates all).
  int sim_top_k = 8;
  // Timed iterations per candidate simulation (after one warm-up).
  int sim_iters = 2;
  // Sparse operands above this non-zero count are downsampled to a proxy of
  // roughly this size before candidate simulation.
  int64_t max_sim_nnz = 1 << 15;
  // Also try 2x-overdecomposed piece counts (more, smaller pieces).
  bool allow_overdecomposition = true;
  // Consult / populate the global PlanCache.
  bool use_cache = true;
  // Seed for proxy downsampling (kept stable so cache keys stay meaningful).
  uint64_t proxy_seed = 1;
};

}  // namespace spdistal::autosched
