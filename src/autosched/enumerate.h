// Candidate enumeration: the legal neighborhood of schedules for a TIN
// statement on a machine.
//
// The space covered is the paper's own scheduling vocabulary: universe
// (coordinate-block) distribution of the outermost variable vs non-zero
// (position-space) distribution of each sparse operand at every legal fusion
// depth, piece counts derived from the machine grid (one piece per
// processor, and always 2x overdecomposed too), communicate granularity
// placements, and leaf parallelization per processor kind. Every emitted
// candidate has already been validated by comp::CompiledKernel::compile —
// illegal combinations (union co-iteration under a non-zero split,
// non-outermost distribution, compressed top levels) are filtered here, not
// surfaced to the search.
#pragma once

#include <vector>

#include "autosched/recipe.h"
#include "runtime/machine.h"

namespace spdistal::autosched {

struct Candidate {
  Recipe recipe;
  sched::Schedule schedule;  // materialized against the enumerated statement
  double est_time = 0;       // analytic estimate, seconds/iteration
  double sim_time = -1;      // proxy-simulated seconds/iteration
  bool simulated = false;
};

// The search over-decomposes by at most this factor: piece counts are one
// per processor, or this many per processor.
constexpr int kOverdecompose = 2;

// Deterministic enumeration order: universe candidates first (communicate
// before not, piece counts ascending), then position-space candidates per
// sparse operand in access order, fusion depth ascending.
std::vector<Candidate> enumerate_candidates(const Statement& stmt,
                                            const rt::Machine& machine);

}  // namespace spdistal::autosched
