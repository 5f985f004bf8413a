// The auto-scheduler (public entry point): cost-model-guided search over the
// scheduling language, replacing the hand-written schedule an expert would
// supply per (expression, format, machine) triple.
//
//   Statement& stmt = (a(i) = B(i, j) * c(j));   // no schedule recorded
//   sched::Schedule s = autosched::autoschedule(stmt, machine);
//
// Pipeline: enumerate legal candidates (enumerate.h), rank them with the
// analytic estimator, fully simulate the top candidates on downsampled proxy
// tensors (cost.h), pick the lowest simulated makespan, and memoize the
// winning recipe in the global PlanCache (cache.h) so repeated compiles of
// the same computation are served in O(1) without re-simulation.
//
// CompiledKernel::compile(stmt, machine) calls this automatically when the
// statement's output tensor carries no distribute() command, making
// unscheduled programs run with a searched plan by default.
#pragma once

#include <string>

#include "autosched/cache.h"
#include "autosched/enumerate.h"
#include "autosched/options.h"
#include "autosched/recipe.h"

namespace spdistal::autosched {

struct Result {
  sched::Schedule schedule;  // materialized against the input statement
  Recipe recipe;
  bool from_cache = false;
  double best_cost = 0;  // proxy-simulated seconds/iteration of the winner
  int enumerated = 0;    // legal candidates considered this call
  int simulated = 0;     // candidates fully simulated this call (0 on a hit)
  std::string summary() const;
};

// Full search with diagnostics.
Result autoschedule_search(const Statement& stmt, const rt::Machine& machine,
                           const Options& options = {});

// Convenience: just the schedule.
sched::Schedule autoschedule(const Statement& stmt,
                             const rt::Machine& machine,
                             const Options& options = {});

}  // namespace spdistal::autosched
