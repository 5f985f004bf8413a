// The plan cache: schedules found by search, kept in memory for the life of
// the process and keyed so that repeated compiles of the same logical
// computation in a serving loop hit in O(1).
//
// The key is one string that writes out, exactly, everything a recipe's
// replay and its price depend on: the expression (with index variables
// canonicalized by first-appearance order, so two structurally identical
// statements built from distinct IndexVar objects collide, and literals
// printed with 17 significant digits), each tensor's format signature and
// mode ordering, every MachineConfig field with the machine's processor
// kind and grid, and a per-tensor data::SparsityFingerprint (dimensions,
// nnz, mass and row-degree sketches). Lookups match the whole key.
//
// One mutex guards the entry map and the hit and miss counts: each
// autoschedule_search looks up once, and proxy simulations compile with
// explicit schedules and never look up, so lookups are too rare to contend.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "autosched/recipe.h"
#include "runtime/machine.h"

namespace spdistal::autosched {

// Canonical cache key for (statement, machine).
std::string plan_key(const Statement& stmt, const rt::Machine& machine);

struct CachedPlan {
  Recipe recipe;
  double cost = 0;  // proxy-simulated seconds/iteration of the winner
};

class PlanCache {
 public:
  // Process-wide cache consulted by autoschedule(); thread-safe.
  static PlanCache& global();

  // Exact-key lookup; counts a hit when an entry is found, else a miss.
  std::optional<CachedPlan> lookup(const std::string& key);
  void insert(const std::string& key, const Recipe& recipe, double cost);

  void clear();

  size_t size() const;
  // Lookup outcomes since the last clear(). (autoschedule_search also adds
  // each outcome to the registry's autosched.cache_hits/cache_misses, which
  // count only while metrics are on and are never cleared.)
  int64_t hits() const;
  int64_t misses() const;

 private:
  mutable std::mutex mu_;
  // Guarded by mu_.
  std::map<std::string, CachedPlan> plans_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace spdistal::autosched
