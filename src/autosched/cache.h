// The plan cache: schedules found by search, keyed so that repeated
// compiles of the same logical computation in a serving loop hit in O(1) —
// and, with the plan service armed (plan_store.h), shared across processes.
//
// A key has two halves. The *structural* half captures everything a recipe
// replay requires exactly: the expression (with index variables
// canonicalized by first-appearance order, so two structurally identical
// statements built from distinct IndexVar objects collide), each tensor's
// format signature and mode ordering, and the machine signature (processor
// kind, grid, hardware rates). The *sparsity* half is a per-tensor
// data::SparsityFingerprint sequence (dimensions, nnz, mass and row-degree
// sketches). Both halves must match exactly.
//
// One mutex guards the entry map: each autoschedule_search looks up once,
// and proxy simulations compile with explicit schedules and never look up,
// so lookups are too rare to contend.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "autosched/recipe.h"
#include "data/fingerprint.h"
#include "runtime/machine.h"

namespace spdistal::autosched {

// Canonical cache key for (statement, machine).
struct PlanKey {
  std::string structural;  // expr + formats + machine; must match exactly
  // Canonical encoding of the per-binding fingerprints, in name order.
  std::string sig;

  // Map key. The fingerprint encoding never contains the (control
  // character) separator, so entries() can split a key back into halves.
  std::string exact() const { return structural + kSep + sig; }
  static constexpr char kSep = '\x1f';
};

PlanKey plan_key(const Statement& stmt, const rt::Machine& machine);

struct CachedPlan {
  Recipe recipe;
  double cost = 0;  // proxy-simulated seconds/iteration of the winner
  // Loaded from a persisted store rather than searched in this process;
  // only served while plan_store_enabled() (set_plan_store(false) restores
  // bit-identical searched schedules).
  bool from_store = false;
};

// One serializable entry (plan_store.h round-trips these).
struct StoredPlan {
  std::string structural;
  std::string sig;
  CachedPlan plan;
};

class PlanCache {
 public:
  // Process-wide cache consulted by autoschedule(); thread-safe.
  static PlanCache& global();

  struct Hit {
    Recipe recipe;
    double cost = 0;
  };

  // Exact-key lookup. Entries that came from the persisted store are served
  // only while the plan store is enabled, and an entry is served only if
  // `servable` accepts its recipe. Counts a hit when an entry is served,
  // else a miss.
  std::optional<Hit> lookup(
      const PlanKey& key, const std::function<bool(const Recipe&)>& servable);
  void insert(const PlanKey& key, const Recipe& recipe, double cost);

  // Bulk-inserts entries loaded from a persisted store. Entries already
  // present (searched in this process) win over stored ones. Returns the
  // number merged in.
  size_t insert_stored(const std::vector<StoredPlan>& entries);

  // Snapshot of all entries, for serialization.
  std::vector<StoredPlan> entries() const;

  void clear();

  size_t size() const;
  // Lookup outcomes and stored entries merged in since the last clear():
  // their one source (the metrics registry does not mirror them).
  int64_t hits() const;
  int64_t misses() const;
  int64_t loaded() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, CachedPlan> plans_;  // guarded by mu_
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> loaded_{0};
};

}  // namespace spdistal::autosched
