// Dependence analysis for the deferred executor: derives task-to-task edges
// from region accesses, following Legion's privilege semantics (§II-C):
//
//   * Read  / Read                      — commute (no edge);
//   * Reduce / Reduce                   — commute iff both sides privatize
//     into per-task scratch buffers folded in color order at launch
//     retirement (a privatized epoch and a direct-write reduction racing on
//     the same elements would be order-dependent, so they serialize);
//   * everything else                   — serializes when the accessed
//     subsets overlap (WAW, WAR, RAW on any shared point).
//
// The tracker keeps, per region, the set of outstanding accesses since the
// last dominating write. A write covering an entry's whole subset supersedes
// it (the new writer already carries edges to everything it conflicts with,
// so later tasks reach the old entries transitively), which keeps histories
// O(pieces) in steady-state launch loops. An oversized history first drops
// the entries whose tasks have retired; as a safety valve, one still
// oversized is collapsed behind a no-op sync task depending on every entry.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "exec/executor.h"
#include "runtime/index_space.h"

namespace spdistal::exec {

enum class AccessMode { Read, Write, ReadWrite, Reduce };

// One region access of a task, as seen by dependence analysis. `region` is
// the RegionId (the tracker never dereferences regions).
struct RegionAccess {
  uint32_t region = 0;
  rt::IndexSubset subset;
  AccessMode mode = AccessMode::Read;
  // Reduce only: the task accumulates into a private scratch buffer that a
  // retirement task folds in color order (privatized reductions commute).
  bool privatized = false;
};

// True when two accesses of the same region must serialize, before the
// subset-overlap test.
bool modes_conflict(AccessMode a, bool a_privatized, AccessMode b,
                    bool b_privatized);

class DepTracker {
 public:
  explicit DepTracker(Executor& ex) : ex_(&ex) {}

  // Task ids a task performing `accesses` must wait on. Query only; call
  // record() afterwards with the id later tasks should wait on. The split
  // lets all point tasks of one launch query against the *pre-launch* state
  // (intra-launch ordering is the caller's job, per privilege semantics).
  std::vector<TaskId> deps_for(
      const std::vector<RegionAccess>& accesses) const;

  // Records `accesses` as performed. `completion` is the task a later
  // conflicting access waits on: the point task itself, or the launch's
  // retirement (fold) task for privatized reductions. When `owner` is
  // given, it keeps `accesses` alive and the history shares their subsets
  // instead of copying them (a prepared launch's plan owns the accesses of
  // every execution of it).
  void record(TaskId completion, const std::vector<RegionAccess>& accesses,
              const std::shared_ptr<const void>& owner = nullptr);
  // Records only accesses[i] for i in `which` — lets a caller holding one
  // access vector split it between two completion tasks (point vs fold)
  // without materializing per-split copies.
  void record(TaskId completion, const std::vector<RegionAccess>& accesses,
              const std::vector<size_t>& which,
              const std::shared_ptr<const void>& owner = nullptr);

  // Number of live history entries (tests).
  size_t history_size() const;

 private:
  struct Entry {
    TaskId completion = 0;
    std::shared_ptr<const rt::IndexSubset> subset;
    AccessMode mode = AccessMode::Read;
    bool privatized = false;
  };

  void record_one(TaskId completion, const RegionAccess& a,
                  const std::shared_ptr<const void>& owner);

  std::map<uint32_t, std::vector<Entry>> hist_;
  Executor* ex_;
};

}  // namespace spdistal::exec
