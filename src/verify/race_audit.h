// Dependence-graph race auditor (verify analysis 2 of 2).
//
// Re-derives the happens-before relation among a launch's point tasks from
// a brute-force O(P^2 * R^2) oracle over the requirement set — the
// privilege semantics of exec::modes_conflict applied to every point pair
// and region pair directly — and diffs it against the conflict-edge set of
// the prepared launch's plan, on every execution:
//
//   * an edge the oracle derives but the plan lacks is a RACE (two point
//     tasks may touch conflicting data unordered) -> VerifyError;
//   * an edge the plan carries but the oracle cannot justify is LOST
//     PARALLELISM (spurious serialization) -> warning.
//
// A plan's subsets cannot go stale: prepare() captures them and the
// prepared launch owns them. Its residency memo is certified at
// retirement: on every memo hit the Runtime's retire still diffs the
// point's subset against the valid set and raises report_stale_residency
// if anything is missing.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exec/dep_graph.h"
#include "runtime/index_space.h"
#include "verify/verify.h"

namespace spdistal::verify {

// One requirement of the audited launch, mode-level view (privileges
// already converted to exec::AccessMode by the caller).
struct ReqView {
  uint32_t region = 0;
  std::string region_name;
  exec::AccessMode mode = exec::AccessMode::Read;
  bool privatized = false;
};

// Everything the auditor needs about one launch, from its plan. All
// pointers are borrowed for the call.
struct AuditInput {
  std::string launch_name;
  int points = 0;
  std::vector<ReqView> reqs;
  // [point][req] — the subsets the plan captured.
  const std::vector<std::vector<rt::IndexSubset>>* subsets = nullptr;
  // Plan's conflict edges, each {p, q} with p < q.
  const std::vector<std::pair<int, int>>* edges = nullptr;
};

// The oracle's edge set for `in` (pairs {p, q}, p < q), independent of the
// plan's own derivation. Exposed for tests.
std::vector<std::pair<int, int>> oracle_edges(const AuditInput& in);

// Runs the full audit: privatization sanity, then the edge-set diff.
// Throws VerifyError on races; warnings are counted. Bumps
// verify::stats().plans_checked.
void audit_launch(const AuditInput& in);

// Raises the stale-residency violation: a warm plan's residency memo
// claimed point `point`'s subset of `region_name` valid in the point's
// memory, but `missing` is not valid there, so retire would have skipped
// a transfer the point needs.
[[noreturn]] void report_stale_residency(const std::string& launch_name,
                                         int point,
                                         const std::string& region_name,
                                         const rt::IndexSubset& missing);

}  // namespace spdistal::verify
