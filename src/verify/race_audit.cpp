#include "verify/race_audit.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/str_util.h"

namespace spdistal::verify {

namespace {

const char* mode_name(exec::AccessMode m) {
  switch (m) {
    case exec::AccessMode::Read: return "RO";
    case exec::AccessMode::Write: return "WO";
    case exec::AccessMode::ReadWrite: return "RW";
    case exec::AccessMode::Reduce: return "REDUCE";
  }
  return "?";
}

}  // namespace

std::vector<std::pair<int, int>> oracle_edges(const AuditInput& in) {
  const auto& subsets = *in.subsets;
  const size_t nreqs = in.reqs.size();
  std::vector<std::pair<int, int>> edges;
  for (int p = 0; p < in.points; ++p) {
    for (int q = p + 1; q < in.points; ++q) {
      bool conflict = false;
      for (size_t ra = 0; ra < nreqs && !conflict; ++ra) {
        for (size_t rb = 0; rb < nreqs && !conflict; ++rb) {
          if (in.reqs[ra].region != in.reqs[rb].region) continue;
          if (!exec::modes_conflict(in.reqs[ra].mode, in.reqs[ra].privatized,
                                    in.reqs[rb].mode,
                                    in.reqs[rb].privatized)) {
            continue;
          }
          conflict = subsets[static_cast<size_t>(p)][ra].overlaps(
              subsets[static_cast<size_t>(q)][rb]);
        }
      }
      if (conflict) edges.emplace_back(p, q);
    }
  }
  return edges;
}

void audit_launch(const AuditInput& in) {
  note_plan_checked();

  // 1. Privatization sanity: privatized accumulation is only sound under
  //    REDUCE (fold-in-color-order); a privatized write would drop data.
  for (size_t r = 0; r < in.reqs.size(); ++r) {
    if (in.reqs[r].privatized &&
        in.reqs[r].mode != exec::AccessMode::Reduce) {
      Violation v;
      v.analysis = "race_audit";
      std::ostringstream os;
      os << "launch `" << in.launch_name << "` requirement " << r << " ("
         << in.reqs[r].region_name << ") is privatized under "
         << mode_name(in.reqs[r].mode)
         << "; only REDUCE accesses may privatize";
      v.message = os.str();
      report(v);
    }
  }

  // 2. Edge diff against the brute-force oracle.
  const std::vector<std::pair<int, int>> oracle = oracle_edges(in);
  std::set<std::pair<int, int>> planned;
  if (in.edges != nullptr) {
    planned.insert(in.edges->begin(), in.edges->end());
  }
  for (const auto& e : oracle) {
    if (planned.count(e) != 0) continue;
    Violation v;
    v.analysis = "race_audit";
    std::ostringstream os;
    os << "RACE in launch `" << in.launch_name << "`: points " << e.first
       << " and " << e.second
       << " have conflicting accesses (privilege semantics require a "
          "happens-before edge) but the plan's conflict-edge set does not "
          "order them";
    v.message = os.str();
    report(v);  // throws (Error)
  }
  std::set<std::pair<int, int>> oracle_set(oracle.begin(), oracle.end());
  for (const auto& e : planned) {
    if (oracle_set.count(e) != 0) continue;
    Violation v;
    v.severity = Severity::Warning;
    v.analysis = "race_audit";
    std::ostringstream os;
    os << "launch `" << in.launch_name << "`: plan serializes points "
       << e.first << " and " << e.second
       << " but no requirement pair conflicts — lost parallelism "
          "(spurious conflict edge)";
    v.message = os.str();
    report(v);
  }
}

void report_stale_residency(const std::string& launch_name, int point,
                            const std::string& region_name,
                            const rt::IndexSubset& missing) {
  const std::string gap = missing.str();
  Violation v;
  v.analysis = "race_audit";
  v.message = strprintf(
      "launch `%s` point %d: the plan's residency memo holds region %s "
      "resident in the point's memory, but %s is not valid there — the "
      "retire would skip a needed transfer",
      launch_name.c_str(), point, region_name.c_str(), gap.c_str());
  report(v);  // Severity::Error always throws
  throw VerifyError("unreachable");
}

}  // namespace spdistal::verify
