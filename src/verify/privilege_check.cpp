#include "verify/privilege_check.h"

#include <sstream>
#include <vector>

#include "common/str_util.h"

namespace spdistal::verify {

namespace {

// The kept escaped rects, with "..." when some were not kept.
std::string escaped_str(const rt::Escapes& e) {
  std::vector<std::string> parts;
  for (const rt::RectN& r : e.rects) parts.push_back(r.str());
  if (e.dropped) parts.emplace_back("...");
  return join(parts, ", ");
}

Violation privilege_error(std::string message) {
  Violation v;
  v.analysis = "privilege";
  v.message = std::move(message);
  return v;
}

}  // namespace

void check_task_touches(const std::string& task_name,
                        const rt::TouchLog& log) {
  note_task_checked();
  // Collect every region's escapes before reporting, so one VerifyError
  // carries the complete diagnosis for the task (throwing on the first
  // region would hide sibling violations of the same root cause).
  std::vector<Violation> found;
  for (const auto& [region, sink] : log.sinks()) {
    const std::string* name = log.name(region);
    if (name == nullptr) {
      if (sink.escapes().count == 0) continue;
      std::ostringstream os;
      os << "task `" << task_name << "` touched region id " << region
         << " which no RegionReq of the launch declares";
      found.push_back(privilege_error(os.str()));
      continue;
    }
    if (const rt::Escapes& e = sink.write_only_reads(); e.count > 0) {
      std::ostringstream os;
      os << "task `" << task_name << "` read " << *name << " at "
         << escaped_str(e) << " held under write-only privilege; a WO "
         << "instance is uninitialized until written — declare RW or stop "
            "reading";
      found.push_back(privilege_error(os.str()));
    }
    if (const rt::Escapes& e = sink.escapes(); e.count > 0) {
      const rt::IndexSubset& declared = *sink.declared();
      std::ostringstream os;
      os << "task `" << task_name << "` accessed " << *name << " at "
         << escaped_str(e) << " outside its declared subset (";
      if (declared.empty()) {
        os << "empty";
      } else {
        os << declared.rects().size()
           << (declared.rects().size() == 1 ? " rect" : " rects")
           << " within " << declared.bounds().str();
      }
      os << "); " << e.count << (e.count == 1 ? " access" : " accesses")
         << " escaped — the requirement's partition does not cover the "
            "access: widen the subset or fix the kernel's bounds";
      found.push_back(privilege_error(os.str()));
    }
  }
  if (found.size() == 1) report(found.front());
  if (found.size() > 1) {
    // One combined report: count each error, then throw with the full list.
    for (size_t i = 1; i < found.size(); ++i) note_violation();
    report(privilege_error("task `" + task_name + "` escaped " +
                           std::to_string(found.size()) +
                           " declared subsets:\n" + format_report(found)));
  }
}

void report_ro_write(const std::string& launch_name,
                     const std::string& region_name) {
  std::ostringstream os;
  os << "launch `" << launch_name << "` modified region " << region_name
     << " held under read-only privilege (content fingerprint changed "
        "across the launch); declare WO/RW or stop writing";
  report(privilege_error(os.str()));  // Severity::Error always throws
  throw VerifyError("unreachable");
}

}  // namespace spdistal::verify
