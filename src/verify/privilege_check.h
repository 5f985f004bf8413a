// Region-privilege checker (verify analysis 1 of 2).
//
// In verify mode every point task declares its RegionReq subsets to an
// rt::TouchLog before its body runs, and the accessors (and the per-element
// Region paths) test each coordinate they address against them as it
// happens (see runtime/touch_log.h). After the body returns,
// check_task_touches reports what escaped:
//
//   * touching a region no requirement declares -> VerifyError;
//   * touching coordinates outside every declared subset of that region
//     -> VerifyError naming the first escaped rectangles and the declared
//     subset's bounds;
//   * reading (Read-tagged accessors) coordinates of a region held under a
//     write-only privilege and no readable one -> VerifyError.
//
// Writes under read-only privileges cannot be told apart from reads at the
// accessor level (both return T&); the Runtime catches them by
// fingerprinting RO operands around the launch (content_hash) and calling
// report_ro_write on a mismatch.
#pragma once

#include <string>

#include "runtime/touch_log.h"
#include "verify/verify.h"

namespace spdistal::verify {

// Reports every escape one task's touch log kept, in one VerifyError. Bumps
// verify.tasks_checked.
void check_task_touches(const std::string& task_name, const rt::TouchLog& log);

// Raises the write-under-RO violation (called by the Runtime when a
// read-only operand's content fingerprint changed across a launch).
[[noreturn]] void report_ro_write(const std::string& launch_name,
                                  const std::string& region_name);

}  // namespace spdistal::verify
