// Verification subsystem entry points.
//
// Two analyses check at run time what compile cannot see, gated behind one
// process-wide flag (SPDISTAL_VERIFY=1, or set_enabled(true) before a
// Runtime is constructed) so the production hot path stays zero-cost.
// Schedule legality is not among them: CompiledKernel::compile raises every
// schedule error in every mode. When armed, they run on every launch:
//
//  1. Privilege checker (privilege_check.h): each point task declares its
//     RegionReq subsets to an rt::TouchLog before its body runs, every
//     accessor touch is tested against them as it happens, and the escapes
//     are reported after the body; read-only operands are fingerprinted to
//     catch writes under RO.
//  2. Dependence race auditor (race_audit.h): re-derives happens-before
//     from a brute-force O(P^2) oracle over a LaunchPlan's requirements and
//     diffs it against the plan's conflict edges on every execution.
//
// Violations raise spdistal::VerifyError (severity Error) or increment the
// warning counter (severity Warning). stats() is the one source of the
// counts; the metrics registry does not mirror them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"

namespace spdistal::verify {

// The process-wide verify switch: the same flag as
// rt::touch_logging_enabled(), so flipping it also starts or stops accessor
// recording. It starts at config().verify ($SPDISTAL_VERIFY=0|1). A Runtime
// reads it once, when it is constructed.
bool enabled();
void set_enabled(bool on);

enum class Severity { Warning, Error };

// One finding from either analysis.
struct Violation {
  Severity severity = Severity::Error;
  std::string analysis;  // "privilege" | "race_audit"
  std::string message;
};

// Running totals since process start / last reset_stats(). Always readable
// (tests assert on them); updated only while verification is enabled.
struct Stats {
  uint64_t plans_checked = 0;
  uint64_t tasks_checked = 0;
  uint64_t violations = 0;  // errors raised
  uint64_t warnings = 0;
};
Stats stats();
void reset_stats();

// Record-and-dispatch: warnings are counted (and logged to stderr once per
// distinct message); errors are counted and thrown as VerifyError.
void report(const Violation& v);
// Bumps stats().plans_checked / tasks_checked.
void note_plan_checked();
void note_task_checked();
// Counts an Error-severity finding that is not thrown on its own (one of
// several the privilege checker combines into one VerifyError).
void note_violation();

// Formats a violation list into one multi-line report string.
std::string format_report(const std::vector<Violation>& vs);

}  // namespace spdistal::verify
