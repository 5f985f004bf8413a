// The persistent plan service: serialization and file IO for the global
// PlanCache, so thousands of sibling processes compiling the same handful
// of (expression, format, machine, sparsity) shapes pay for one search.
//
// Configured by (common/config.h):
//   SPDISTAL_PLAN_STORE=path  load the store into the cache at first use
//                             (entries marked from_store), merge + rewrite
//                             it atomically at exit. A warm process then
//                             compiles with zero searches.
//
// The on-disk document is versioned JSON (schema v2; v1 documents still
// load), read through json::parse. A document that is not JSON, is not an
// object, or has an unknown version is rejected wholesale (never partially
// applied); an entry with a missing or mistyped field, a count outside int
// range, an unparsable sig or an unknown unit is skipped alone; unknown
// fields are ignored. Writers re-read, union, and tmp+rename so concurrent
// processes sharing one file lose no entries.
#pragma once

#include <string>
#include <vector>

#include "autosched/cache.h"

namespace spdistal::autosched {

// Process-wide switch for the plan service (stored entries and the
// exit-time save). The first call loads config().plan_store, if set.
// set_plan_store(false) restores bit-identical searched schedules: only
// plans searched in this process are served, exactly.
bool plan_store_enabled();
void set_plan_store(bool on);

// Versioned JSON codec. parse_plan_store returns an empty vector for a
// rejected document and drops unusable entries (see above).
std::string plan_store_json(const std::vector<StoredPlan>& entries);
std::vector<StoredPlan> parse_plan_store(const std::string& doc);

// Loads `path` into PlanCache::global() (entries marked from_store; already
// -present keys are kept). Returns the number of entries merged in; 0 for a
// missing, corrupt, or version-mismatched file.
size_t load_plan_store(const std::string& path);

// Re-reads `path`, unions it with the in-memory entries (in-memory wins on
// key collisions, disk-only entries from concurrent writers ride along),
// and rewrites atomically.
bool save_plan_store(const std::string& path);

}  // namespace spdistal::autosched
