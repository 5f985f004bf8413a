// Profile-guided cost calibration: the measure->learn->schedule loop.
//
// Leaf point tasks measured by the executor (wall-clock around the body)
// feed per-(kernel, processor-kind) rate estimates — wall seconds per flop
// and per byte — into this store. The auto-scheduler's analytic cost model
// consults the learned rates when pricing candidates (exact kernel match,
// else a per-proc-kind blend over every kernel measured on that processor
// kind, else the static flops/bytes-per-nnz tables), closing the loop the
// ROADMAP flags as the cost engine's weakest link.
//
// Robustness: each sample updates an EWMA with an outlier clamp (a sample
// more than kClampFactor away from the current estimate is clamped before
// blending), so one cold-cache or preempted leaf cannot wreck the estimate.
//
// Persistence: $SPDISTAL_CALIB=path loads the file at startup (counting
// calib.loaded_rates) and at process exit re-reads it, merges the samples
// concurrent writers added since startup samples-weighted, and atomically
// rewrites (tmp file + rename) — so concurrent processes sharing one file
// lose at most one process's samples, never the file's integrity. Documents
// are read through json::parse: one that is not JSON (truncated, or with a
// `nan` rate) or has another schema version merges nothing, and an entry
// with a negative or missing rate, or a `samples` count that is not an
// integer in [1, 2^53], is skipped alone.
//
// Cost contract: with calibration disabled, record() is one relaxed atomic
// load. set_calibration(false) forces the cost model onto the static path,
// keeping searched-schedule determinism tests exact.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <map>

namespace spdistal::obs {

// Process-wide calibration switch. Resolved on first query: on iff
// config().calib ($SPDISTAL_CALIB) names a file, which is then loaded.
// Tests flip it with set_calibration().
bool calibration_enabled();
void set_calibration(bool on);

// Learned rates for one (kernel, proc-kind) pair, in wall seconds.
struct CalibRates {
  double wall_per_flop = 0;
  double wall_per_byte = 0;
  uint64_t samples = 0;
};

class Calibration {
 public:
  static Calibration& global();

  // Records one measured leaf: `kernel` is the launch name ("spmv_nz"),
  // `proc_kind` the processor-kind name ("CPU"/"GPU"). Gated on
  // calibration_enabled() — one relaxed load when off.
  void record(const char* kernel, const char* proc_kind, double flops,
              double bytes, double wall_s);

  // Exact (kernel, proc-kind) lookup.
  std::optional<CalibRates> lookup(const std::string& kernel,
                                   const std::string& proc_kind) const;
  // The three-tier lookup the cost model uses: exact `family` key, else a
  // samples-weighted blend over kernels whose name starts with `family`
  // (case-insensitive: family "SpMV" matches leaves "spmv_row"/"spmv_nz"),
  // else a blend over everything measured on `proc_kind`. Empty optional
  // when nothing was measured on that processor kind.
  std::optional<CalibRates> lookup_family(const std::string& family,
                                          const std::string& proc_kind) const;

  // Number of (kernel, proc-kind) entries currently held.
  size_t size() const;
  // Total samples recorded across all entries (BM_CalibOverhead's off-mode
  // contract assertion reads this).
  uint64_t total_samples() const;
  // Drops every learned rate (tests).
  void clear();

  // Versioned JSON: {"version": 1, "rates": {"kernel|KIND": {...}, ...}}.
  std::string json() const;
  // Merges `rates` samples-weighted into this store; returns their count.
  size_t merge(const std::map<std::string, CalibRates>& rates);
  // Parses `doc` and merges its rates. Returns the number of rate entries
  // merged (0 for a rejected document).
  size_t merge_json(const std::string& doc);

  // File I/O. load() merges the file into the store; save() writes
  // atomically (tmp + rename). Both return false on I/O failure.
  bool load(const std::string& path);
  bool save(const std::string& path) const;

 private:
  Calibration();

  mutable std::mutex mu_;
  std::map<std::string, CalibRates> rates_;  // "kernel|KIND" keyed
};

}  // namespace spdistal::obs
