// Process-wide metrics registry: counters and histograms with O(1)
// lock-free hot-path updates.
//
// Instruments register a metric once (a mutex-guarded name lookup returning
// a stable reference — call sites cache it in a static) and then update it
// with a single relaxed atomic operation. Every update is gated on the
// global obs::enabled() flag, so a disabled process records nothing and the
// hot-path cost is one relaxed load. Snapshots serialize the whole registry
// as JSON ($SPDISTAL_METRICS=out.json dumps one at process exit).
//
// The registry holds only counts no subsystem keeps elsewhere (autosched.*,
// pack.*, leaf.*, kernel_select.*). Executor task counts live in
// exec::Executor::stats(), verify counts in verify::stats(), plan-cache
// outcomes in autosched::PlanCache, and simulated totals in SimReport.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace spdistal::obs {

// Master observability switch: on at start exactly when a sink is
// configured (config().trace or config().metrics, i.e. $SPDISTAL_TRACE or
// $SPDISTAL_METRICS). Programs and tests flip it with set_enabled().
bool enabled();
void set_enabled(bool on);

// Monotonic event count (additive, e.g. plan-cache hits, packed nnz).
class Counter {
 public:
  void add(int64_t d = 1) {
    if (enabled()) v_.fetch_add(d, std::memory_order_relaxed);
  }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Power-of-two bucketed histogram of non-negative samples (latencies in
// microseconds, sizes in bytes): bucket b counts samples in [2^(b-1), 2^b),
// bucket 0 counts zeros. O(1) record (one count increment + sum update).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void record(int64_t sample);
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t bucket(int b) const {
    return buckets_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// The registry. Metric objects live for the process lifetime (stable
// addresses), so call sites may cache the returned references.
class Metrics {
 public:
  static Metrics& global();

  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  // JSON snapshot of every registered metric, headed by the process's
  // configuration (config_json in common/config.h):
  //   {"config": {...}, "counters": {"name": n},
  //    "histograms": {"name": {"count": n, "sum": s, "buckets": [[lo,c]..]}}}
  std::string json() const;
  // Zeroes every value; registered handles stay valid.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Per-kernel simulated-cost aggregation (tasks, measured work, simulated
// busy seconds keyed by launch/kernel name). Owned per-Runtime — unlike the
// global registry above it is part of the deterministic SimReport surface,
// so it is plain (non-atomic) data updated only from the serialized
// retirement chain.
struct KernelStats {
  int64_t tasks = 0;
  double flops = 0;
  double bytes = 0;
  double busy_s = 0;  // simulated execution time, excluding queueing

  KernelStats& operator+=(const KernelStats& o) {
    tasks += o.tasks;
    flops += o.flops;
    bytes += o.bytes;
    busy_s += o.busy_s;
    return *this;
  }
  KernelStats operator-(const KernelStats& o) const {
    return KernelStats{tasks - o.tasks, flops - o.flops, bytes - o.bytes,
                       busy_s - o.busy_s};
  }
};

using KernelTable = std::map<std::string, KernelStats>;

}  // namespace spdistal::obs
