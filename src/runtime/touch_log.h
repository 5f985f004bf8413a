// Per-touch privilege checks for the verify subsystem (SPDISTAL_VERIFY=1).
//
// In verify mode every point task runs with a TouchLog installed on its
// worker thread, declared with the subsets its RegionReqs grant before the
// body runs. RegionAccessor / LinearAccessor (and the per-element Region
// paths) hand each coordinate they address to the log's per-region sink,
// which tests it against the declared subset as it happens and keeps only
// what escapes. After the body returns, the privilege checker reports the
// escapes — an in-house address sanitizer for regions.
//
// Cost contract. In verify mode a touch costs one call and a binary search
// of the declared rects (a scan when they do not ascend with gaps on
// dimension 0; see IndexSubset::outside), plus a set difference only when
// no single rect holds a multi-point touch; a sink keeps two counts and at
// most kKeptEscapes rects of each kind of escape, whatever the footprint. Outside it, a recording
// accessor (RegionAccessor's default, which the co-iteration engine and
// the partitioning operators use) pays one relaxed load of
// touch_logging_enabled() at construction and, on every element access, a
// test of its null sink. That test keeps a call in each inner loop, and
// the compiler spills the loop's state around it. So each leaf kernel
// compiles twice from one source through with_touch_recording below:
// outside verify mode it runs the plain accessors, whose element access is
// only pointer math, at the price of a thread-local load per leaf
// invocation and per accessor it constructs. Touches are only checked
// inside verify-mode point tasks.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "runtime/index_space.h"

namespace spdistal::rt {

using RegionId = uint32_t;

// The process-wide verify-mode flag, consulted by accessor constructors and
// Region's per-element paths: one relaxed load. It starts at
// config().verify ($SPDISTAL_VERIFY); verify::enabled() reads the same
// flag, and verify::set_enabled() is the only caller of the setter.
bool touch_logging_enabled();
void set_touch_logging(bool on);

// Declared direction of an accessor's element accesses. C++ cannot tell a
// read from a write through a returned T&, so kernels annotate: operand
// accessors (vals/pos/crd walks) are tagged Read, output accessors stay on
// the ReadWrite default (`out[i] += ...` both reads and writes). A sink
// tests Read-tagged touches against the readable subsets too, to flag
// reads of regions held under write-only privileges.
enum class Access : uint8_t { Read, Write, ReadWrite };

// Touches of one region that broke the declaration: how many, and the
// first few escaped coordinates (consecutive escapes coalesced).
struct Escapes {
  uint64_t count = 0;
  std::vector<RectN> rects;  // at most kKeptEscapes
  bool dropped = false;      // some escaped coordinates are not in `rects`
};
inline constexpr size_t kKeptEscapes = 8;

// One point task's touches of one region, each tested against what the
// task declared as it happens. A touch outside `declared` is an escape; a
// Read-tagged touch inside it but outside `readable` (when set: some
// requirement holds the region write-only) is a read of uninitialized data.
// A sink with no declaration counts every touch as an escape.
class TouchSink {
 public:
  TouchSink(const IndexSubset* declared, const IndexSubset* readable);

  void touch1(Coord i, Access a = Access::ReadWrite) {
    RectN r;
    r.dim = 1;
    r.lo[0] = r.hi[0] = i;
    touch(r, a);
  }
  void touch2(Coord i, Coord j, Access a = Access::ReadWrite) {
    RectN r;
    r.dim = 2;
    r.lo[0] = r.hi[0] = i;
    r.lo[1] = r.hi[1] = j;
    touch(r, a);
  }
  void touch3(Coord i, Coord j, Coord k, Access a = Access::ReadWrite) {
    RectN r;
    r.dim = 3;
    r.lo[0] = r.hi[0] = i;
    r.lo[1] = r.hi[1] = j;
    r.lo[2] = r.hi[2] = k;
    touch(r, a);
  }
  // Row-major linear offset within `outer` (LinearAccessor's frame).
  void touch_linear(const RectN& outer, Coord idx,
                    Access a = Access::ReadWrite);

  void touch(const RectN& pt, Access a = Access::ReadWrite);

  const IndexSubset* declared() const { return declared_; }
  // Touches outside the declared subset.
  const Escapes& escapes() const { return escapes_; }
  // Read-tagged touches inside the declared subset but outside `readable`.
  const Escapes& write_only_reads() const { return wo_reads_; }

 private:
  static void keep(Escapes& e, const IndexSubset& part);

  const IndexSubset* declared_;
  const IndexSubset* readable_;
  Escapes escapes_;
  Escapes wo_reads_;
};

// All touches of one leaf task, keyed by region id.
class TouchLog {
 public:
  // Declares that the task holds `subset` of `region` (borrowed: it must
  // outlive the log) under a readable privilege, or a write-only one. Call
  // once per requirement, before the body runs; a region declared twice is
  // checked against the union of its subsets.
  void declare(RegionId region, const std::string& name,
               const IndexSubset& subset, bool readable);
  // The name a declaration gave `region`, or nullptr if none did.
  const std::string* name(RegionId region) const;
  // The sink for `region`, a `dim`-dimensional region, created on first
  // touch.
  TouchSink* sink(RegionId region, int dim);
  const std::map<RegionId, TouchSink>& sinks() const { return sinks_; }
  bool empty() const { return sinks_.empty(); }

 private:
  struct Declared {
    const std::string* name = nullptr;
    const IndexSubset* subset = nullptr;
    const IndexSubset* readable = nullptr;  // union of readable subsets
    bool write_only = false;  // some requirement is write-only
  };
  // `held` united with `more`: `more` itself while `held` is null, else a
  // union the log keeps.
  const IndexSubset* unite(const IndexSubset* held, const IndexSubset& more);

  std::map<RegionId, Declared> declared_;
  std::deque<IndexSubset> unions_;
  std::map<RegionId, TouchSink> sinks_;
};

// Installs `log` as the calling thread's active log for the scope (nested
// scopes restore the previous log). Used by Runtime::execute around
// verify-mode point-task bodies.
class ScopedTouchLog {
 public:
  explicit ScopedTouchLog(TouchLog* log);
  ~ScopedTouchLog();
  ScopedTouchLog(const ScopedTouchLog&) = delete;
  ScopedTouchLog& operator=(const ScopedTouchLog&) = delete;

 private:
  TouchLog* prev_ = nullptr;
};

// The calling thread's active log, or nullptr (the common case).
TouchLog* active_touch_log();

// Runs `body` with std::true_type on a thread that records touches (one with
// an active TouchLog: a verify-mode point task) and with std::false_type
// otherwise, and returns its result. A leaf calls this once per invocation
// and hands the tag to its accessors (RegionAccessor<T, DIM, tag>), so its
// body compiles twice: the recording instantiation runs in verify mode, the
// plain one everywhere else. This is the only place that picks between them.
template <typename Body>
decltype(auto) with_touch_recording(Body&& body) {
  if (active_touch_log() != nullptr) return body(std::true_type{});
  return body(std::false_type{});
}

// Raises the VerifyError of a plain accessor constructed over `region` on a
// thread that records touches: its accesses would escape the privilege check.
[[noreturn]] void refuse_unrecorded_access(const std::string& region);

}  // namespace spdistal::rt
