// Touched-bounds recording for the verify subsystem (SPDISTAL_VERIFY=1).
//
// In verify mode every point task runs with a TouchLog installed on its
// worker thread; RegionAccessor / LinearAccessor (and the per-element
// Region paths) record each coordinate they address into the log's
// per-region sink. After the body returns, the privilege checker validates
// the recorded coordinates against the point's declared RegionReq subsets —
// an in-house address sanitizer for regions.
//
// Cost contract: a recording accessor (RegionAccessor's default, which the
// co-iteration engine and the partitioning operators use) pays one relaxed
// load of touch_logging_enabled() at construction and, on every element
// access, a test of its sink, even with verification disabled. That test
// keeps a call in each inner loop, and the compiler spills the loop's state
// around it. So each leaf kernel compiles twice from one source through
// with_touch_recording below: outside verify mode it runs the plain
// accessors, whose element access is only pointer math, at the price of a
// thread-local load per leaf invocation and per accessor it constructs.
// Recording itself only happens inside verify-mode point tasks.
#pragma once

#include <atomic>
#include <cstdint>
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
// the ReadWrite default (`out[i] += ...` both reads and writes). The
// privilege checker uses the Read-tagged set to flag reads of regions held
// under write-only privileges.
enum class Access : uint8_t { Read, Write, ReadWrite };

// Per-region record of the coordinates one leaf task actually touched.
// Points are coalesced into a rect list (consecutive accesses extend the
// last rect — the common row-major walk stays one rect per run); if the
// list grows past the cap it is collapsed to the bounding box and the sink
// is marked approximate. Read-tagged touches accumulate into a second rect
// list so write-only privileges can be checked against actual reads.
class TouchSink {
 public:
  explicit TouchSink(int dim = 1) : dim_(dim) {}

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

  int dim() const { return dim_; }
  bool approximate() const { return approximate_; }
  bool reads_approximate() const { return reads_approximate_; }
  // The touched set, normalized. Exact unless approximate().
  IndexSubset touched() const;
  // Coordinates touched by explicitly Read-tagged accesses, normalized.
  // Exact unless reads_approximate().
  IndexSubset reads() const;

 private:
  int dim_ = 1;
  std::vector<RectN> rects_;
  std::vector<RectN> read_rects_;
  bool approximate_ = false;
  bool reads_approximate_ = false;
};

// All touches of one leaf task, keyed by region id.
class TouchLog {
 public:
  // The sink for `region`, created on first touch.
  TouchSink* sink(RegionId region, int dim);
  const std::map<RegionId, TouchSink>& sinks() const { return sinks_; }
  bool empty() const { return sinks_.empty(); }

 private:
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
