#include "runtime/touch_log.h"

#include "common/config.h"
#include "common/error.h"

namespace spdistal::rt {

namespace {

// The verify-mode flag (see touch_logging_enabled in the header).
std::atomic<bool> g_touch_logging{config().verify};

thread_local TouchLog* tls_touch_log = nullptr;

// Rect-list cap before a sink collapses to its bounding box. Large enough
// that structured sparse walks stay exact; small enough that pathological
// scatter patterns cannot blow up verify-mode memory.
constexpr size_t kMaxRects = 4096;

// Tries to grow `last` by one point `pt` along a single dimension (the
// common stride-1 walk). Returns false if pt is not adjacent.
bool extend(RectN& last, const RectN& pt) {
  if (last.contains(pt)) return true;
  int grow_dim = -1;
  for (int d = 0; d < pt.dim; ++d) {
    if (pt.lo[d] >= last.lo[d] && pt.hi[d] <= last.hi[d]) continue;
    if (grow_dim >= 0) return false;  // differs in two dims: not adjacent
    grow_dim = d;
  }
  if (grow_dim < 0) return true;
  if (pt.lo[grow_dim] == last.hi[grow_dim] + 1) {
    last.hi[grow_dim] = pt.hi[grow_dim];
    return true;
  }
  if (pt.hi[grow_dim] == last.lo[grow_dim] - 1) {
    last.lo[grow_dim] = pt.lo[grow_dim];
    return true;
  }
  return false;
}

}  // namespace

bool touch_logging_enabled() {
  return g_touch_logging.load(std::memory_order_relaxed);
}

void set_touch_logging(bool on) {
  g_touch_logging.store(on, std::memory_order_relaxed);
}

void TouchSink::touch_linear(const RectN& outer, Coord idx, Access a) {
  // Delinearize the row-major offset back into outer's frame so the
  // recorded coordinates compare against RegionReq subsets directly.
  RectN pt;
  pt.dim = outer.dim;
  Coord rem = idx;
  for (int d = outer.dim - 1; d >= 0; --d) {
    Coord extent = outer.hi[d] - outer.lo[d] + 1;
    if (extent <= 0) extent = 1;
    pt.lo[d] = pt.hi[d] = outer.lo[d] + rem % extent;
    rem /= extent;
  }
  touch(pt, a);
}

namespace {

// Shared coalesce-or-collapse step for both rect lists.
void add_rect(std::vector<RectN>& rects, bool& approximate, int dim,
              const RectN& pt) {
  if (!rects.empty() && extend(rects.back(), pt)) return;
  rects.push_back(pt);
  if (rects.size() > kMaxRects) {
    IndexSubset s(dim);
    for (const RectN& r : rects) s.add(r);
    s.normalize();
    if (s.rects().size() > kMaxRects / 2) {
      RectN box = s.bounds();
      rects.assign(1, box);
      approximate = true;
    } else {
      rects.assign(s.rects().begin(), s.rects().end());
    }
  }
}

}  // namespace

void TouchSink::touch(const RectN& pt, Access a) {
  dim_ = pt.dim;
  add_rect(rects_, approximate_, dim_, pt);
  if (a == Access::Read) {
    add_rect(read_rects_, reads_approximate_, dim_, pt);
  }
}

IndexSubset TouchSink::touched() const {
  IndexSubset s(dim_);
  for (const RectN& r : rects_) s.add(r);
  s.normalize();
  return s;
}

IndexSubset TouchSink::reads() const {
  IndexSubset s(dim_);
  for (const RectN& r : read_rects_) s.add(r);
  s.normalize();
  return s;
}

TouchSink* TouchLog::sink(RegionId region, int dim) {
  auto it = sinks_.find(region);
  if (it == sinks_.end()) it = sinks_.emplace(region, TouchSink(dim)).first;
  return &it->second;
}

ScopedTouchLog::ScopedTouchLog(TouchLog* log) : prev_(tls_touch_log) {
  tls_touch_log = log;
}

ScopedTouchLog::~ScopedTouchLog() { tls_touch_log = prev_; }

TouchLog* active_touch_log() { return tls_touch_log; }

void refuse_unrecorded_access(const std::string& region) {
  throw VerifyError("verify(touch): a plain accessor over " + region +
                    " was constructed while this thread records touches; "
                    "leaves pick the recording accessor through "
                    "rt::with_touch_recording");
}

}  // namespace spdistal::rt
