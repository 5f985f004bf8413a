#include "runtime/touch_log.h"

#include <algorithm>

#include "common/config.h"
#include "common/error.h"

namespace spdistal::rt {

namespace {

// The verify-mode flag (see touch_logging_enabled in the header).
std::atomic<bool> g_touch_logging{config().verify};

thread_local TouchLog* tls_touch_log = nullptr;

// Grows `last` to cover `r` too when their union is a rect: equal in every
// dimension but one, and touching or overlapping in that one.
bool merge(RectN& last, const RectN& r) {
  int grow = -1;
  for (int d = 0; d < r.dim; ++d) {
    if (r.lo[d] == last.lo[d] && r.hi[d] == last.hi[d]) continue;
    if (grow >= 0) return false;
    grow = d;
  }
  if (grow < 0) return true;
  if (r.lo[grow] > last.hi[grow] + 1 || r.hi[grow] + 1 < last.lo[grow]) {
    return false;
  }
  last.lo[grow] = std::min(last.lo[grow], r.lo[grow]);
  last.hi[grow] = std::max(last.hi[grow], r.hi[grow]);
  return true;
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

TouchSink::TouchSink(const IndexSubset* declared, const IndexSubset* readable)
    : declared_(declared), readable_(readable) {}

void TouchSink::keep(Escapes& e, const IndexSubset& part) {
  if (part.empty()) return;
  ++e.count;
  for (const RectN& r : part.rects()) {
    if (!e.rects.empty() && merge(e.rects.back(), r)) continue;
    if (e.rects.size() < kKeptEscapes) {
      e.rects.push_back(r);
    } else {
      e.dropped = true;
    }
  }
}

void TouchSink::touch(const RectN& pt, Access a) {
  const IndexSubset escaped =
      declared_ == nullptr ? IndexSubset(pt) : declared_->outside(pt);
  keep(escapes_, escaped);
  if (a != Access::Read || readable_ == nullptr) return;
  // A read of data the task holds write-only: the part of the touch inside
  // the declaration but outside every readable subset.
  const IndexSubset unread = readable_->outside(pt);
  if (unread.empty()) return;
  keep(wo_reads_, escaped.empty() ? unread : unread.subtract(escaped));
}

void TouchLog::declare(RegionId region, const std::string& name,
                       const IndexSubset& subset, bool readable) {
  Declared& d = declared_[region];
  d.name = &name;
  d.subset = unite(d.subset, subset);
  if (readable) {
    d.readable = unite(d.readable, subset);
  } else {
    d.write_only = true;
  }
}

const IndexSubset* TouchLog::unite(const IndexSubset* held,
                                   const IndexSubset& more) {
  if (held == nullptr) return &more;
  unions_.push_back(held->unite(more));
  return &unions_.back();
}

const std::string* TouchLog::name(RegionId region) const {
  const auto it = declared_.find(region);
  return it == declared_.end() ? nullptr : it->second.name;
}

TouchSink* TouchLog::sink(RegionId region, int dim) {
  auto it = sinks_.find(region);
  if (it != sinks_.end()) return &it->second;
  const auto d = declared_.find(region);
  if (d == declared_.end()) {
    return &sinks_.try_emplace(region, nullptr, nullptr).first->second;
  }
  const Declared& decl = d->second;
  const IndexSubset* readable = decl.write_only ? decl.readable : nullptr;
  if (decl.write_only && readable == nullptr) {
    // Held write-only and never readable: every read is of unwritten data.
    readable = &unions_.emplace_back(dim);
  }
  return &sinks_.try_emplace(region, decl.subset, readable).first->second;
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
