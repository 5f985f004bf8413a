#include "runtime/index_space.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "common/str_util.h"

namespace spdistal::rt {

RectN::RectN(std::initializer_list<Coord> los, std::initializer_list<Coord> his) {
  SPD_ASSERT(los.size() == his.size() && los.size() >= 1 &&
                 los.size() <= static_cast<size_t>(kMaxDim),
             "RectN: bad initializer sizes");
  dim = static_cast<int>(los.size());
  hi.fill(-1);
  std::copy(los.begin(), los.end(), lo.begin());
  std::copy(his.begin(), his.end(), hi.begin());
}

RectN RectN::make1(Coord l, Coord h) { return RectN({l}, {h}); }
RectN RectN::make2(Coord l0, Coord h0, Coord l1, Coord h1) {
  return RectN({l0, l1}, {h0, h1});
}
RectN RectN::make3(Coord l0, Coord h0, Coord l1, Coord h1, Coord l2, Coord h2) {
  return RectN({l0, l1, l2}, {h0, h1, h2});
}

bool RectN::empty() const {
  for (int d = 0; d < dim; ++d) {
    if (lo[d] > hi[d]) return true;
  }
  return false;
}

int64_t RectN::volume() const {
  if (empty()) return 0;
  int64_t v = 1;
  for (int d = 0; d < dim; ++d) v *= hi[d] - lo[d] + 1;
  return v;
}

bool RectN::contains(const RectN& r) const {
  if (r.empty()) return true;
  if (empty()) return false;
  SPD_ASSERT(dim == r.dim, "RectN::contains: dim mismatch");
  for (int d = 0; d < dim; ++d) {
    if (lo[d] > r.lo[d] || hi[d] < r.hi[d]) return false;
  }
  return true;
}

bool RectN::contains_point(const std::array<Coord, kMaxDim>& p) const {
  for (int d = 0; d < dim; ++d) {
    if (p[d] < lo[d] || p[d] > hi[d]) return false;
  }
  return true;
}

bool RectN::overlaps(const RectN& r) const {
  if (empty() || r.empty()) return false;
  SPD_ASSERT(dim == r.dim, "RectN::overlaps: dim mismatch");
  for (int d = 0; d < dim; ++d) {
    if (lo[d] > r.hi[d] || r.lo[d] > hi[d]) return false;
  }
  return true;
}

RectN RectN::intersect(const RectN& r) const {
  SPD_ASSERT(dim == r.dim, "RectN::intersect: dim mismatch");
  RectN out;
  out.dim = dim;
  for (int d = 0; d < dim; ++d) {
    out.lo[d] = std::max(lo[d], r.lo[d]);
    out.hi[d] = std::min(hi[d], r.hi[d]);
  }
  return out;
}

bool RectN::operator==(const RectN& r) const {
  if (dim != r.dim) return false;
  if (empty() && r.empty()) return true;
  for (int d = 0; d < dim; ++d) {
    if (lo[d] != r.lo[d] || hi[d] != r.hi[d]) return false;
  }
  return true;
}

std::string RectN::str() const {
  std::string s = "[";
  for (int d = 0; d < dim; ++d) {
    if (d) s += ",";
    s += strprintf("%lld..%lld", static_cast<long long>(lo[d]),
                   static_cast<long long>(hi[d]));
  }
  return s + "]";
}

namespace {

// Indices of `rects` in ascending order of their dimension-0 lo; equal
// starts keep their stored order.
std::vector<uint32_t> by_lo0(const std::vector<RectN>& rects) {
  std::vector<uint32_t> order(rects.size());
  std::iota(order.begin(), order.end(), 0u);
  const auto lo0 = [&rects](uint32_t a, uint32_t b) {
    return rects[a].lo[0] < rects[b].lo[0];
  };
  if (!std::is_sorted(order.begin(), order.end(), lo0)) {
    std::stable_sort(order.begin(), order.end(), lo0);
  }
  return order;
}

// Calls visit(i, j) for every overlapping pair (a[i], b[j]), found by one
// sweep over dimension 0: each rectangle is tested only against the other
// list's rectangles whose dim-0 intervals are live where it starts. On
// slab sets (disjoint dim-0 intervals) that is O(n + m) plus the sort of
// an unsorted operand. Stops, and returns true, as soon as visit does.
template <typename Visit>
bool sweep_pairs(const std::vector<RectN>& a, const std::vector<RectN>& b,
                 Visit visit) {
  const std::vector<uint32_t> oa = by_lo0(a);
  const std::vector<uint32_t> ob = by_lo0(b);
  std::vector<uint32_t> live_a, live_b;
  size_t i = 0, j = 0;
  while (i < oa.size() || j < ob.size()) {
    const bool from_a =
        j == ob.size() || (i < oa.size() && a[oa[i]].lo[0] <= b[ob[j]].lo[0]);
    if (from_a) {
      const uint32_t k = oa[i++];
      std::erase_if(live_b,
                    [&](uint32_t t) { return b[t].hi[0] < a[k].lo[0]; });
      for (uint32_t t : live_b) {
        if (a[k].overlaps(b[t]) && visit(k, t)) return true;
      }
      live_a.push_back(k);
    } else {
      const uint32_t k = ob[j++];
      std::erase_if(live_a,
                    [&](uint32_t t) { return a[t].hi[0] < b[k].lo[0]; });
      for (uint32_t t : live_a) {
        if (a[t].overlaps(b[k]) && visit(t, k)) return true;
      }
      live_b.push_back(k);
    }
  }
  return false;
}

}  // namespace

bool IndexSubset::empty() const {
  for (const auto& r : rects_) {
    if (!r.empty()) return false;
  }
  return true;
}

int64_t IndexSubset::volume() const {
  // Valid only post-normalize (rects disjoint).
  int64_t v = 0;
  for (const auto& r : rects_) v += r.volume();
  return v;
}

void IndexSubset::add(const RectN& r) {
  if (r.empty()) return;
  SPD_ASSERT(rects_.empty() || r.dim == dim_, "IndexSubset::add: dim mismatch");
  dim_ = r.dim;
  if (!rects_.empty() && r.lo[0] <= rects_.back().hi[0] + 1) {
    canonical_ = false;
  }
  rects_.push_back(r);
}

void IndexSubset::normalize() {
  // A canonical subset needs nothing: in 1-D that is the normal form, and
  // in N-D it means the rectangles are ascending and separated on
  // dimension 0, so none can contain or repeat another.
  if (rects_.empty() || canonical_) return;
  if (dim_ == 1) {
    std::sort(rects_.begin(), rects_.end(),
              [](const RectN& a, const RectN& b) { return a.lo[0] < b.lo[0]; });
    std::vector<RectN> out;
    out.reserve(rects_.size());
    for (const auto& r : rects_) {
      if (!out.empty() && r.lo[0] <= out.back().hi[0] + 1) {
        out.back().hi[0] = std::max(out.back().hi[0], r.hi[0]);
      } else {
        out.push_back(r);
      }
    }
    rects_ = std::move(out);
    canonical_ = true;
    return;
  }
  // N-D: drop every rectangle strictly contained in another, and every
  // repeat of an earlier one; the survivors keep their order. Exact
  // disjointness is not required by any N-D client (dense partitions are
  // disjoint rects by construction), so containment pruning suffices.
  // A container starts no later and ends no earlier on dimension 0, so a
  // sweep over dimension 0 compares each rectangle only with those whose
  // dim-0 intervals are live where it starts.
  const std::vector<uint32_t> order = by_lo0(rects_);
  std::vector<char> drop(rects_.size(), 0);
  std::vector<uint32_t> live;
  for (size_t g = 0; g < order.size();) {
    // Every rectangle starting at x joins the live set before any of them
    // is tested, so equal starts see each other.
    const Coord x = rects_[order[g]].lo[0];
    size_t e = g;
    while (e < order.size() && rects_[order[e]].lo[0] == x) ++e;
    std::erase_if(live, [&](uint32_t k) { return rects_[k].hi[0] < x; });
    live.insert(live.end(), order.begin() + static_cast<ptrdiff_t>(g),
                order.begin() + static_cast<ptrdiff_t>(e));
    for (; g < e; ++g) {
      const uint32_t i = order[g];
      for (uint32_t k : live) {
        if (k == i) continue;
        const RectN& o = rects_[k];
        if (o == rects_[i] ? k < i : o.contains(rects_[i])) {
          drop[i] = 1;
          break;
        }
      }
    }
  }
  std::vector<RectN> out;
  for (size_t i = 0; i < rects_.size(); ++i) {
    if (!drop[i]) out.push_back(rects_[i]);
  }
  rects_ = std::move(out);
}

const IndexSubset& IndexSubset::canonical(IndexSubset& tmp) const {
  if (canonical_) return *this;
  tmp = *this;
  tmp.normalize();
  return tmp;
}

bool IndexSubset::contains_point(const std::array<Coord, kMaxDim>& p) const {
  for (const auto& r : rects_) {
    if (r.contains_point(p)) return true;
  }
  return false;
}

bool IndexSubset::contains_point1(Coord p) const {
  return outside(RectN::make1(p, p)).empty();
}

IndexSubset IndexSubset::outside(const RectN& r) const {
  if (canonical_) {
    // The rectangles ascend with gaps on dimension 0, so only the last one
    // starting at or before r can hold it, and none is held across a gap.
    auto it = std::upper_bound(
        rects_.begin(), rects_.end(), r.lo[0],
        [](Coord v, const RectN& s) { return v < s.lo[0]; });
    if (it != rects_.begin() && std::prev(it)->contains(r)) {
      return IndexSubset(r.dim);
    }
  } else {
    for (const RectN& s : rects_) {
      if (s.contains(r)) return IndexSubset(r.dim);
    }
  }
  // No rectangle holds r alone: one point is outside, and a larger r may
  // be held by several rectangles together.
  return r.volume() == 1 ? IndexSubset(r) : IndexSubset(r).subtract(*this);
}

IndexSubset IndexSubset::intersect(const RectN& r) const {
  IndexSubset out(dim_);
  if (dim_ == 1 && canonical_) {
    // Only the intervals from the first one ending at or after r.lo up to
    // the last one starting at or before r.hi can meet r.
    auto it = std::lower_bound(
        rects_.begin(), rects_.end(), r.lo[0],
        [](const RectN& s, Coord v) { return s.hi[0] < v; });
    for (; it != rects_.end() && it->lo[0] <= r.hi[0]; ++it) {
      out.add(it->intersect(r));
    }
    return out;
  }
  for (const auto& s : rects_) {
    RectN i = s.intersect(r);
    if (!i.empty()) out.add(i);
  }
  out.normalize();
  return out;
}

// The 1-D sweeps below walk two canonical interval lists in ascending
// order with one cursor each; every step retires an interval of one list,
// so each runs in O(n + m). Canonical inputs give canonical outputs: the
// pieces come out in ascending order, and two consecutive pieces are
// always separated by a gap of one operand.

IndexSubset IndexSubset::intersect(const IndexSubset& o) const {
  IndexSubset out(dim_);
  if (sweepable(o)) {
    IndexSubset ta, tb;
    const auto& a = canonical(ta).rects_;
    const auto& b = o.canonical(tb).rects_;
    out.rects_.reserve(a.size() + b.size());
    for (size_t i = 0, j = 0; i < a.size() && j < b.size();) {
      const Coord lo = std::max(a[i].lo[0], b[j].lo[0]);
      const Coord hi = std::min(a[i].hi[0], b[j].hi[0]);
      if (lo <= hi) out.rects_.push_back(RectN(Rect1{lo, hi}));
      // Retire whichever interval ends first: it cannot meet anything
      // later in the other list.
      if (a[i].hi[0] < b[j].hi[0]) {
        ++i;
      } else {
        ++j;
      }
    }
    return out;
  }
  // N-D: the overlapping pairs, emitted in the order of the all-pairs scan
  // (o's rectangles outer, this subset's inner), then pruned.
  std::vector<std::pair<uint32_t, uint32_t>> pairs;  // (o index, this index)
  sweep_pairs(rects_, o.rects_, [&pairs](uint32_t i, uint32_t j) {
    pairs.emplace_back(j, i);
    return false;
  });
  if (!std::is_sorted(pairs.begin(), pairs.end())) {
    std::sort(pairs.begin(), pairs.end());
  }
  for (const auto& [j, i] : pairs) out.add(rects_[i].intersect(o.rects_[j]));
  out.normalize();
  return out;
}

IndexSubset IndexSubset::unite(const IndexSubset& o) const {
  if (sweepable(o)) {
    IndexSubset ta, tb;
    const auto& a = canonical(ta).rects_;
    const auto& b = o.canonical(tb).rects_;
    IndexSubset out(1);
    out.rects_.reserve(a.size() + b.size());
    size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
      // Next interval in ascending lo order; fold it into the last output
      // interval when they overlap or touch.
      const bool from_a =
          j == b.size() || (i < a.size() && a[i].lo[0] <= b[j].lo[0]);
      const RectN& r = from_a ? a[i++] : b[j++];
      if (!out.rects_.empty() && r.lo[0] <= out.rects_.back().hi[0] + 1) {
        Coord& hi = out.rects_.back().hi[0];
        hi = std::max(hi, r.hi[0]);
      } else {
        out.rects_.push_back(r);
      }
    }
    return out;
  }
  IndexSubset out = *this;
  for (const auto& r : o.rects_) out.add(r);
  out.normalize();
  return out;
}

namespace {
// Subtracts rectangle `b` from rectangle `a`, appending the (disjoint)
// remainder pieces to `out`. Standard axis-by-axis slab decomposition:
// at most 2*dim pieces.
void rect_subtract(const RectN& a, const RectN& b, std::vector<RectN>& out) {
  if (!a.overlaps(b)) {
    if (!a.empty()) out.push_back(a);
    return;
  }
  RectN rem = a;  // shrinking remainder that still intersects b
  for (int d = 0; d < a.dim; ++d) {
    if (rem.lo[d] < b.lo[d]) {
      RectN below = rem;
      below.hi[d] = b.lo[d] - 1;
      if (!below.empty()) out.push_back(below);
      rem.lo[d] = b.lo[d];
    }
    if (rem.hi[d] > b.hi[d]) {
      RectN above = rem;
      above.lo[d] = b.hi[d] + 1;
      if (!above.empty()) out.push_back(above);
      rem.hi[d] = b.hi[d];
    }
  }
  // What's left of rem is fully inside b: dropped.
}
}  // namespace

IndexSubset IndexSubset::subtract(const IndexSubset& o) const {
  if (sweepable(o)) {
    IndexSubset ta, tb;
    const auto& a = canonical(ta).rects_;
    const auto& b = o.canonical(tb).rects_;
    IndexSubset out(1);
    out.rects_.reserve(a.size() + b.size());
    size_t j = 0;  // first interval of b that can still meet a[i]
    for (const RectN& ai : a) {
      while (j < b.size() && b[j].hi[0] < ai.lo[0]) ++j;
      Coord lo = ai.lo[0];  // start of the part of ai not yet removed
      // b[j] may reach past ai into the next interval of a, so the cursor
      // only moves past intervals that end inside ai.
      for (size_t k = j; k < b.size() && b[k].lo[0] <= ai.hi[0]; ++k) {
        if (b[k].lo[0] > lo) {
          out.rects_.push_back(RectN(Rect1{lo, b[k].lo[0] - 1}));
        }
        lo = std::max(lo, b[k].hi[0] + 1);
        if (b[k].hi[0] >= ai.hi[0]) break;
        j = k + 1;
      }
      if (lo <= ai.hi[0]) out.rects_.push_back(RectN(Rect1{lo, ai.hi[0]}));
    }
    return out;
  }
  std::vector<RectN> cur(rects_);
  for (const auto& b : o.rects()) {
    std::vector<RectN> next;
    for (const auto& a : cur) rect_subtract(a, b, next);
    cur = std::move(next);
    if (cur.empty()) break;
  }
  IndexSubset out(dim_);
  for (const auto& r : cur) out.add(r);
  out.normalize();
  return out;
}

bool IndexSubset::overlaps(const IndexSubset& o) const {
  if (sweepable(o)) {
    IndexSubset ta, tb;
    const auto& a = canonical(ta).rects_;
    const auto& b = o.canonical(tb).rects_;
    if (a.empty() || b.empty() || a.back().hi[0] < b.front().lo[0] ||
        b.back().hi[0] < a.front().lo[0]) {
      return false;
    }
    for (size_t i = 0, j = 0; i < a.size() && j < b.size();) {
      if (a[i].hi[0] < b[j].lo[0]) {
        ++i;
      } else if (b[j].hi[0] < a[i].lo[0]) {
        ++j;
      } else {
        return true;
      }
    }
    return false;
  }
  return sweep_pairs(rects_, o.rects_,
                     [](uint32_t, uint32_t) { return true; });
}

bool IndexSubset::contains(const IndexSubset& o) const {
  if (sweepable(o)) {
    IndexSubset ta, tb;
    const auto& a = canonical(ta).rects_;
    const auto& b = o.canonical(tb).rects_;
    // In canonical form no two intervals of `a` touch, so each interval of
    // `b` must lie inside a single interval of `a`.
    size_t i = 0;
    for (const RectN& bj : b) {
      while (i < a.size() && a[i].hi[0] < bj.lo[0]) ++i;
      if (i == a.size() || a[i].lo[0] > bj.lo[0] || a[i].hi[0] < bj.hi[0]) {
        return false;
      }
    }
    return true;
  }
  return o.subtract(*this).empty();
}

RectN IndexSubset::bounds() const {
  SPD_ASSERT(!rects_.empty(), "IndexSubset::bounds on empty subset");
  RectN b = rects_.front();
  for (const auto& r : rects_) {
    for (int d = 0; d < dim_; ++d) {
      b.lo[d] = std::min(b.lo[d], r.lo[d]);
      b.hi[d] = std::max(b.hi[d], r.hi[d]);
    }
  }
  return b;
}

std::string IndexSubset::str() const {
  std::vector<std::string> parts;
  parts.reserve(rects_.size());
  for (const auto& r : rects_) parts.push_back(r.str());
  // Built with append: GCC 12 at -O3 misreads `"{" + s + "}"` as an
  // overlapping memcpy and warns (-Wrestrict).
  std::string out = "{";
  out.append(join(parts, ", ")).append(1, '}');
  return out;
}

int64_t linearize(const RectN& bounds, const std::array<Coord, kMaxDim>& p) {
  int64_t idx = 0;
  for (int d = 0; d < bounds.dim; ++d) {
    idx = idx * (bounds.hi[d] - bounds.lo[d] + 1) + (p[d] - bounds.lo[d]);
  }
  return idx;
}

}  // namespace spdistal::rt
