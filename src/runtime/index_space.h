// Index spaces: the foundation of the Legion-like runtime substrate.
//
// An index space names a set of multi-dimensional coordinates (paper §III-A).
// Dense index spaces are rectangles; partition operations produce possibly
// irregular subsets which we represent as unions of rectangles (coalesced
// interval lists in the common 1-D case).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace spdistal::rt {

using Coord = int64_t;

// Maximum tensor order supported by the N-D machinery. The paper evaluates
// up to 3-tensors; 4 leaves room for fused dimensions.
inline constexpr int kMaxDim = 4;

// Inclusive 1-D interval [lo, hi]. Empty iff lo > hi.
struct Rect1 {
  Coord lo = 0;
  Coord hi = -1;

  bool empty() const { return lo > hi; }
  Coord size() const { return empty() ? 0 : hi - lo + 1; }
  bool contains(Coord p) const { return p >= lo && p <= hi; }
  bool contains(const Rect1& r) const {
    return r.empty() || (lo <= r.lo && r.hi <= hi);
  }
  bool overlaps(const Rect1& r) const {
    return !empty() && !r.empty() && lo <= r.hi && r.lo <= hi;
  }
  Rect1 intersect(const Rect1& r) const {
    return Rect1{lo > r.lo ? lo : r.lo, hi < r.hi ? hi : r.hi};
  }
  bool operator==(const Rect1& r) const = default;
};

// Inclusive N-D rectangle (product of per-dimension intervals).
struct RectN {
  int dim = 1;
  std::array<Coord, kMaxDim> lo{};
  std::array<Coord, kMaxDim> hi{};

  RectN() { hi.fill(-1); }
  explicit RectN(Rect1 r) : dim(1) {
    lo[0] = r.lo;
    hi[0] = r.hi;
  }
  RectN(std::initializer_list<Coord> los, std::initializer_list<Coord> his);

  static RectN make1(Coord lo, Coord hi);
  static RectN make2(Coord lo0, Coord hi0, Coord lo1, Coord hi1);
  static RectN make3(Coord lo0, Coord hi0, Coord lo1, Coord hi1, Coord lo2,
                     Coord hi2);

  bool empty() const;
  // Number of points; 0 if empty.
  int64_t volume() const;
  Rect1 dim_rect(int d) const { return Rect1{lo[d], hi[d]}; }
  bool contains(const RectN& r) const;
  bool contains_point(const std::array<Coord, kMaxDim>& p) const;
  bool overlaps(const RectN& r) const;
  RectN intersect(const RectN& r) const;
  bool operator==(const RectN& r) const;
  std::string str() const;
};

// A set of coordinates represented as a union of rectangles.
//
// Invariant after normalize(): in 1-D, rectangles are sorted by lo,
// disjoint and maximally coalesced (no two intervals touch). That 1-D form
// is canonical (one representation per point set), and every 1-D operation
// below that returns a subset returns it in canonical form. In N-D,
// normalize() drops rectangles contained in another and repeats, keeping
// the survivors' order; a subset whose rectangles were added ascending and
// separated on dimension 0 (row slabs) is already normalized.
//
// Cost, for operands of n and m rectangles: in 1-D, intersect/unite/
// subtract/overlaps/contains are two-cursor sweeps, O(n + m), and
// intersect(RectN) is a binary search plus the output. A 1-D operand built
// with add() out of order is normalized into a copy first, O(n log n). In
// N-D, intersect/overlaps/normalize sweep dimension 0, testing only
// rectangles whose dim-0 intervals are live together: O(n + m) plus the
// output on slab sets (plus a sort of an operand not ascending on dimension
// 0), degrading to O(n * m) only when every dim-0 interval overlaps every
// other. N-D subtract is pairwise slab algebra, O(n * m).
class IndexSubset {
 public:
  IndexSubset() = default;
  explicit IndexSubset(int dim) : dim_(dim) {}
  explicit IndexSubset(const RectN& r) : dim_(r.dim) { add(r); }

  int dim() const { return dim_; }
  bool empty() const;
  int64_t volume() const;
  const std::vector<RectN>& rects() const { return rects_; }

  // Adds a rectangle (dropped if empty). Caller should normalize() after a
  // batch of adds before relying on set semantics. In 1-D, adds in
  // ascending, non-touching order keep the subset canonical.
  void add(const RectN& r);
  // Room for n rectangles, so a known number of adds allocates once.
  void reserve(size_t n) { rects_.reserve(n); }
  // Sorts, merges adjacent/overlapping rectangles (1-D); deduplicates and
  // removes contained rectangles, keeping the order (N-D).
  void normalize();

  bool contains_point(const std::array<Coord, kMaxDim>& p) const;
  bool contains_point1(Coord p) const;
  // The points of `r` outside this subset. When one rectangle holds `r`
  // (found by a binary search on dimension 0 when canonical, else by a
  // scan) it returns the empty subset without a set difference; when the
  // subset is canonical, no other `r` is contained.
  IndexSubset outside(const RectN& r) const;

  // Set intersection with a rectangle / another subset.
  IndexSubset intersect(const RectN& r) const;
  IndexSubset intersect(const IndexSubset& o) const;
  // Set union (normalizes).
  IndexSubset unite(const IndexSubset& o) const;
  // Set difference: this \ o (exact in any dimension).
  IndexSubset subtract(const IndexSubset& o) const;
  // True if the two subsets share any point.
  bool overlaps(const IndexSubset& o) const;
  // True if every point of `o` is in this subset (o \ this is empty).
  bool contains(const IndexSubset& o) const;

  // Tight bounding rectangle (undefined on empty subsets).
  RectN bounds() const;

  // This subset normalized: itself when already canonical, else a
  // normalized copy kept in `tmp`.
  const IndexSubset& canonical(IndexSubset& tmp) const;

  std::string str() const;

 private:
  // True when both operands are 1-D, so the linear sweeps apply.
  bool sweepable(const IndexSubset& o) const {
    return dim_ == 1 && o.dim_ == 1;
  }

  int dim_ = 1;
  // rects_ ascend on dimension 0 with a gap between consecutive ones. In
  // 1-D that is the canonical form; in N-D it implies pairwise disjoint.
  bool canonical_ = true;
  std::vector<RectN> rects_;
};

// A dense rectangular index space, as associated with a region (§III-A).
class IndexSpace {
 public:
  IndexSpace() = default;
  explicit IndexSpace(const RectN& bounds) : bounds_(bounds) {}
  // 1-D convenience: [0, n).
  explicit IndexSpace(Coord n) : bounds_(RectN::make1(0, n - 1)) {}

  int dim() const { return bounds_.dim; }
  const RectN& bounds() const { return bounds_; }
  int64_t volume() const { return bounds_.volume(); }
  IndexSubset as_subset() const { return IndexSubset(bounds_); }

 private:
  RectN bounds_;
};

// Linearizes an N-D point within a bounding rectangle (row-major order).
int64_t linearize(const RectN& bounds, const std::array<Coord, kMaxDim>& p);

}  // namespace spdistal::rt
