#include "runtime/partition.h"

#include <algorithm>
#include <bit>

#include "common/error.h"
#include "common/str_util.h"

namespace spdistal::rt {

bool Partition::disjoint() const {
  for (size_t a = 0; a < subsets_.size(); ++a) {
    for (size_t b = a + 1; b < subsets_.size(); ++b) {
      if (subsets_[a].overlaps(subsets_[b])) return false;
    }
  }
  return true;
}

bool Partition::complete() const {
  IndexSubset u(parent_.dim());
  for (const auto& s : subsets_) {
    for (const auto& r : s.rects()) u.add(r);
  }
  u.normalize();
  if (parent_.dim() == 1) {
    // After normalization a 1-D union is a disjoint sorted interval list, so
    // volumes are exact.
    return u.volume() == parent_.volume();
  }
  // N-D: normalize() does not make overlapping rectangles disjoint, so a
  // volume sum can double-count overlaps and report completeness despite
  // holes. Subtraction is exact in any dimension: the partition is complete
  // iff no point of the parent survives removing the union. Escaping rects
  // still fail loudly (coverage of the parent would mask them).
  for (const auto& r : u.rects()) {
    SPD_ASSERT(parent_.bounds().contains(r), "subset escapes parent space");
  }
  return parent_.as_subset().subtract(u).empty();
}

std::string Partition::str() const {
  std::vector<std::string> parts;
  for (int c = 0; c < num_colors(); ++c) {
    parts.push_back(strprintf("%d: %s", c, subsets_[c].str().c_str()));
  }
  return join(parts, "\n");
}

Partition partition_by_bounds(const IndexSpace& space,
                              const std::vector<RectN>& bounds) {
  std::vector<IndexSubset> subsets;
  subsets.reserve(bounds.size());
  for (const auto& b : bounds) {
    SPD_ASSERT(b.dim == space.dim(), "partition_by_bounds: dim mismatch");
    IndexSubset s(space.dim());
    RectN clipped = b.intersect(space.bounds());
    if (!clipped.empty()) s.add(clipped);
    s.normalize();
    subsets.push_back(std::move(s));
  }
  return Partition(space, std::move(subsets));
}

std::vector<Rect1> equal_bounds(Coord n, int pieces) {
  SPD_ASSERT(pieces >= 1, "equal_bounds: pieces < 1");
  std::vector<Rect1> out;
  out.reserve(static_cast<size_t>(pieces));
  const Coord base = n / pieces;
  const Coord rem = n % pieces;
  Coord at = 0;
  for (int c = 0; c < pieces; ++c) {
    const Coord len = base + (c >= pieces - rem ? 1 : 0);
    out.push_back(Rect1{at, at + len - 1});
    at += len;
  }
  return out;
}

Partition partition_equal(const IndexSpace& space, int pieces, int dim) {
  SPD_ASSERT(dim >= 0 && dim < space.dim(), "partition_equal: bad dim");
  const Rect1 d = space.bounds().dim_rect(dim);
  const std::vector<Rect1> blocks = equal_bounds(d.size(), pieces);
  std::vector<RectN> bounds;
  bounds.reserve(blocks.size());
  for (const Rect1& b : blocks) {
    RectN r = space.bounds();
    r.lo[dim] = d.lo + b.lo;
    r.hi[dim] = d.lo + b.hi;
    bounds.push_back(r);
  }
  return partition_by_bounds(space, bounds);
}

namespace {

// A subset of `runs`, allocated once.
IndexSubset subset_of(const std::vector<Rect1>& runs) {
  IndexSubset out(1);
  out.reserve(runs.size());
  for (const Rect1& r : runs) out.add(RectN(r));
  return out;
}

// The intervals that a partition's colors cover, cut into disjoint
// segments, each carrying the ascending list of colors that cover all of
// it. An operator builds it once from every color's rects and then walks
// its region once: an element belongs to the colors of the segments its
// value meets.
class CoverSegments {
 public:
  // `cover` lists (interval, color) with colors ascending; one color's
  // intervals must not overlap each other. O(R log R) for R intervals.
  CoverSegments(const std::vector<std::pair<Rect1, int>>& cover, int colors)
      : open_(static_cast<size_t>(colors)) {
    // Elementary intervals: the pieces between consecutive interval ends.
    std::vector<Coord> cuts;
    cuts.reserve(2 * cover.size());
    for (const auto& [r, c] : cover) {
      cuts.push_back(r.lo);
      cuts.push_back(r.hi + 1);
    }
    // Ascending disjoint intervals (a block partition) are already in order.
    if (!std::is_sorted(cuts.begin(), cuts.end())) {
      std::sort(cuts.begin(), cuts.end());
    }
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    const size_t m = cuts.empty() ? 0 : cuts.size() - 1;
    const auto first_piece = [&cuts](Coord lo) {
      return static_cast<size_t>(
          std::lower_bound(cuts.begin(), cuts.end(), lo) - cuts.begin());
    };
    // Count, then place, each interval's color on every piece it spans;
    // colors arrive ascending, so every piece's list comes out ascending.
    std::vector<uint32_t> fill(m + 1, 0);
    for (const auto& [r, c] : cover) {
      for (size_t k = first_piece(r.lo); cuts[k] <= r.hi; ++k) ++fill[k + 1];
    }
    for (size_t k = 0; k < m; ++k) fill[k + 1] += fill[k];
    std::vector<uint32_t> next(fill.begin(), fill.end() - 1);
    colors_.resize(fill[m]);
    for (const auto& [r, c] : cover) {
      for (size_t k = first_piece(r.lo); cuts[k] <= r.hi; ++k) {
        colors_[next[k]++] = c;
      }
    }
    segs_.reserve(m);
    for (size_t k = 0; k < m; ++k) {
      if (fill[k + 1] > fill[k]) {
        segs_.push_back(Seg{cuts[k], cuts[k + 1] - 1, fill[k], fill[k + 1]});
      }
    }
  }

  // Gives each element i of [first, last], taken in ascending order, to
  // the colors of the segments its interval at(i) meets (an empty interval
  // meets none). A streak of elements inside one segment is given over as
  // one range. Nothing is assumed of the values: one that starts behind
  // the cursor is found by binary search.
  template <typename At>
  void walk(Coord first, Coord last, At at) {
    for (Coord i = first; i <= last;) {
      const Rect1 r = at(i);
      if (r.empty()) {
        ++i;
        continue;
      }
      cursor_ = seek(r.lo);
      if (cursor_ < segs_.size() && segs_[cursor_].lo <= r.lo &&
          r.hi <= segs_[cursor_].hi) {
        const Seg& seg = segs_[cursor_];
        Coord j = i + 1;
        for (; j <= last; ++j) {
          const Rect1 e = at(j);
          if (e.empty() || e.lo < seg.lo || e.hi > seg.hi) break;
        }
        give(seg, i, j - 1);
        i = j;
        continue;
      }
      for (size_t k = cursor_; k < segs_.size() && segs_[k].lo <= r.hi; ++k) {
        give(segs_[k], i, i);
      }
      ++i;
    }
  }

  // The colors' subsets, each canonical and allocated once.
  std::vector<IndexSubset> finish() {
    std::vector<size_t> count(open_.size(), 0);
    for (const auto& [c, r] : closed_) ++count[static_cast<size_t>(c)];
    std::vector<IndexSubset> subsets(open_.size(), IndexSubset(1));
    for (size_t c = 0; c < open_.size(); ++c) {
      subsets[c].reserve(count[c] + (open_[c].empty() ? 0 : 1));
    }
    for (const auto& [c, r] : closed_) {
      subsets[static_cast<size_t>(c)].add(RectN(r));
    }
    for (size_t c = 0; c < open_.size(); ++c) subsets[c].add(RectN(open_[c]));
    return subsets;
  }

 private:
  struct Seg {
    Coord lo = 0;
    Coord hi = -1;
    uint32_t begin = 0;  // the segment's colors are colors_[begin, end)
    uint32_t end = 0;
  };

  // Appends [lo, hi] to the runs of every color of `seg`. Each color's
  // last run stays open; closed runs of all colors share one list.
  void give(const Seg& seg, Coord lo, Coord hi) {
    for (uint32_t k = seg.begin; k < seg.end; ++k) {
      const int c = colors_[k];
      Rect1& last = open_[static_cast<size_t>(c)];
      if (!last.empty() && lo <= last.hi + 1) {
        last.hi = std::max(last.hi, hi);
      } else {
        if (!last.empty()) closed_.emplace_back(c, last);
        last = Rect1{lo, hi};
      }
    }
  }

  // Index of the first segment ending at or after x (size() if none). A
  // value at or just past the cursor is found by a forward step, anything
  // else by binary search.
  size_t seek(Coord x) const {
    const size_t n = segs_.size();
    if (cursor_ == 0 || segs_[cursor_ - 1].hi < x) {
      const size_t stop = std::min(cursor_ + 2, n);
      size_t k = cursor_;
      while (k < stop && segs_[k].hi < x) ++k;
      if (k < stop || k == n) return k;
    }
    return static_cast<size_t>(
        std::partition_point(segs_.begin(), segs_.end(),
                             [x](const Seg& s) { return s.hi < x; }) -
        segs_.begin());
  }

  std::vector<Seg> segs_;
  std::vector<int> colors_;
  std::vector<Rect1> open_;                    // each color's last run
  std::vector<std::pair<int, Rect1>> closed_;  // (color, run), ascending
  size_t cursor_ = 0;                          // the last seek's answer
};

}  // namespace

Partition partition_by_value_ranges(const Region<int32_t>& crd,
                                    const std::vector<Rect1>& ranges) {
  return partition_by_value_ranges(crd, crd.space().as_subset(), ranges);
}

Partition partition_by_value_ranges(const Region<int32_t>& crd,
                                    const IndexSubset& positions,
                                    const std::vector<Rect1>& ranges) {
  SPD_ASSERT(crd.space().dim() == 1, "crd regions are 1-D");
  std::vector<std::pair<Rect1, int>> cover;
  for (size_t c = 0; c < ranges.size(); ++c) {
    if (!ranges[c].empty()) cover.emplace_back(ranges[c], static_cast<int>(c));
  }
  CoverSegments segs(cover, static_cast<int>(ranges.size()));
  IndexSubset tmp;
  const RegionAccessor<int32_t> crd_at(crd, Access::Read);
  // Canonical, so the positions ascend.
  for (const auto& rect : positions.canonical(tmp).rects()) {
    segs.walk(rect.lo[0], rect.hi[0], [&crd_at](Coord p) {
      const Coord v = crd_at[p];
      return Rect1{v, v};
    });
  }
  return Partition(crd.space(), segs.finish());
}

Partition image(const Region<PosRange>& pos, const Partition& pos_part,
                const IndexSpace& crd_space) {
  SPD_ASSERT(pos.space().dim() == 1, "pos regions are 1-D");
  const RegionAccessor<PosRange> pos_at(pos, Access::Read);
  std::vector<IndexSubset> subsets;
  subsets.reserve(static_cast<size_t>(pos_part.num_colors()));
  std::vector<Rect1> runs;
  for (int c = 0; c < pos_part.num_colors(); ++c) {
    // Segments that overlap or abut the open run join it, so packed pos
    // (each segment starting where the last one ended) yields one run per
    // stretch; only out-of-order segments leave the output to normalize.
    runs.clear();
    Rect1 run{0, -1};
    for (const auto& rect : pos_part.subset(c).rects()) {
      for (Coord i = rect.lo[0]; i <= rect.hi[0]; ++i) {
        const PosRange pr = pos_at[i];
        if (pr.empty()) continue;
        if (!run.empty() && pr.lo <= run.hi + 1 && run.lo <= pr.hi + 1) {
          run.lo = std::min(run.lo, pr.lo);
          run.hi = std::max(run.hi, pr.hi);
        } else {
          if (!run.empty()) runs.push_back(run);
          run = Rect1{pr.lo, pr.hi};
        }
      }
    }
    if (!run.empty()) runs.push_back(run);
    IndexSubset out = subset_of(runs);
    out.normalize();
    subsets.push_back(std::move(out));
  }
  return Partition(crd_space, std::move(subsets));
}

Partition image(const Region<int32_t>& crd, const Partition& crd_part,
                const IndexSpace& coord_space) {
  SPD_ASSERT(crd.space().dim() == 1 && coord_space.dim() == 1,
             "crd regions and coordinate spaces are 1-D");
  const Rect1 dom = coord_space.bounds().dim_rect(0);
  const uint64_t extent = static_cast<uint64_t>(dom.size());
  // One mark bit per coordinate, shared by the colors: each color sets its
  // values' bits, then reads the runs off in order and clears them again.
  std::vector<uint64_t> marks((extent + 63) / 64, 0);
  const RegionAccessor<int32_t> crd_at(crd, Access::Read);
  std::vector<IndexSubset> subsets;
  subsets.reserve(static_cast<size_t>(crd_part.num_colors()));
  std::vector<Rect1> runs;
  for (int c = 0; c < crd_part.num_colors(); ++c) {
    uint64_t lo = UINT64_MAX, hi = 0;
    for (const auto& rect : crd_part.subset(c).rects()) {
      for (Coord q = rect.lo[0]; q <= rect.hi[0]; ++q) {
        const uint64_t v = static_cast<uint64_t>(crd_at[q] - dom.lo);
        SPD_ASSERT(v < extent, "image: crd value " << crd_at[q]
                                   << " outside " << RectN(dom).str());
        marks[v >> 6] |= uint64_t{1} << (v & 63);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
    runs.clear();
    for (uint64_t w = lo >> 6; lo <= hi && w <= hi >> 6; ++w) {
      uint64_t bits = marks[w];
      marks[w] = 0;
      while (bits != 0) {
        const int first = std::countr_zero(bits);
        const int len = std::countr_one(bits >> first);
        const Coord at = dom.lo + static_cast<Coord>(w * 64) + first;
        if (!runs.empty() && at == runs.back().hi + 1) {
          runs.back().hi = at + len - 1;  // a run across a word edge
        } else {
          runs.push_back(Rect1{at, at + len - 1});
        }
        bits &= bits + (bits & (~bits + 1));  // clear the lowest run
      }
    }
    subsets.push_back(subset_of(runs));
  }
  return Partition(coord_space, std::move(subsets));
}

Partition preimage(const Region<PosRange>& pos, const Partition& crd_part) {
  SPD_ASSERT(pos.space().dim() == 1, "pos regions are 1-D");
  std::vector<std::pair<Rect1, int>> cover;
  for (int c = 0; c < crd_part.num_colors(); ++c) {
    // A color's own rects may overlap; its canonical form does not.
    IndexSubset tmp;
    for (const auto& r : crd_part.subset(c).canonical(tmp).rects()) {
      cover.emplace_back(r.dim_rect(0), c);
    }
  }
  CoverSegments segs(cover, crd_part.num_colors());
  // One walk over the pos entries, ascending, so every color's runs come
  // out in order. No pos invariant is assumed: segments may be empty, out
  // of order or overlapping.
  const RegionAccessor<PosRange> pos_at(pos, Access::Read);
  const Rect1 dom = pos.space().bounds().dim_rect(0);
  segs.walk(dom.lo, dom.hi, [&pos_at](Coord i) {
    const PosRange& pr = pos_at[i];
    return Rect1{pr.lo, pr.hi};
  });
  return Partition(pos.space(), segs.finish());
}

Partition copy_partition(const Partition& part, const IndexSpace& new_parent) {
  SPD_ASSERT(new_parent.dim() == part.parent().dim(),
             "copy_partition: dim mismatch");
  std::vector<IndexSubset> subsets;
  subsets.reserve(static_cast<size_t>(part.num_colors()));
  for (int c = 0; c < part.num_colors(); ++c) {
    subsets.push_back(part.subset(c).intersect(new_parent.bounds()));
  }
  return Partition(new_parent, std::move(subsets));
}

Partition lift_to_dim(const Partition& part1d, const IndexSpace& nd_space,
                      int dim) {
  SPD_ASSERT(part1d.parent().dim() == 1, "lift_to_dim: source must be 1-D");
  SPD_ASSERT(dim >= 0 && dim < nd_space.dim(), "lift_to_dim: bad dim");
  const RectN extent(nd_space.bounds().dim_rect(dim));
  std::vector<IndexSubset> subsets;
  subsets.reserve(static_cast<size_t>(part1d.num_colors()));
  for (int c = 0; c < part1d.num_colors(); ++c) {
    // Canonical intervals lift to disjoint slabs: nothing to normalize.
    const IndexSubset rows = part1d.subset(c).intersect(extent);
    IndexSubset out(nd_space.dim());
    for (const auto& r : rows.rects()) {
      RectN nd = nd_space.bounds();
      nd.lo[dim] = r.lo[0];
      nd.hi[dim] = r.hi[0];
      out.add(nd);
    }
    subsets.push_back(std::move(out));
  }
  return Partition(nd_space, std::move(subsets));
}

}  // namespace spdistal::rt
