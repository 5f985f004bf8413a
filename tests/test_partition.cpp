// Tests for direct and dependent partitioning, including the paper's worked
// examples: Figure 6 (image/preimage) and Figures 7-9 (the 4x4 CSR matrix).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "common/rng.h"
#include "runtime/partition.h"
#include "runtime/region.h"

namespace spdistal::rt {
namespace {

// The paper's running example (Figure 7): the 4x4 matrix
//     cols:  0    1    2    3
//  row 0:  [ a    b    .    c ]
//  row 1:  [ .    d    .    e ]
//  row 2:  [ f    .    .    . ]
//  row 3:  [ g    .    .    h ]
// in SpDISTAL CSR: pos = {0,2},{3,4},{5,5},{6,7} (inclusive ranges),
// crd = 0 1 3 | 1 3 | 0 | 0 3.
struct PaperMatrix {
  RegionRef<PosRange> pos;
  RegionRef<int32_t> crd;
  IndexSpace vals_space{8};

  PaperMatrix() {
    pos = make_region<PosRange>(IndexSpace(4), "B.pos");
    crd = make_region<int32_t>(IndexSpace(8), "B.crd");
    (*pos)[0] = PosRange{0, 2};
    (*pos)[1] = PosRange{3, 4};
    (*pos)[2] = PosRange{5, 5};
    (*pos)[3] = PosRange{6, 7};
    const int32_t crds[8] = {0, 1, 3, 1, 3, 0, 0, 3};
    for (Coord i = 0; i < 8; ++i) (*crd)[i] = crds[i];
  }
};

TEST(PartitionEqual, BalancedBlocks) {
  IndexSpace s(10);
  Partition p = partition_equal(s, 3);
  ASSERT_EQ(p.num_colors(), 3);
  // 10 = 3 + 3 + 4 (trailing pieces absorb the remainder).
  EXPECT_EQ(p.subset(0).volume(), 3);
  EXPECT_EQ(p.subset(1).volume(), 3);
  EXPECT_EQ(p.subset(2).volume(), 4);
  EXPECT_TRUE(p.disjoint());
  EXPECT_TRUE(p.complete());
}

TEST(PartitionEqual, MorePiecesThanPoints) {
  IndexSpace s(2);
  Partition p = partition_equal(s, 4);
  ASSERT_EQ(p.num_colors(), 4);
  int64_t total = 0;
  for (int c = 0; c < 4; ++c) total += p.subset(c).volume();
  EXPECT_EQ(total, 2);
  EXPECT_TRUE(p.disjoint());
  EXPECT_TRUE(p.complete());
}

TEST(PartitionByBounds, ClipsToParent) {
  IndexSpace s(10);
  Partition p = partition_by_bounds(
      s, {RectN::make1(-5, 4), RectN::make1(5, 100)});
  EXPECT_EQ(p.subset(0).volume(), 5);
  EXPECT_EQ(p.subset(1).volume(), 5);
  EXPECT_TRUE(p.complete());
}

// Figure 6a: S contains index spaces {0..2},{3,4},{5},{6..8} over D(0..8);
// a partition of S into {0,1} and {2,3} images to D-subsets {0..4}, {5..8}.
TEST(DependentPartitioning, ImageMatchesFigure6a) {
  auto pos = make_region<PosRange>(IndexSpace(4), "S");
  (*pos)[0] = PosRange{0, 2};
  (*pos)[1] = PosRange{3, 4};
  (*pos)[2] = PosRange{5, 5};
  (*pos)[3] = PosRange{6, 8};
  IndexSpace d(9);
  Partition ps = partition_equal(pos->space(), 2);
  Partition img = image(*pos, ps, d);
  ASSERT_EQ(img.num_colors(), 2);
  EXPECT_EQ(img.subset(0).bounds(), RectN::make1(0, 4));
  EXPECT_EQ(img.subset(0).volume(), 5);
  EXPECT_EQ(img.subset(1).bounds(), RectN::make1(5, 8));
  EXPECT_EQ(img.subset(1).volume(), 4);
  EXPECT_TRUE(img.disjoint());
  EXPECT_TRUE(img.complete());
}

// Figure 6b: a partition of D can color a source entry with multiple colors
// when its range spans the boundary.
TEST(DependentPartitioning, PreimageCanOverlap) {
  auto pos = make_region<PosRange>(IndexSpace(4), "S");
  (*pos)[0] = PosRange{0, 2};
  (*pos)[1] = PosRange{3, 4};
  (*pos)[2] = PosRange{5, 5};
  (*pos)[3] = PosRange{4, 8};  // spans both halves of D
  IndexSpace d(9);
  Partition pd = partition_by_bounds(
      d, {RectN::make1(0, 4), RectN::make1(5, 8)});
  Partition pre = preimage(*pos, pd);
  ASSERT_EQ(pre.num_colors(), 2);
  // Entries 0,1 point into {0..4}; entry 3 spans; entry 2 points into {5}.
  EXPECT_TRUE(pre.subset(0).contains_point1(0));
  EXPECT_TRUE(pre.subset(0).contains_point1(1));
  EXPECT_TRUE(pre.subset(0).contains_point1(3));
  EXPECT_TRUE(pre.subset(1).contains_point1(2));
  EXPECT_TRUE(pre.subset(1).contains_point1(3));
  EXPECT_FALSE(pre.disjoint());  // entry 3 has two colors
  EXPECT_TRUE(pre.complete());
}

// Figure 9c: the row-based (universe) partition of the 4x4 paper matrix with
// 2 pieces. Rows {0,1} -> piece 0, rows {2,3} -> piece 1. The derived crd
// partition (image of pos) is {0..4} and {5..7}.
TEST(PaperExample, RowBasedUniversePartition) {
  PaperMatrix m;
  Partition rows = partition_equal(m.pos->space(), 2);
  Partition crd_part = image(*m.pos, rows, m.crd->space());
  ASSERT_EQ(crd_part.num_colors(), 2);
  EXPECT_EQ(crd_part.subset(0).bounds(), RectN::make1(0, 4));
  EXPECT_EQ(crd_part.subset(0).volume(), 5);
  EXPECT_EQ(crd_part.subset(1).bounds(), RectN::make1(5, 7));
  EXPECT_EQ(crd_part.subset(1).volume(), 3);
  EXPECT_TRUE(crd_part.disjoint());
  EXPECT_TRUE(crd_part.complete());
  // vals partition is a copy of the crd partition.
  Partition vals_part = copy_partition(crd_part, m.vals_space);
  EXPECT_EQ(vals_part.subset(0).volume(), 5);
  EXPECT_EQ(vals_part.subset(1).volume(), 3);
}

// Figure 9d: the non-zero partition of the paper matrix with 2 pieces: crd
// positions {0..3} and {4..7}. The derived pos partition (preimage) colors
// row 1 with both colors (its segment {3,4} spans the split).
TEST(PaperExample, NonZeroPartition) {
  PaperMatrix m;
  Partition crd_part = partition_equal(m.crd->space(), 2);
  Partition pos_part = preimage(*m.pos, crd_part);
  ASSERT_EQ(pos_part.num_colors(), 2);
  EXPECT_TRUE(pos_part.subset(0).contains_point1(0));
  EXPECT_TRUE(pos_part.subset(0).contains_point1(1));
  EXPECT_FALSE(pos_part.subset(0).contains_point1(2));
  EXPECT_TRUE(pos_part.subset(1).contains_point1(1));  // shared row
  EXPECT_TRUE(pos_part.subset(1).contains_point1(2));
  EXPECT_TRUE(pos_part.subset(1).contains_point1(3));
  EXPECT_FALSE(pos_part.disjoint());
  EXPECT_TRUE(pos_part.complete());
}

// Universe partition of a Compressed level: bucket crd entries by value
// ranges (Table I, finalizeUniversePartition for Compressed).
TEST(PartitionByValueRanges, BucketsByCoordinate) {
  PaperMatrix m;
  // Split the column universe 0..3 into {0..1} and {2..3}.
  Partition p = partition_by_value_ranges(*m.crd, {{0, 1}, {2, 3}});
  ASSERT_EQ(p.num_colors(), 2);
  // crd = 0 1 3 1 3 0 0 3: positions with value<=1: {0,1,3,5,6};
  // value>=2: {2,4,7}.
  EXPECT_EQ(p.subset(0).volume(), 5);
  EXPECT_EQ(p.subset(1).volume(), 3);
  EXPECT_TRUE(p.subset(1).contains_point1(2));
  EXPECT_TRUE(p.subset(1).contains_point1(4));
  EXPECT_TRUE(p.subset(1).contains_point1(7));
  EXPECT_TRUE(p.disjoint());
  EXPECT_TRUE(p.complete());
}

TEST(LiftToDim, RowPartitionOfMatrix) {
  IndexSpace matrix(RectN::make2(0, 9, 0, 19));
  Partition rows = partition_equal(IndexSpace(10), 2);
  Partition p = lift_to_dim(rows, matrix, 0);
  ASSERT_EQ(p.num_colors(), 2);
  EXPECT_EQ(p.subset(0).volume(), 5 * 20);
  EXPECT_EQ(p.subset(1).volume(), 5 * 20);
  EXPECT_TRUE(p.disjoint());
  EXPECT_TRUE(p.complete());
}

// Regression: overlapping N-D rects double-counted volume, so a partition
// with a hole could report complete (vol >= parent volume despite row 3
// being uncovered).
TEST(PartitionComplete, OverlappingNDRectsDoNotMaskHoles) {
  IndexSpace s(RectN::make2(0, 3, 0, 3));  // 16 points
  IndexSubset holey(2);
  holey.add(RectN::make2(0, 1, 0, 3));  // rows 0-1: 8 points
  holey.add(RectN::make2(1, 2, 0, 3));  // rows 1-2: 8 points (4 overlap)
  Partition p(s, {holey});
  EXPECT_FALSE(p.complete());  // row 3 is a hole
  IndexSubset covered = holey;
  covered.add(RectN::make2(2, 3, 0, 3));
  Partition q(s, {covered});
  EXPECT_TRUE(q.complete());
}

// Overlapping value ranges: a value inside two ranges lands in both colors
// (its segment carries both).
TEST(PartitionByValueRanges, OverlappingRangesKeepMultiMembership) {
  PaperMatrix m;
  // crd = 0 1 3 1 3 0 0 3; ranges {0..2} and {1..3} share values 1 and 2.
  Partition p = partition_by_value_ranges(*m.crd, {{0, 2}, {1, 3}});
  ASSERT_EQ(p.num_colors(), 2);
  // Value-1 positions (1, 3) belong to both colors.
  EXPECT_TRUE(p.subset(0).contains_point1(1));
  EXPECT_TRUE(p.subset(1).contains_point1(1));
  EXPECT_TRUE(p.subset(0).contains_point1(3));
  EXPECT_TRUE(p.subset(1).contains_point1(3));
  EXPECT_FALSE(p.disjoint());
}

// Sorted-disjoint ranges with interleaved empties (equal_bounds output when
// pieces > extent): the empty colors stay empty.
TEST(PartitionByValueRanges, EmptyRangesAndBinarySearchAgree) {
  PaperMatrix m;
  const std::vector<Rect1> ranges = {
      {0, 0}, {1, 0}, {1, 1}, {2, 1}, {2, 3}};  // two empty ranges inside
  Partition p = partition_by_value_ranges(*m.crd, ranges);
  ASSERT_EQ(p.num_colors(), 5);
  // crd = 0 1 3 1 3 0 0 3.
  EXPECT_EQ(p.subset(0).volume(), 3);  // value 0: positions 0, 5, 6
  EXPECT_EQ(p.subset(1).volume(), 0);
  EXPECT_EQ(p.subset(2).volume(), 2);  // value 1: positions 1, 3
  EXPECT_EQ(p.subset(3).volume(), 0);
  EXPECT_EQ(p.subset(4).volume(), 3);  // values 2-3: positions 2, 4, 7
  EXPECT_TRUE(p.disjoint());
  EXPECT_TRUE(p.complete());
}

// Property test over random CSR-like structures: universe and non-zero
// partitions always cover all stored coordinates, image/preimage round-trips
// keep every non-zero reachable, and non-zero partitions are balanced.
class RandomCsrPartitionProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomCsrPartitionProperty, CoverageAndBalance) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31337 + 7);
  const int rows = 1 + static_cast<int>(rng.next_below(60));
  const int cols = 1 + static_cast<int>(rng.next_below(60));
  // Random CSR.
  std::vector<std::vector<int32_t>> row_cols(static_cast<size_t>(rows));
  int64_t nnz = 0;
  for (auto& rc : row_cols) {
    const int k = static_cast<int>(rng.next_below(8));
    for (int i = 0; i < k; ++i) {
      rc.push_back(static_cast<int32_t>(rng.next_below(
          static_cast<uint64_t>(cols))));
    }
    std::sort(rc.begin(), rc.end());
    rc.erase(std::unique(rc.begin(), rc.end()), rc.end());
    nnz += static_cast<int64_t>(rc.size());
  }
  if (nnz == 0) return;  // nothing to partition
  auto pos = make_region<PosRange>(IndexSpace(rows), "pos");
  auto crd = make_region<int32_t>(IndexSpace(nnz), "crd");
  Coord at = 0;
  for (int r = 0; r < rows; ++r) {
    (*pos)[r] = PosRange{at, at + static_cast<Coord>(row_cols[r].size()) - 1};
    for (int32_t c : row_cols[static_cast<size_t>(r)]) (*crd)[at++] = c;
  }

  const int pieces = 1 + static_cast<int>(rng.next_below(6));

  // Universe (row-based): rows equally, crd derived via image.
  Partition prow = partition_equal(pos->space(), pieces);
  Partition pcrd = image(*pos, prow, crd->space());
  EXPECT_TRUE(pcrd.complete());
  EXPECT_TRUE(pcrd.disjoint());

  // Non-zero: crd equally, pos derived via preimage.
  Partition pnz = partition_equal(crd->space(), pieces);
  Partition ppos = preimage(*pos, pnz);
  // Rows with empty segments are (correctly) uncolored, so completeness of
  // the pos partition is not expected in general.
  // Every row with a non-empty segment must appear in some color.
  for (int r = 0; r < rows; ++r) {
    if (!(*pos)[r].empty()) {
      bool found = false;
      for (int c = 0; c < pieces; ++c) {
        if (ppos.subset(c).contains_point1(r)) found = true;
      }
      EXPECT_TRUE(found) << "row " << r << " lost by preimage";
    }
  }
  // Non-zero partition balance: max piece <= ceil(nnz/pieces).
  const int64_t cap = (nnz + pieces - 1) / pieces;
  for (int c = 0; c < pieces; ++c) {
    EXPECT_LE(pnz.subset(c).volume(), cap);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCsr, RandomCsrPartitionProperty,
                         ::testing::Range(0, 30));

// --- PartitionReference: the one-pass operators against the per-color
// scans they replaced -------------------------------------------------------
//
// The references below are the earlier algorithms, kept verbatim in
// behavior: per-color rescans for image, preimage and value ranges, the
// sort-based needed coordinates, and all-pairs N-D intersect, overlaps and
// normalize. Each case compares exact subsets: canonical 1-D interval
// lists, and N-D rect lists in order.

std::vector<IndexSubset> ref_preimage(const Region<PosRange>& pos,
                                      const Partition& crd_part) {
  const Rect1 pos_dom = pos.space().bounds().dim_rect(0);
  std::vector<IndexSubset> subsets;
  for (int c = 0; c < crd_part.num_colors(); ++c) {
    const std::vector<RectN>& rects = crd_part.subset(c).rects();
    IndexSubset out(1);
    for (Coord i = pos_dom.lo; i <= pos_dom.hi; ++i) {
      const PosRange& pr = pos[i];
      bool hit = false;
      for (const auto& r : rects) {
        if (!pr.empty() && r.lo[0] <= pr.hi && pr.lo <= r.hi[0]) hit = true;
      }
      if (hit) out.add(RectN::make1(i, i));
    }
    out.normalize();
    subsets.push_back(std::move(out));
  }
  return subsets;
}

std::vector<IndexSubset> ref_image(const Region<PosRange>& pos,
                                   const Partition& pos_part) {
  std::vector<IndexSubset> subsets;
  for (int c = 0; c < pos_part.num_colors(); ++c) {
    IndexSubset out(1);
    for (const auto& rect : pos_part.subset(c).rects()) {
      for (Coord i = rect.lo[0]; i <= rect.hi[0]; ++i) {
        const PosRange& pr = pos[i];
        if (!pr.empty()) out.add(RectN::make1(pr.lo, pr.hi));
      }
    }
    out.normalize();
    subsets.push_back(std::move(out));
  }
  return subsets;
}

std::vector<IndexSubset> ref_needed_coords(const Region<int32_t>& crd,
                                          const Partition& crd_part) {
  std::vector<IndexSubset> needed;
  for (int c = 0; c < crd_part.num_colors(); ++c) {
    std::vector<Coord> vals;
    for (const auto& r : crd_part.subset(c).rects()) {
      for (Coord q = r.lo[0]; q <= r.hi[0]; ++q) vals.push_back(crd[q]);
    }
    std::sort(vals.begin(), vals.end());
    IndexSubset out(1);
    for (size_t k = 0; k < vals.size();) {
      const Coord lo = vals[k];
      Coord hi = lo;
      while (k < vals.size() && vals[k] <= hi + 1) hi = std::max(hi, vals[k++]);
      out.add(RectN::make1(lo, hi));
    }
    out.normalize();
    needed.push_back(std::move(out));
  }
  return needed;
}

std::vector<IndexSubset> ref_value_ranges(const Region<int32_t>& crd,
                                          const IndexSubset& positions,
                                          const std::vector<Rect1>& ranges) {
  std::vector<IndexSubset> subsets(ranges.size(), IndexSubset(1));
  for (const auto& rect : positions.rects()) {
    for (Coord p = rect.lo[0]; p <= rect.hi[0]; ++p) {
      for (size_t c = 0; c < ranges.size(); ++c) {
        if (ranges[c].contains(crd[p])) subsets[c].add(RectN::make1(p, p));
      }
    }
  }
  for (auto& s : subsets) s.normalize();
  return subsets;
}

// All-pairs N-D containment pruning: drop rects strictly inside another,
// then repeats of a kept rect.
std::vector<RectN> ref_normalize_nd(const std::vector<RectN>& rects) {
  std::vector<RectN> out;
  for (const auto& r : rects) {
    bool contained = false;
    for (const auto& o : rects) {
      if (&o != &r && o.contains(r) && !(o == r)) contained = true;
    }
    if (!contained && std::find(out.begin(), out.end(), r) == out.end()) {
      out.push_back(r);
    }
  }
  return out;
}

std::vector<RectN> ref_intersect_nd(const IndexSubset& a,
                                    const IndexSubset& b) {
  std::vector<RectN> out;
  for (const auto& r : b.rects()) {
    for (const auto& s : a.rects()) {
      const RectN i = s.intersect(r);
      if (!i.empty()) out.push_back(i);
    }
  }
  return ref_normalize_nd(out);
}

bool ref_overlaps_nd(const IndexSubset& a, const IndexSubset& b) {
  for (const auto& r : b.rects()) {
    for (const auto& s : a.rects()) {
      if (s.overlaps(r)) return true;
    }
  }
  return false;
}

std::vector<RectN> ref_lift(const IndexSubset& rows, const IndexSpace& nd,
                            int dim) {
  std::vector<RectN> out;
  for (const auto& r : rows.rects()) {
    RectN slab = nd.bounds();
    slab.lo[dim] = std::max(slab.lo[dim], r.lo[0]);
    slab.hi[dim] = std::min(slab.hi[dim], r.hi[0]);
    if (!slab.empty()) out.push_back(slab);
  }
  return ref_normalize_nd(out);
}

// The points of a 2-D subset, for comparing two representations of one set.
std::set<std::pair<Coord, Coord>> points2(const std::vector<RectN>& rects) {
  std::set<std::pair<Coord, Coord>> pts;
  for (const auto& r : rects) {
    for (Coord i = r.lo[0]; i <= r.hi[0]; ++i) {
      for (Coord j = r.lo[1]; j <= r.hi[1]; ++j) pts.insert({i, j});
    }
  }
  return pts;
}

void expect_same(const Partition& got, const std::vector<IndexSubset>& want) {
  ASSERT_EQ(got.num_colors(), static_cast<int>(want.size()));
  for (int c = 0; c < got.num_colors(); ++c) {
    EXPECT_EQ(got.subset(c).rects(), want[static_cast<size_t>(c)].rects())
        << "color " << c << ": got " << got.subset(c).str() << ", want "
        << want[static_cast<size_t>(c)].str();
  }
}

// Uniform in [0, n).
Coord below(Rng& rng, Coord n) {
  return static_cast<Coord>(rng.next_below(static_cast<uint64_t>(n)));
}

// A random 1-D subset of [0, n) as given to a Partition: `rects` random
// intervals, left unnormalized (out of order, overlapping) unless
// `canonical`.
IndexSubset random_subset(Rng& rng, Coord n, int rects, bool canonical) {
  IndexSubset s(1);
  for (int k = 0; k < rects; ++k) {
    const Coord lo = below(rng, n);
    const Coord len = below(rng, 6);
    s.add(RectN::make1(lo, std::min(n - 1, lo + len)));
  }
  if (canonical) s.normalize();
  return s;
}

// Colors over [0, n) in one of the shapes an operator may meet: disjoint
// blocks (with empty colors when colors > n), overlapping random rects,
// the same left unnormalized, or an empty color among random ones.
Partition random_partition(Rng& rng, Coord n, int colors, int shape) {
  const IndexSpace space(n);
  if (shape == 0) return partition_equal(space, colors);
  std::vector<IndexSubset> subsets;
  for (int c = 0; c < colors; ++c) {
    const bool empty = shape == 3 && c % 3 == 1;
    subsets.push_back(empty ? IndexSubset(1)
                            : random_subset(rng, n, 1 + c % 4, shape != 2));
  }
  return Partition(space, std::move(subsets));
}

// A pos region over `rows` entries into [0, nnz): packed (each segment
// starts where the last ended, empty ones written {q, q-1}) or hand-built
// (random, possibly empty, out-of-order and overlapping ranges).
RegionRef<PosRange> random_pos(Rng& rng, Coord rows, Coord nnz, bool packed) {
  auto pos = make_region<PosRange>(IndexSpace(rows), "pos");
  Coord at = 0;
  for (Coord r = 0; r < rows; ++r) {
    if (packed) {
      const Coord left = nnz - at;
      const Coord len = r + 1 == rows ? left : std::min(left, below(rng, 5));
      (*pos)[r] = PosRange{at, at + len - 1};
      at += len;
    } else {
      const Coord lo = below(rng, nnz);
      const Coord len = below(rng, 5) - 1;  // -1: empty
      (*pos)[r] = PosRange{lo, std::min(nnz - 1, lo + len)};
    }
  }
  return pos;
}

RegionRef<int32_t> random_crd(Rng& rng, Coord nnz, Coord extent) {
  auto crd = make_region<int32_t>(IndexSpace(nnz), "crd");
  for (Coord q = 0; q < nnz; ++q) {
    (*crd)[q] = static_cast<int32_t>(below(rng, extent));
  }
  return crd;
}

class PartitionReference : public ::testing::TestWithParam<int> {
 protected:
  Rng rng{static_cast<uint64_t>(GetParam()) * 7919 + 11};
  // More colors than entries on some seeds.
  int colors() {
    return 1 + static_cast<int>(below(rng, GetParam() % 5 == 0 ? 40 : 9));
  }
};

TEST_P(PartitionReference, PreimageMatchesPerColorScan) {
  for (bool packed : {true, false}) {
    for (int shape = 0; shape < 4; ++shape) {
      const Coord rows = 1 + below(rng, 30);
      const Coord nnz = 1 + below(rng, 60);
      auto pos = random_pos(rng, rows, nnz, packed);
      const Partition crd_part = random_partition(rng, nnz, colors(), shape);
      SCOPED_TRACE(::testing::Message() << "packed " << packed << " shape "
                                        << shape);
      expect_same(preimage(*pos, crd_part), ref_preimage(*pos, crd_part));
    }
  }
}

TEST_P(PartitionReference, ImageMatchesPerColorScan) {
  for (bool packed : {true, false}) {
    for (int shape = 0; shape < 4; ++shape) {
      const Coord rows = 1 + below(rng, 30);
      const Coord nnz = 1 + below(rng, 60);
      auto pos = random_pos(rng, rows, nnz, packed);
      const Partition pos_part = random_partition(rng, rows, colors(), shape);
      SCOPED_TRACE(::testing::Message() << "packed " << packed << " shape "
                                        << shape);
      expect_same(image(*pos, pos_part, IndexSpace(nnz)),
                  ref_image(*pos, pos_part));
    }
  }
}

TEST_P(PartitionReference, CrdImageMatchesSortedNeededCoordinates) {
  for (int shape = 0; shape < 4; ++shape) {
    const Coord nnz = 1 + below(rng, 240);
    // Extents around a 64-coordinate mark word, so runs cross word edges.
    const Coord extent = 1 + below(rng, 150);
    auto crd = random_crd(rng, nnz, extent);
    const Partition crd_part = random_partition(rng, nnz, colors(), shape);
    SCOPED_TRACE(::testing::Message() << "shape " << shape);
    expect_same(image(*crd, crd_part, IndexSpace(extent)),
                ref_needed_coords(*crd, crd_part));
  }
}

TEST_P(PartitionReference, ValueRangesMatchPerColorScan) {
  const Coord nnz = 1 + below(rng, 80);
  const Coord extent = 1 + below(rng, 40);
  auto crd = random_crd(rng, nnz, extent);
  // Sorted-disjoint blocks, then ranges that overlap, are empty or come
  // unsorted.
  std::vector<std::vector<Rect1>> cases;
  std::vector<Rect1> blocks;
  const int pieces = colors();
  for (int c = 0; c < pieces; ++c) {
    blocks.push_back(Rect1{c * extent / pieces, (c + 1) * extent / pieces - 1});
  }
  cases.push_back(blocks);
  std::vector<Rect1> loose;
  for (int c = 0; c < pieces; ++c) {
    const Coord lo = below(rng, extent + 2) - 1;
    const Coord len = below(rng, 12) - 2;  // < 0: empty
    loose.push_back(Rect1{lo, lo + len});
  }
  cases.push_back(loose);
  const IndexSubset all = crd->space().as_subset();
  const IndexSubset some = random_subset(rng, nnz, 3, false);
  for (const auto& ranges : cases) {
    expect_same(partition_by_value_ranges(*crd, ranges),
                ref_value_ranges(*crd, all, ranges));
    expect_same(partition_by_value_ranges(*crd, some, ranges),
                ref_value_ranges(*crd, some, ranges));
  }
}

// 2-D subsets: row slabs (ascending, disjoint), column slabs (all sharing
// dimension 0), and general rect soups with nested and repeated rects.
IndexSubset random_2d(Rng& rng, int kind) {
  IndexSubset s(2);
  const Coord n = 1 + below(rng, 12);
  Coord at = below(rng, 3);
  std::vector<RectN> soup;
  for (Coord k = 0; k < n; ++k) {
    if (kind == 0) {
      const Coord len = 1 + below(rng, 3);
      s.add(RectN::make2(at, at + len - 1, 0, 9));
      at += len + 1 + below(rng, 2);
    } else if (kind == 1) {
      const Coord len = 1 + below(rng, 3);
      s.add(RectN::make2(0, 9, at, at + len - 1));
      at += len + below(rng, 2);
    } else {
      const Coord i = below(rng, 10);
      const Coord j = below(rng, 10);
      const RectN r = RectN::make2(i, i + below(rng, 4),
                                   j, j + below(rng, 4));
      soup.push_back(r);
      if (rng.next_below(4) == 0) soup.push_back(r);  // repeated
      if (rng.next_below(4) == 0 && r.hi[0] > r.lo[0]) {  // nested
        soup.push_back(RectN::make2(r.lo[0] + 1, r.hi[0], r.lo[1], r.lo[1]));
      }
    }
  }
  for (const auto& r : soup) s.add(r);
  return s;
}

TEST_P(PartitionReference, NdAlgebraMatchesAllPairs) {
  for (int ka = 0; ka < 3; ++ka) {
    for (int kb = 0; kb < 3; ++kb) {
      const IndexSubset a = random_2d(rng, ka);
      const IndexSubset b = random_2d(rng, kb);
      SCOPED_TRACE(::testing::Message() << "kinds " << ka << "," << kb << ": "
                                        << a.str() << " vs " << b.str());
      EXPECT_EQ(a.intersect(b).rects(), ref_intersect_nd(a, b));
      EXPECT_EQ(a.overlaps(b), ref_overlaps_nd(a, b));
      EXPECT_EQ(b.overlaps(a), ref_overlaps_nd(b, a));
      std::vector<RectN> both = a.rects();
      both.insert(both.end(), b.rects().begin(), b.rects().end());
      EXPECT_EQ(a.unite(b).rects(), ref_normalize_nd(both));
      IndexSubset n = a;
      n.normalize();
      EXPECT_EQ(n.rects(), ref_normalize_nd(a.rects()));
    }
  }
}

TEST_P(PartitionReference, LiftToDimMatchesNormalizedSlabs) {
  const IndexSpace matrix(RectN::make2(0, 29, 0, 19));
  for (int dim = 0; dim < 2; ++dim) {
    for (int shape = 0; shape < 4; ++shape) {
      const Coord n = dim == 0 ? 34 : 22;  // wider than the matrix: clipped
      const Partition rows = random_partition(rng, n, colors(), shape);
      const Partition lifted = lift_to_dim(rows, matrix, dim);
      ASSERT_EQ(lifted.num_colors(), rows.num_colors());
      for (int c = 0; c < rows.num_colors(); ++c) {
        const std::vector<RectN> want = ref_lift(rows.subset(c), matrix, dim);
        if (shape == 2) {
          // Unnormalized input: the earlier lift kept overlapping slabs,
          // the new one lifts the canonical intervals. Same points.
          EXPECT_EQ(points2(lifted.subset(c).rects()), points2(want));
        } else {
          EXPECT_EQ(lifted.subset(c).rects(), want) << "dim " << dim;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionReference, ::testing::Range(0, 40));

}  // namespace
}  // namespace spdistal::rt
