// Tests for the Table I level functions and full coordinate-tree
// partitioning (paper §IV-B, Figures 8 & 9c/d).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "format/level_format.h"

namespace spdistal::fmt {
namespace {

using comp::PlanOpKind;
using comp::PlanTrace;
using rt::Coord;
using rt::Rect1;
using rt::RectN;

Coo paper_coo() {
  Coo coo;
  coo.dims = {4, 4};
  coo.push({0, 0}, 1.0);
  coo.push({0, 1}, 2.0);
  coo.push({0, 3}, 3.0);
  coo.push({1, 1}, 4.0);
  coo.push({1, 3}, 5.0);
  coo.push({2, 0}, 6.0);
  coo.push({3, 0}, 7.0);
  coo.push({3, 3}, 8.0);
  return coo;
}

// Figure 9c: row-based SpMV partition. Initial universe partition of the
// Dense row level; derived partitions: pos copied from parent, crd = image,
// vals copied from crd.
TEST(CoordinateTree, RowBasedUniverseMatchesFigure9c) {
  TensorStorage B = pack("B", csr(), {4, 4}, paper_coo());
  PlanTrace trace;
  const LevelStorage& l1 = B.level(0);
  LevelPartitions init = LevelFuncs::get(l1.kind).universe_partition(
      trace, "B", 0, l1, {Rect1{0, 1}, Rect1{2, 3}});
  TensorPartition tp = partition_coordinate_tree(trace, B, 0, init);

  // Level 1 (rows): {0,1} and {2,3}.
  EXPECT_EQ(tp.level_parts[0].subset(0).volume(), 2);
  EXPECT_EQ(tp.level_parts[0].subset(1).volume(), 2);
  // Level 2 (crd positions): {0..4} and {5..7}.
  EXPECT_EQ(tp.level_parts[1].subset(0).bounds(), rt::RectN::make1(0, 4));
  EXPECT_EQ(tp.level_parts[1].subset(1).bounds(), rt::RectN::make1(5, 7));
  // vals mirror crd.
  EXPECT_EQ(tp.vals_part.subset(0).volume(), 5);
  EXPECT_EQ(tp.vals_part.subset(1).volume(), 3);

  // Generated "code" has the Figure 9b shape: a universe coloring, a
  // partitionByBounds, a pos copy + crd image, and a vals copy.
  EXPECT_EQ(trace.count(PlanOpKind::MakeUniverseColoring), 1);
  EXPECT_EQ(trace.count(PlanOpKind::PartitionByBounds), 1);
  EXPECT_EQ(trace.count(PlanOpKind::Image), 1);
  EXPECT_EQ(trace.count(PlanOpKind::CopyPartition), 2);  // pos + vals
  EXPECT_EQ(trace.count(PlanOpKind::Preimage), 0);
}

// Figure 9d: non-zero SpMV partition. Initial non-zero partition of the
// Compressed level; pos derived via preimage (overlapping), vals copied.
TEST(CoordinateTree, NonZeroMatchesFigure9d) {
  TensorStorage B = pack("B", csr(), {4, 4}, paper_coo());
  PlanTrace trace;
  const LevelStorage& l2 = B.level(1);
  LevelPartitions init = LevelFuncs::get(l2.kind).nonzero_partition(
      trace, "B", 1, l2, {Rect1{0, 3}, Rect1{4, 7}});
  TensorPartition tp = partition_coordinate_tree(trace, B, 1, init);

  // crd partition: {0..3}, {4..7} (perfect non-zero balance).
  EXPECT_EQ(tp.level_parts[1].subset(0).volume(), 4);
  EXPECT_EQ(tp.level_parts[1].subset(1).volume(), 4);
  // Row partition via preimage: row 1's segment {3,4} spans the cut, so it
  // is colored twice (Figure 8b).
  EXPECT_TRUE(tp.level_parts[0].subset(0).contains_point1(1));
  EXPECT_TRUE(tp.level_parts[0].subset(1).contains_point1(1));
  EXPECT_FALSE(tp.level_parts[0].disjoint());

  EXPECT_EQ(trace.count(PlanOpKind::MakeNonZeroColoring), 1);
  EXPECT_EQ(trace.count(PlanOpKind::Preimage), 1);
  EXPECT_EQ(trace.count(PlanOpKind::Image), 0);
}

// Universe partition of the Compressed level itself (column-space split):
// buckets crd entries by coordinate value, then preimages pos.
TEST(CoordinateTree, CompressedUniversePartition) {
  TensorStorage B = pack("B", csr(), {4, 4}, paper_coo());
  PlanTrace trace;
  const LevelStorage& l2 = B.level(1);
  LevelPartitions init = LevelFuncs::get(l2.kind).universe_partition(
      trace, "B", 1, l2, {Rect1{0, 1}, Rect1{2, 3}});
  // crd = 0 1 3 1 3 0 0 3 -> color 0 gets 5 positions, color 1 gets 3.
  EXPECT_EQ(init.child_facing.subset(0).volume(), 5);
  EXPECT_EQ(init.child_facing.subset(1).volume(), 3);
  EXPECT_EQ(trace.count(PlanOpKind::PartitionByValueRanges), 1);
  // Rows 0 and 3 touch both column halves: pos partition overlaps.
  EXPECT_FALSE(init.parent_facing.disjoint());
}

// CSF 3-tensor: partitioning the top level must propagate down two
// Compressed levels to vals.
TEST(CoordinateTree, Csf3TopDown) {
  Coo coo;
  coo.dims = {4, 5, 6};
  coo.push({0, 1, 2}, 1.0);
  coo.push({0, 1, 3}, 2.0);
  coo.push({1, 0, 0}, 3.0);
  coo.push({3, 4, 5}, 4.0);
  TensorStorage B = pack("B", csf3(), {4, 5, 6}, std::move(coo));
  PlanTrace trace;
  const LevelStorage& l1 = B.level(0);
  LevelPartitions init = LevelFuncs::get(l1.kind).universe_partition(
      trace, "B", 0, l1, {Rect1{0, 1}, Rect1{2, 3}});
  TensorPartition tp = partition_coordinate_tree(trace, B, 0, init);
  // Slices 0-1 hold 3 values; slices 2-3 hold 1.
  EXPECT_EQ(tp.vals_part.subset(0).volume(), 3);
  EXPECT_EQ(tp.vals_part.subset(1).volume(), 1);
  EXPECT_EQ(trace.count(PlanOpKind::Image), 2);  // two Compressed levels
}

// Fused non-zero partition of a 3-tensor's last level must propagate *up*
// through preimages to the top.
TEST(CoordinateTree, Csf3BottomUp) {
  Coo coo;
  coo.dims = {4, 5, 6};
  coo.push({0, 1, 2}, 1.0);
  coo.push({0, 1, 3}, 2.0);
  coo.push({1, 0, 0}, 3.0);
  coo.push({3, 4, 5}, 4.0);
  TensorStorage B = pack("B", csf3(), {4, 5, 6}, std::move(coo));
  PlanTrace trace;
  const LevelStorage& l3 = B.level(2);
  LevelPartitions init = LevelFuncs::get(l3.kind).nonzero_partition(
      trace, "B", 2, l3, {Rect1{0, 1}, Rect1{2, 3}});
  TensorPartition tp = partition_coordinate_tree(trace, B, 2, init);
  // Both colors hold 2 values.
  EXPECT_EQ(tp.vals_part.subset(0).volume(), 2);
  EXPECT_EQ(tp.vals_part.subset(1).volume(), 2);
  // The top level's partition covers every non-empty slice.
  EXPECT_TRUE(tp.level_parts[0].subset(0).contains_point1(0));
  EXPECT_TRUE(tp.level_parts[0].subset(1).contains_point1(3));
  // Upward propagation through a Compressed level uses preimage twice
  // (initial pos + one partitionFromChild).
  EXPECT_GE(trace.count(PlanOpKind::Preimage), 2);
}

// Patents-style {Dense, Dense, Compressed}: the middle Dense level expands /
// collapses partitions through linearized positions.
TEST(CoordinateTree, Ddc3DenseExpansion) {
  Coo coo;
  coo.dims = {4, 3, 6};
  coo.push({0, 0, 2}, 1.0);
  coo.push({0, 2, 3}, 2.0);
  coo.push({2, 1, 0}, 3.0);
  coo.push({3, 2, 5}, 4.0);
  TensorStorage B = pack("B", ddc3(), {4, 3, 6}, std::move(coo));
  PlanTrace trace;
  const LevelStorage& l1 = B.level(0);
  LevelPartitions init = LevelFuncs::get(l1.kind).universe_partition(
      trace, "B", 0, l1, {Rect1{0, 1}, Rect1{2, 3}});
  TensorPartition tp = partition_coordinate_tree(trace, B, 0, init);
  // Dense level 2 expands rows {0,1} to positions {0..5}, rows {2,3} to
  // positions {6..11}.
  EXPECT_EQ(tp.level_parts[1].subset(0).bounds(), rt::RectN::make1(0, 5));
  EXPECT_EQ(tp.level_parts[1].subset(1).bounds(), rt::RectN::make1(6, 11));
  EXPECT_EQ(tp.vals_part.subset(0).volume(), 2);
  EXPECT_EQ(tp.vals_part.subset(1).volume(), 2);
  EXPECT_EQ(trace.count(PlanOpKind::ExpandDense), 1);
}

TEST(CoordinateTree, DenseDeepUniverseRejected) {
  Coo coo;
  coo.dims = {4, 3};
  coo.push({0, 0}, 1.0);
  TensorStorage B =
      pack("B", Format({ModeFormat::Dense(), ModeFormat::Dense()}), {4, 3},
           std::move(coo));
  PlanTrace trace;
  const LevelStorage& l2 = B.level(1);
  EXPECT_THROW(LevelFuncs::get(l2.kind).universe_partition(
                   trace, "B", 1, l2, {Rect1{0, 1}, Rect1{2, 2}}),
               ScheduleError);
}

// --- Singleton level functions (Table I for COO chains) ----------------------

Coo paper_coo3() {
  Coo coo;
  coo.dims = {4, 5, 6};
  coo.push({0, 1, 2}, 1.0);
  coo.push({0, 1, 3}, 2.0);
  coo.push({1, 0, 0}, 3.0);
  coo.push({3, 4, 5}, 4.0);
  return coo;
}

// Non-zero partition of a COO matrix: splitting the Singleton chain's end
// propagates the same position ranges unchanged up to the Compressed root
// (positions are shared 1:1) and down to vals.
TEST(SingletonLevelFuncs, NonZeroPartitionPropagatesUnchanged) {
  TensorStorage B = pack("B", fmt::coo(2), {4, 4}, paper_coo());
  PlanTrace trace;
  const LevelStorage& l2 = B.level(1);
  ASSERT_TRUE(l2.kind.is_singleton());
  LevelPartitions init = LevelFuncs::get(l2.kind).nonzero_partition(
      trace, "B", 1, l2, {Rect1{0, 3}, Rect1{4, 7}});
  TensorPartition tp = partition_coordinate_tree(trace, B, 1, init);
  // Every level (and vals) carries exactly the same position split.
  for (int l = 0; l < 2; ++l) {
    EXPECT_EQ(tp.level_parts[static_cast<size_t>(l)].subset(0).bounds(),
              rt::RectN::make1(0, 3));
    EXPECT_EQ(tp.level_parts[static_cast<size_t>(l)].subset(1).bounds(),
              rt::RectN::make1(4, 7));
    EXPECT_TRUE(tp.level_parts[static_cast<size_t>(l)].disjoint());
  }
  EXPECT_EQ(tp.vals_part.subset(0).volume(), 4);
  EXPECT_EQ(tp.vals_part.subset(1).volume(), 4);
  EXPECT_TRUE(tp.vals_part.complete());
  // The derivations are pure copies: no images or preimages appear.
  EXPECT_EQ(trace.count(PlanOpKind::Image), 0);
  EXPECT_EQ(trace.count(PlanOpKind::Preimage), 0);
  EXPECT_GE(trace.count(PlanOpKind::CopyPartition), 2);
}

// Universe partition at a Singleton level buckets its crd by coordinate
// value; the parent-facing partition is the same sets, copied.
TEST(SingletonLevelFuncs, UniversePartitionBucketsByValue) {
  TensorStorage B = pack("B", fmt::coo(2), {4, 4}, paper_coo());
  PlanTrace trace;
  const LevelStorage& l2 = B.level(1);
  LevelPartitions init = LevelFuncs::get(l2.kind).universe_partition(
      trace, "B", 1, l2, {Rect1{0, 1}, Rect1{2, 3}});
  // Columns = 0 1 3 1 3 0 0 3 -> color 0 holds 5 positions, color 1 holds 3.
  EXPECT_EQ(init.child_facing.subset(0).volume(), 5);
  EXPECT_EQ(init.child_facing.subset(1).volume(), 3);
  EXPECT_EQ(init.parent_facing.subset(0).volume(), 5);
  EXPECT_EQ(init.parent_facing.subset(1).volume(), 3);
  EXPECT_EQ(trace.count(PlanOpKind::PartitionByValueRanges), 1);
}

// 3-D COO: a universe partition of the Compressed(non-unique) root splits
// duplicate row coordinates together, and the whole Singleton chain below
// follows by copy.
TEST(SingletonLevelFuncs, Coo3RootUniverseDerivesChain) {
  TensorStorage B = pack("B", fmt::coo(3), {4, 5, 6}, paper_coo3());
  PlanTrace trace;
  const LevelStorage& l1 = B.level(0);
  ASSERT_TRUE(l1.kind.is_compressed());
  EXPECT_FALSE(l1.kind.unique());
  LevelPartitions init = LevelFuncs::get(l1.kind).universe_partition(
      trace, "B", 0, l1, {Rect1{0, 1}, Rect1{2, 3}});
  TensorPartition tp = partition_coordinate_tree(trace, B, 0, init);
  // Rows 0,0,1 -> color 0 (3 entries); row 3 -> color 1 (1 entry).
  EXPECT_EQ(tp.vals_part.subset(0).volume(), 3);
  EXPECT_EQ(tp.vals_part.subset(1).volume(), 1);
  EXPECT_TRUE(tp.vals_part.complete());
  EXPECT_TRUE(tp.vals_part.disjoint());
  // Singleton chain levels mirror the root's position partition.
  for (int l = 1; l < 3; ++l) {
    EXPECT_EQ(tp.level_parts[static_cast<size_t>(l)].subset(0).volume(), 3);
    EXPECT_EQ(tp.level_parts[static_cast<size_t>(l)].subset(1).volume(), 1);
  }
}

// Fused non-zero split of the 3-D COO chain: the initial partition at the
// last Singleton propagates to every level and vals unchanged.
TEST(SingletonLevelFuncs, Coo3NonZeroChain) {
  TensorStorage B = pack("B", fmt::coo(3), {4, 5, 6}, paper_coo3());
  PlanTrace trace;
  const LevelStorage& l3 = B.level(2);
  LevelPartitions init = LevelFuncs::get(l3.kind).nonzero_partition(
      trace, "B", 2, l3, {Rect1{0, 1}, Rect1{2, 3}});
  TensorPartition tp = partition_coordinate_tree(trace, B, 2, init);
  for (int l = 0; l < 3; ++l) {
    EXPECT_EQ(tp.level_parts[static_cast<size_t>(l)].subset(0).bounds(),
              rt::RectN::make1(0, 1));
    EXPECT_EQ(tp.level_parts[static_cast<size_t>(l)].subset(1).bounds(),
              rt::RectN::make1(2, 3));
  }
  EXPECT_TRUE(tp.vals_part.complete());
  EXPECT_TRUE(tp.vals_part.disjoint());
}

// The shared region mapping gives a Singleton level its crd only (no pos),
// so color_bytes, which sums the mapping, counts no pos bytes for it.
TEST(SingletonLevelFuncs, ColorBytesCountsCrdOnly) {
  TensorStorage B = pack("B", fmt::coo(2), {4, 4}, paper_coo());
  PlanTrace trace;
  const LevelStorage& l2 = B.level(1);
  LevelPartitions init = LevelFuncs::get(l2.kind).nonzero_partition(
      trace, "B", 1, l2, {Rect1{0, 3}, Rect1{4, 7}});
  TensorPartition tp = partition_coordinate_tree(trace, B, 1, init);
  // vals, the root's crd and whole pos, then the Singleton's crd alone.
  using Role = RegionPart::Role;
  const std::vector<RegionPart> regions = tp.regions(B);
  ASSERT_EQ(regions.size(), 4u);
  EXPECT_EQ(regions[0].role, Role::Vals);
  EXPECT_EQ(regions[1].role, Role::Crd);
  EXPECT_EQ(regions[2].role, Role::Pos);
  EXPECT_FALSE(regions[2].part.has_value());
  EXPECT_EQ(regions[3].role, Role::Crd);
  EXPECT_EQ(regions[3].level, 1);
  // Per color: 4 vals (8B), 4 root crd (4B), 4 singleton crd (4B), and the
  // root pos region (1 PosRange entry, parent_positions == 1).
  const int64_t expect = 4 * 8 + 4 * 4 + 4 * 4 +
                         static_cast<int64_t>(sizeof(rt::PosRange));
  EXPECT_EQ(tp.color_bytes(B, 0), expect);
  EXPECT_EQ(tp.color_bytes(B, 1), expect);
}

// Grid(px, py) tiles of a rows x cols dense matrix from the shared tiler:
// level 0 cut by the row blocks of grid axis 0, level 1 by the column blocks
// of axis 1, colors row-major (Figure 4c).
rt::Partition grid_tiles(Coord rows, Coord cols, int px, int py) {
  Coo coo;
  coo.dims = {rows, cols};
  TensorStorage A = pack("A", dense_matrix(), {rows, cols}, std::move(coo));
  const std::vector<int> shape = {px, py};
  const std::vector<RectN> tiles = dense_tiles(
      A, px * py,
      {LevelCut{0, color_blocks(shape, 0, rt::equal_bounds(rows, px))},
       LevelCut{1, color_blocks(shape, 1, rt::equal_bounds(cols, py))}});
  return rt::partition_by_bounds(A.vals()->space(), tiles);
}

TEST(Grid2, TilesMatrix) {
  rt::Partition p = grid_tiles(10, 20, 2, 2);
  ASSERT_EQ(p.num_colors(), 4);
  for (int c = 0; c < 4; ++c) EXPECT_EQ(p.subset(c).volume(), 50);
  EXPECT_TRUE(p.disjoint());
  EXPECT_TRUE(p.complete());
  // Row-major colors: color 1 is row block 0, column block 1.
  EXPECT_EQ(p.subset(1).bounds(), RectN::make2(0, 4, 10, 19));
}

// More row pieces than rows: the empty row blocks give empty tiles, and the
// tiles still cover the matrix once.
TEST(Grid2, MorePiecesThanRows) {
  rt::Partition p = grid_tiles(2, 10, 4, 2);  // 2 rows, 10 cols
  ASSERT_EQ(p.num_colors(), 8);
  int64_t total = 0;
  for (int c = 0; c < 8; ++c) total += p.subset(c).volume();
  EXPECT_EQ(total, 20);
  EXPECT_TRUE(p.disjoint());
  EXPECT_TRUE(p.complete());
}

// Property: on random CSR tensors, every coordinate-tree partition (row and
// non-zero based) keeps all values reachable: the union of vals subsets is
// complete, and each color's rows/crds cover exactly its vals.
class CoordinateTreeProperty : public ::testing::TestWithParam<int> {};

TEST_P(CoordinateTreeProperty, ValsCoverage) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 19);
  const Coord n = 2 + static_cast<Coord>(rng.next_below(50));
  const Coord m = 2 + static_cast<Coord>(rng.next_below(50));
  Coo coo;
  coo.dims = {n, m};
  const int k = 1 + static_cast<int>(rng.next_below(150));
  for (int i = 0; i < k; ++i) {
    coo.push({rng.next_range(0, n - 1), rng.next_range(0, m - 1)}, 1.0);
  }
  TensorStorage B = pack("B", csr(), {n, m}, std::move(coo));
  const int pieces = 1 + static_cast<int>(rng.next_below(5));

  {
    PlanTrace trace;
    rt::Partition rows = rt::partition_equal(rt::IndexSpace(n), pieces);
    std::vector<Rect1> bounds;
    for (int c = 0; c < pieces; ++c) {
      const auto& rects = rows.subset(c).rects();
      bounds.push_back(rects.empty() ? Rect1{0, -1}
                                     : Rect1{rects[0].lo[0], rects[0].hi[0]});
    }
    LevelPartitions init = LevelFuncs::get(ModeFormat::Dense())
                               .universe_partition(trace, "B", 0, B.level(0),
                                                   bounds);
    TensorPartition tp = partition_coordinate_tree(trace, B, 0, init);
    EXPECT_TRUE(tp.vals_part.complete());
    EXPECT_TRUE(tp.vals_part.disjoint());
  }
  {
    PlanTrace trace;
    rt::Partition nz =
        rt::partition_equal(rt::IndexSpace(B.level(1).positions), pieces);
    std::vector<Rect1> bounds;
    for (int c = 0; c < pieces; ++c) {
      const auto& rects = nz.subset(c).rects();
      bounds.push_back(rects.empty() ? Rect1{0, -1}
                                     : Rect1{rects[0].lo[0], rects[0].hi[0]});
    }
    LevelPartitions init = LevelFuncs::get(ModeFormat::Compressed())
                               .nonzero_partition(trace, "B", 1, B.level(1),
                                                  bounds);
    TensorPartition tp = partition_coordinate_tree(trace, B, 1, init);
    EXPECT_TRUE(tp.vals_part.complete());
    EXPECT_TRUE(tp.vals_part.disjoint());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCsr, CoordinateTreeProperty,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace spdistal::fmt
