#include "format/level_format.h"

#include <algorithm>

#include "common/str_util.h"

namespace spdistal::fmt {

using comp::PlanOpKind;
using rt::Coord;
using rt::IndexSpace;
using rt::IndexSubset;
using rt::Partition;
using rt::Rect1;
using rt::RectN;

namespace {

std::string lvl(const std::string& tensor, int level_idx) {
  return strprintf("%s%d", tensor.c_str(), level_idx + 1);
}

// Expands a partition of parent positions to this (Dense) level's positions:
// parent position p owns positions [p*extent, (p+1)*extent).
Partition expand_dense(const Partition& parent, Coord extent,
                       Coord positions) {
  std::vector<IndexSubset> subsets;
  subsets.reserve(static_cast<size_t>(parent.num_colors()));
  for (int c = 0; c < parent.num_colors(); ++c) {
    IndexSubset out(1);
    for (const auto& r : parent.subset(c).rects()) {
      out.add(RectN::make1(r.lo[0] * extent, (r.hi[0] + 1) * extent - 1));
    }
    out.normalize();
    subsets.push_back(std::move(out));
  }
  return Partition(IndexSpace(positions), std::move(subsets));
}

// Collapses a partition of this (Dense) level's positions to the parent's:
// position q belongs to parent position q / extent.
Partition collapse_dense(const Partition& child, Coord extent,
                         Coord parent_positions) {
  std::vector<IndexSubset> subsets;
  subsets.reserve(static_cast<size_t>(child.num_colors()));
  for (int c = 0; c < child.num_colors(); ++c) {
    IndexSubset out(1);
    for (const auto& r : child.subset(c).rects()) {
      out.add(RectN::make1(r.lo[0] / extent, r.hi[0] / extent));
    }
    out.normalize();
    subsets.push_back(std::move(out));
  }
  return Partition(IndexSpace(parent_positions), std::move(subsets));
}

// The per-color bounds as rects of a 1-D space.
std::vector<RectN> rects_of(const std::vector<Rect1>& bounds) {
  std::vector<RectN> out;
  out.reserve(bounds.size());
  for (const Rect1& b : bounds) out.push_back(RectN(b));
  return out;
}

class DenseLevelFuncs final : public LevelFuncs {
 public:
  LevelPartitions universe_partition(
      comp::PlanTrace& trace, const std::string& tensor, int level_idx,
      const LevelStorage& level,
      const std::vector<rt::Rect1>& coord_bounds) const override {
    SPD_CHECK(level.parent_positions == 1, ScheduleError,
              "initial universe partition of a Dense level below other "
              "levels is unsupported (distribute an outer variable instead) "
              "for tensor "
                  << tensor);
    const std::string l = lvl(tensor, level_idx);
    trace.append(PlanOpKind::MakeUniverseColoring,
                 strprintf("Coloring %s_coloring = "
                           "universeBounds(pieces=%zu)  // %s.init/create/"
                           "finalizeUniversePartition",
                           l.c_str(), coord_bounds.size(), l.c_str()));
    return cut(trace, l, level, coord_bounds);
  }

  LevelPartitions nonzero_partition(
      comp::PlanTrace& trace, const std::string& tensor, int level_idx,
      const LevelStorage& level,
      const std::vector<rt::Rect1>& pos_bounds) const override {
    const std::string l = lvl(tensor, level_idx);
    trace.append(PlanOpKind::MakeNonZeroColoring,
                 strprintf("Coloring %s_coloring = nonZeroBounds(pieces=%zu)",
                           l.c_str(), pos_bounds.size()));
    return cut(trace, l, level, pos_bounds);
  }

  Partition partition_from_parent(comp::PlanTrace& trace,
                                  const std::string& tensor, int level_idx,
                                  const LevelStorage& level,
                                  const rt::Partition& parent) const override {
    trace.append(PlanOpKind::ExpandDense,
                 strprintf("%s_part = copy(parentPart)  // dense expand",
                           lvl(tensor, level_idx).c_str()));
    return expand_dense(parent, level.extent, level.positions);
  }

  Partition partition_from_child(comp::PlanTrace& trace,
                                 const std::string& tensor, int level_idx,
                                 const LevelStorage& level,
                                 const rt::Partition& child) const override {
    trace.append(PlanOpKind::CollapseDense,
                 strprintf("%sParent_part = copy(childPart)  // dense collapse",
                           lvl(tensor, level_idx).c_str()));
    return collapse_dense(child, level.extent, level.parent_positions);
  }

 private:
  // Positions and coordinates coincide on a Dense level, so both initial
  // partitions cut its positions by the bounds (Table I).
  static LevelPartitions cut(comp::PlanTrace& trace, const std::string& l,
                             const LevelStorage& level,
                             const std::vector<Rect1>& bounds) {
    Partition p = rt::partition_by_bounds(IndexSpace(level.positions),
                                          rects_of(bounds));
    trace.append(PlanOpKind::PartitionByBounds,
                 strprintf("%s_part = partitionByBounds(%s.dom, %s_coloring)",
                           l.c_str(), l.c_str(), l.c_str()));
    return LevelPartitions{
        collapse_dense(p, level.extent, level.parent_positions), p};
  }
};

// Compressed and Singleton levels store crd: an initial partition cuts the
// crd positions, by stored value (universe) or by position (non-zero), and
// the level derives the parent-facing partition from it with parent_of.
class CrdLevelFuncs : public LevelFuncs {
 public:
  LevelPartitions universe_partition(
      comp::PlanTrace& trace, const std::string& tensor, int level_idx,
      const LevelStorage& level,
      const std::vector<rt::Rect1>& coord_bounds) const final {
    const std::string l = lvl(tensor, level_idx);
    trace.append(PlanOpKind::MakeUniverseColoring,
                 strprintf("Coloring %s_crd_coloring = "
                           "universeBounds(pieces=%zu)",
                           l.c_str(), coord_bounds.size()));
    Partition p_crd = rt::partition_by_value_ranges(*level.crd, coord_bounds);
    trace.append(PlanOpKind::PartitionByValueRanges,
                 strprintf("%s_crd_part = partitionByValueRanges(%s_crd_"
                           "coloring, %s.crd)",
                           l.c_str(), l.c_str(), l.c_str()));
    return LevelPartitions{parent_of(trace, l, level, p_crd),
                           std::move(p_crd)};
  }

  LevelPartitions nonzero_partition(
      comp::PlanTrace& trace, const std::string& tensor, int level_idx,
      const LevelStorage& level,
      const std::vector<rt::Rect1>& pos_bounds) const final {
    const std::string l = lvl(tensor, level_idx);
    trace.append(PlanOpKind::MakeNonZeroColoring,
                 strprintf("Coloring %s_crd_coloring = nonZeroBounds("
                           "pieces=%zu)",
                           l.c_str(), pos_bounds.size()));
    Partition p_crd = rt::partition_by_bounds(
        IndexSpace(std::max<Coord>(level.positions, 1)), rects_of(pos_bounds));
    trace.append(PlanOpKind::PartitionByBounds,
                 strprintf("%s_crd_part = partitionByBounds(%s_crd_coloring, "
                           "%s.crd)",
                           l.c_str(), l.c_str(), l.c_str()));
    return LevelPartitions{parent_of(trace, l, level, p_crd),
                           std::move(p_crd)};
  }

 protected:
  // The parent-facing partition of a partition of this level's positions;
  // `l` names the level in plan ops.
  virtual Partition parent_of(comp::PlanTrace& trace, const std::string& l,
                              const LevelStorage& level,
                              const Partition& p_crd) const = 0;
};

class CompressedLevelFuncs final : public CrdLevelFuncs {
 public:
  Partition partition_from_parent(comp::PlanTrace& trace,
                                  const std::string& tensor, int level_idx,
                                  const LevelStorage& level,
                                  const rt::Partition& parent) const override {
    // P_pos = copy(parentPart); P_crd = image(pos, P_pos, crd).
    const std::string l = lvl(tensor, level_idx);
    Partition p_pos = rt::copy_partition(parent, level.pos->space());
    trace.append(PlanOpKind::CopyPartition,
                 strprintf("%s_pos_part = copy(parentPart, %s.pos)", l.c_str(),
                           l.c_str()));
    Partition p_crd = rt::image(
        *level.pos, p_pos,
        IndexSpace(std::max<Coord>(level.positions, 1)));
    trace.append(PlanOpKind::Image,
                 strprintf("%s_crd_part = image(%s.pos, %s_pos_part, %s.crd)",
                           l.c_str(), l.c_str(), l.c_str(), l.c_str()));
    return p_crd;
  }

  Partition partition_from_child(comp::PlanTrace& trace,
                                 const std::string& tensor, int level_idx,
                                 const LevelStorage& level,
                                 const rt::Partition& child) const override {
    // P_crd = copy(childPart); P_pos = preimage(pos, P_crd, crd).
    const std::string l = lvl(tensor, level_idx);
    trace.append(PlanOpKind::CopyPartition,
                 strprintf("%s_crd_part = copy(childPart, %s.crd)", l.c_str(),
                           l.c_str()));
    return parent_of(trace, l, level, child);
  }

 protected:
  Partition parent_of(comp::PlanTrace& trace, const std::string& l,
                      const LevelStorage& level,
                      const Partition& p_crd) const override {
    Partition p_pos = rt::preimage(*level.pos, p_crd);
    trace.append(PlanOpKind::Preimage,
                 strprintf("%s_pos_part = preimage(%s.pos, %s_crd_part)",
                           l.c_str(), l.c_str(), l.c_str()));
    return p_pos;
  }
};

// Singleton: one stored coordinate per position, positions shared 1:1 with
// the parent level. Derived partitions therefore propagate the parent's (or
// child's) position partition unchanged — a whole Singleton chain moves as
// one unit under position splits, which is what makes COO's fused non-zero
// distribution legal.
class SingletonLevelFuncs final : public CrdLevelFuncs {
 public:
  Partition partition_from_parent(comp::PlanTrace& trace,
                                  const std::string& tensor, int level_idx,
                                  const LevelStorage& level,
                                  const rt::Partition& parent) const override {
    trace.append(PlanOpKind::CopyPartition,
                 strprintf("%s_crd_part = copy(parentPart)  // singleton "
                           "passthrough",
                           lvl(tensor, level_idx).c_str()));
    return rt::copy_partition(
        parent, IndexSpace(std::max<Coord>(level.positions, 1)));
  }

  Partition partition_from_child(comp::PlanTrace& trace,
                                 const std::string& tensor, int level_idx,
                                 const LevelStorage& level,
                                 const rt::Partition& child) const override {
    trace.append(PlanOpKind::CopyPartition,
                 strprintf("%sParent_part = copy(childPart)  // singleton "
                           "passthrough",
                           lvl(tensor, level_idx).c_str()));
    return rt::copy_partition(
        child, IndexSpace(std::max<Coord>(level.parent_positions, 1)));
  }

 protected:
  // Positions are the parent's: the parent-facing partition is a copy.
  Partition parent_of(comp::PlanTrace& trace, const std::string& l,
                      const LevelStorage& level,
                      const Partition& p_crd) const override {
    Partition p_pos = rt::copy_partition(
        p_crd, IndexSpace(std::max<Coord>(level.parent_positions, 1)));
    trace.append(PlanOpKind::CopyPartition,
                 strprintf("%s_pos_part = copy(%s_crd_part)  // singleton",
                           l.c_str(), l.c_str()));
    return p_pos;
  }
};

}  // namespace

const LevelFuncs& LevelFuncs::get(ModeFormat mf) {
  static const DenseLevelFuncs dense;
  static const CompressedLevelFuncs compressed;
  static const SingletonLevelFuncs singleton;
  switch (mf.kind()) {
    case LevelKind::Dense:
      return dense;
    case LevelKind::Compressed:
      return compressed;
    case LevelKind::Singleton:
      return singleton;
  }
  return dense;
}

std::vector<RegionPart> TensorPartition::regions(
    const TensorStorage& storage) const {
  std::vector<RegionPart> out;
  out.push_back(RegionPart{RegionPart::Role::Vals, -1, storage.vals(),
                           vals_part});
  for (int l = 0; l < storage.num_levels(); ++l) {
    const LevelStorage& level = storage.level(l);
    if (!level.kind.has_crd()) continue;
    out.push_back(RegionPart{RegionPart::Role::Crd, l, level.crd,
                             level_parts[static_cast<size_t>(l)]});
    if (!level.kind.has_pos()) continue;  // Singleton: crd only
    RegionPart pos{RegionPart::Role::Pos, l, level.pos, std::nullopt};
    if (l > 0) {
      pos.part = rt::copy_partition(level_parts[static_cast<size_t>(l - 1)],
                                    level.pos->space());
    }
    out.push_back(std::move(pos));
  }
  return out;
}

int64_t TensorPartition::color_bytes(const TensorStorage& storage,
                                     int color) const {
  int64_t bytes = 0;
  for (const RegionPart& r : regions(storage)) {
    const int64_t elems = r.part ? r.part->subset(color).volume()
                                 : r.region->space().volume();
    bytes += elems * static_cast<int64_t>(r.region->elem_size());
  }
  return bytes;
}

TensorPartition partition_coordinate_tree(comp::PlanTrace& trace,
                                          const TensorStorage& storage,
                                          int initial_level,
                                          const LevelPartitions& initial) {
  const int order = storage.num_levels();
  SPD_ASSERT(initial_level >= 0 && initial_level < order,
             "bad initial level " << initial_level);
  TensorPartition tp;
  tp.level_parts.resize(static_cast<size_t>(order));
  tp.level_parts[static_cast<size_t>(initial_level)] = initial.child_facing;

  // Downward: partitionFromParent for each level below the initial one.
  Partition down = initial.child_facing;
  for (int l = initial_level + 1; l < order; ++l) {
    const LevelStorage& level = storage.level(l);
    down = LevelFuncs::get(level.kind)
               .partition_from_parent(trace, storage.name(), l, level, down);
    tp.level_parts[static_cast<size_t>(l)] = down;
  }

  // Upward: the initial level's parent-facing partition already partitions
  // level initial_level-1's positions; recurse with partitionFromChild.
  Partition up = initial.parent_facing;
  for (int l = initial_level - 1; l >= 0; --l) {
    const LevelStorage& level = storage.level(l);
    tp.level_parts[static_cast<size_t>(l)] = up;
    if (l > 0) {
      up = LevelFuncs::get(level.kind)
               .partition_from_child(trace, storage.name(), l, level, up);
    }
  }

  // vals aligns 1:1 with the last level's positions.
  tp.vals_part = rt::copy_partition(tp.level_parts.back(),
                                    storage.vals()->space());
  trace.append(comp::PlanOpKind::CopyPartition,
               strprintf("%s_vals_part = copy(%s%d_part, %s.vals)",
                         storage.name().c_str(), storage.name().c_str(),
                         order, storage.name().c_str()));
  return tp;
}

std::vector<Rect1> color_blocks(const std::vector<int>& shape, int axis,
                                const std::vector<Rect1>& axis_blocks) {
  int colors = 1;
  int stride = 1;  // colors between consecutive blocks of `axis`
  for (size_t a = 0; a < shape.size(); ++a) {
    colors *= shape[a];
    if (static_cast<int>(a) > axis) stride *= shape[a];
  }
  const int n = shape[static_cast<size_t>(axis)];
  std::vector<Rect1> out;
  out.reserve(static_cast<size_t>(colors));
  for (int c = 0; c < colors; ++c) {
    out.push_back(axis_blocks[static_cast<size_t>(c / stride % n)]);
  }
  return out;
}

std::vector<RectN> dense_tiles(const TensorStorage& storage, int colors,
                               const std::vector<LevelCut>& cuts) {
  std::vector<RectN> tiles(static_cast<size_t>(colors),
                           storage.vals()->space().bounds());
  for (int c = 0; c < colors; ++c) {
    RectN& t = tiles[static_cast<size_t>(c)];
    for (const LevelCut& cut : cuts) {
      const Rect1 b = cut.bounds[static_cast<size_t>(c)];
      t.lo[cut.level] = std::max(t.lo[cut.level], b.lo);
      t.hi[cut.level] = std::min(t.hi[cut.level], b.hi);
    }
  }
  return tiles;
}

const TensorPartition& TreeBuilder::build(const TensorStorage& storage,
                                          const TreeSpec& spec) {
  for (const Built& b : built_) {
    if (b.storage == &storage && b.spec == spec) return b.tree;
  }
  const LevelStorage& ls = storage.level(spec.level);
  const LevelFuncs& funcs = LevelFuncs::get(ls.kind);
  const LevelPartitions init =
      spec.nonzero ? funcs.nonzero_partition(trace_, storage.name(),
                                             spec.level, ls, spec.bounds)
                   : funcs.universe_partition(trace_, storage.name(),
                                              spec.level, ls, spec.bounds);
  built_.push_back(Built{
      &storage, spec,
      partition_coordinate_tree(trace_, storage, spec.level, init)});
  return built_.back().tree;
}

}  // namespace spdistal::fmt
