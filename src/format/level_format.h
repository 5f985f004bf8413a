// Format abstractions for sparse tensor partitioning (paper §IV-B, Table I).
//
// Each level format implements six level functions that the code generator
// calls to produce partitioning code:
//   - universe partition  (init/create/finalizeUniversePartition): an
//     initial partition of the level from per-color *coordinate* bounds;
//   - non-zero partition  (init/create/finalizeNonZeroPartition): an initial
//     partition from per-color *position* bounds;
//   - partitionFromParent / partitionFromChild: derived partitions that
//     propagate an existing partition down/up the coordinate tree.
//
// Conventions (matching §III-B's storage layout):
//   * "this level's positions" are crd indices (Compressed) or implicit
//     coordinates (Dense);
//   * a Compressed level's pos region is indexed by the parent level's
//     positions, so its preimage-derived P_pos is directly a partition of
//     the parent's position space;
//   * a Singleton level's positions ARE the parent level's positions
//     (crd-only storage), so both derived partitions are copies — a
//     Singleton chain propagates a position partition unchanged in either
//     direction;
//   * parent_facing results partition the PARENT level's position space;
//     child_facing results partition THIS level's position space (which is
//     what the child level's pos region is indexed by).
//
// Every function appends the operations it generates to a PlanTrace — the
// Figure 9b-style "generated code" that compiler tests inspect.
//
// Lowering and TDN placement cut tensors through the same helpers, below:
// TreeBuilder (level function + partition_coordinate_tree, built once per
// storage and spec within an instantiate), dense_tiles over color_blocks'
// row-major grid, and TensorPartition::regions, the one mapping from a
// tree to the regions of a tensor's storage.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compiler/plan_ir.h"
#include "format/storage.h"
#include "runtime/partition.h"

namespace spdistal::fmt {

struct LevelPartitions {
  rt::Partition parent_facing;
  rt::Partition child_facing;
};

class LevelFuncs {
 public:
  virtual ~LevelFuncs() = default;

  // Dispatch by mode format (the registry of Chou et al.'s abstraction).
  static const LevelFuncs& get(ModeFormat mf);

  // Initial universe partition from per-color coordinate ranges.
  virtual LevelPartitions universe_partition(
      comp::PlanTrace& trace, const std::string& tensor, int level_idx,
      const LevelStorage& level,
      const std::vector<rt::Rect1>& coord_bounds) const = 0;

  // Initial non-zero partition from per-color position ranges.
  virtual LevelPartitions nonzero_partition(
      comp::PlanTrace& trace, const std::string& tensor, int level_idx,
      const LevelStorage& level,
      const std::vector<rt::Rect1>& pos_bounds) const = 0;

  // Derived partition of this level from a partition of the parent level's
  // positions; returns the child-facing partition.
  virtual rt::Partition partition_from_parent(
      comp::PlanTrace& trace, const std::string& tensor, int level_idx,
      const LevelStorage& level, const rt::Partition& parent) const = 0;

  // Derived partition of the parent level's positions from a partition of
  // this level's positions.
  virtual rt::Partition partition_from_child(
      comp::PlanTrace& trace, const std::string& tensor, int level_idx,
      const LevelStorage& level, const rt::Partition& child) const = 0;
};

// One region of a tensor's storage and its share of a TensorPartition.
struct RegionPart {
  enum class Role { Vals, Crd, Pos };
  Role role = Role::Vals;
  int level = -1;  // the storage level of a crd or pos region
  std::shared_ptr<rt::RegionBase> region;
  // Empty when every color takes the whole region.
  std::optional<rt::Partition> part;
};

// A full coordinate-tree partition of one tensor: a partition of every
// level's position space plus the aligned vals partition (Figures 8 & 9c/d).
struct TensorPartition {
  // child-facing partition per level (level_parts[l] partitions level l's
  // position space).
  std::vector<rt::Partition> level_parts;
  rt::Partition vals_part;

  // The region mapping, the one walk that launch requirements, placements
  // and byte counts share. In storage order: vals takes vals_part, then
  // each level's crd takes level_parts[l] and its pos, indexed by the
  // parent level's positions, a copy of level_parts[l - 1]. The root's pos,
  // indexed by the single root position, is whole. Singleton levels store
  // crd only and Dense levels neither.
  std::vector<RegionPart> regions(const TensorStorage& storage) const;
  // Bytes of tensor data the region mapping assigns to `color`.
  int64_t color_bytes(const TensorStorage& storage, int color) const;
};

// Implements partitionCoordinateTrees / partitionNonZeroCoordinateTree of
// Figure 9a: given an initial partition of level `initial_level`, derive
// partitions of every level above (via partitionFromChild) and below (via
// partitionFromParent), then copy the last level's partition onto vals.
TensorPartition partition_coordinate_tree(comp::PlanTrace& trace,
                                          const TensorStorage& storage,
                                          int initial_level,
                                          const LevelPartitions& initial);

// The per-color blocks of one axis of a row-major color grid of `shape`:
// color c takes axis_blocks[c's coordinate along `axis`].
std::vector<rt::Rect1> color_blocks(const std::vector<int>& shape, int axis,
                                    const std::vector<rt::Rect1>& axis_blocks);

// One level of a dense tensor cut by per-color bounds.
struct LevelCut {
  int level = 0;
  std::vector<rt::Rect1> bounds;  // one per color
};

// The dense tiler: per color, the box of the storage's vals space with every
// cut level clamped to that color's bound. A level no cut names stays whole,
// so a tile is replicated across the grid axes that do not cut the tensor.
std::vector<rt::RectN> dense_tiles(const TensorStorage& storage, int colors,
                                   const std::vector<LevelCut>& cuts);

// What a coordinate-tree partition is built from: the initial level, whether
// its bounds are coordinates (universe) or positions (non-zero), and one
// bound per color.
struct TreeSpec {
  int level = 0;
  bool nonzero = false;
  std::vector<rt::Rect1> bounds;
  bool operator==(const TreeSpec&) const = default;
};

// The coordinate-tree builder. build() calls spec.level's universe or
// non-zero level function and then partition_coordinate_tree, and keeps
// the tree, so a second request for the same storage and spec returns the
// tree already built with no new plan ops. One builder serves one
// instantiate: the launch's partitions first, then the TDN placements, so a
// placement that matches the launch installs the launch's tree.
class TreeBuilder {
 public:
  explicit TreeBuilder(comp::PlanTrace& trace) : trace_(trace) {}
  comp::PlanTrace& trace() { return trace_; }
  const TensorPartition& build(const TensorStorage& storage,
                               const TreeSpec& spec);

 private:
  struct Built {
    const TensorStorage* storage;
    TreeSpec spec;
    TensorPartition tree;
  };
  comp::PlanTrace& trace_;
  std::deque<Built> built_;  // stable addresses for build()'s references
};

}  // namespace spdistal::fmt
