// Partitions and dependent partitioning (paper §III-A, Treichler et al.).
//
// A partition maps colors (0..N-1) to possibly-overlapping subsets of an
// index space. Partitions are created either directly (by bounds / equal
// blocks / value ranges) or *dependently* from existing partitions through
// image and preimage over index-space-valued regions — here, the PosRange
// entries of Compressed-level pos arrays (Figure 6) — and through the
// point-valued image over crd arrays. Equal blocks have one rule,
// equal_bounds; grid tiles of dense tensors (Figure 4c) are
// partition_by_bounds over fmt::dense_tiles (format/level_format.h).
#pragma once

#include <string>
#include <vector>

#include "runtime/index_space.h"
#include "runtime/region.h"

namespace spdistal::rt {

// Immutable after construction. A launch reads a partition's subsets when
// it is prepared (Runtime::prepare) and never again, so a partition need not
// outlive the launches prepared over it.
class Partition {
 public:
  Partition() = default;
  Partition(IndexSpace parent, std::vector<IndexSubset> subsets)
      : parent_(parent), subsets_(std::move(subsets)) {}

  const IndexSpace& parent() const { return parent_; }
  int num_colors() const { return static_cast<int>(subsets_.size()); }
  const IndexSubset& subset(int color) const {
    return subsets_.at(static_cast<size_t>(color));
  }
  const std::vector<IndexSubset>& subsets() const { return subsets_; }

  // True iff no point is assigned two colors.
  bool disjoint() const;
  // True iff every point of the parent space has a color.
  bool complete() const;

  std::string str() const;

 private:
  IndexSpace parent_;
  std::vector<IndexSubset> subsets_;
};

// --- Direct partitioning ---------------------------------------------------

// One subset per entry of `bounds` (clipped to the parent space).
Partition partition_by_bounds(const IndexSpace& space,
                              const std::vector<RectN>& bounds);

// The one blocking rule: [0, n) in `pieces` equal blocks, the trailing
// n % pieces blocks one coordinate longer (balanced blocking). A block past
// the end is empty. partition_equal, every distributed loop of a schedule
// and every TDN split block by it.
std::vector<Rect1> equal_bounds(Coord n, int pieces);

// Equal block partition of dimension `dim` into `pieces` colors, blocked by
// equal_bounds.
Partition partition_equal(const IndexSpace& space, int pieces, int dim = 0);

// Partition of the crd region's index space that colors position p with
// color c iff crd[p] ∈ ranges[c]. This is how universe partitions of
// Compressed levels bucket stored coordinates by value (Table I). Ranges
// may be empty, unsorted or overlapping (a value in two ranges gets both
// colors). One pass over the positions: O(nnz + R log R) for R ranges,
// plus the output.
Partition partition_by_value_ranges(const Region<int32_t>& crd,
                                    const std::vector<Rect1>& ranges);

// Restriction of partition_by_value_ranges to a subset of positions (used
// when an enclosing level has already restricted the segment range).
Partition partition_by_value_ranges(const Region<int32_t>& crd,
                                    const IndexSubset& positions,
                                    const std::vector<Rect1>& ranges);

// --- Dependent partitioning -------------------------------------------------
//
// None of these assumes a pos invariant: segments may be empty, out of
// order or overlapping (Figure 6b), and a color's subset may be any union
// of rects. Every returned subset is in canonical form.

// image(pos, P): colors every crd position reachable through a pos entry
// with its source's color: P'[c] = ∪ { [pos[i].lo, pos[i].hi] : i ∈ P[c] }.
// One pass over each color's entries, O(Σ|P[c]|): abutting segments merge
// as they are read, so only out-of-order pos costs a sort.
Partition image(const Region<PosRange>& pos, const Partition& pos_part,
                const IndexSpace& crd_space);

// image(crd, P), the point-valued image: colors every coordinate stored
// at a colored crd position: P'[c] = { crd[q] : q ∈ P[c] }. These are the
// coordinates a piece needs of a dense operand indexed by the level's
// variable (e.g. the halo of c in a banded SpMV). Each color marks its
// values in one bitmap over `coord_space` and reads the runs off in order:
// O(|P[c]| + span(P'[c]) / 64). Every crd value must lie in coord_space.
Partition image(const Region<int32_t>& crd, const Partition& crd_part,
                const IndexSpace& coord_space);

// preimage(pos, P): colors every pos entry whose range intersects a colored
// crd subset: P'[c] = { i : [pos[i].lo, pos[i].hi] ∩ P[c] ≠ ∅ }.
// One pass over the pos entries against the colors' rects cut into
// disjoint segments: O(n + R log R) for n entries and R rects, plus the
// segments each entry meets and the output. The walk is not repeated per
// color: a color adds only its own rects and output.
Partition preimage(const Region<PosRange>& pos, const Partition& crd_part);

// Re-parents a partition onto an index space with identical structure (the
// vals region is aligned 1:1 with the last level's crd region; Figure 9b
// line "BValsPart = copy(B2CrdPart, B.vals)").
Partition copy_partition(const Partition& part, const IndexSpace& new_parent);

// Lifts a 1-D partition of dimension `dim` of an N-D space to an N-D rect
// partition (all other dimensions unconstrained). Used to partition dense
// matrices/vectors row- or column-wise. Each color's canonical intervals
// become disjoint slabs, O(rects), with no N-D normalize.
Partition lift_to_dim(const Partition& part1d, const IndexSpace& nd_space,
                      int dim);

}  // namespace spdistal::rt
