// Schedule recipes: the searchable, IndexVar-independent encoding of a
// scheduling decision.
//
// A sched::Schedule names concrete IndexVars (identity by id), so a schedule
// found for one statement cannot be replayed verbatim against a structurally
// identical statement built later with fresh variables — which is exactly
// what a plan cache must do. A Recipe instead records the *decision*
// (universe vs non-zero distribution, split tensor, fusion depth, piece
// count, communication granularity, leaf parallelism) and is materialized
// into a concrete Schedule against any statement with the matching shape.
#pragma once

#include <optional>
#include <string>

#include "sched/schedule.h"
#include "tensor/tensor.h"

namespace spdistal::autosched {

struct Recipe {
  // Non-zero (position-space) distribution of `split_tensor`, vs a universe
  // (coordinate-block) distribution of the statement's outermost variable.
  bool position_space = false;
  // Pieces of the divide / divide_pos producing the distributed variable
  // (axis 0 of the piece grid).
  int pieces = 1;
  // Universe only: pieces of a second distributed axis over the statement's
  // second index variable (> 1 maps the loop nest onto a Machine(Grid(x, y))
  // as divide(i) + divide(j) + distribute(io) + distribute(jo); 1 = 1-D).
  int pieces_y = 1;
  // Universe only: pieces of a third distributed axis over the statement's
  // third index variable — a rank-3 (px, py, pz) machine grid. Requires
  // pieces_y > 1.
  int pieces_z = 1;
  // Position space only: tensor whose stored non-zeros are divided, and how
  // many of its leading storage levels are fused before the divide (>= 2).
  std::string split_tensor;
  int fuse_depth = 0;
  // Universe only: emit communicate({all tensors}, io), the Figure 1
  // spelling. Lowering ignores communicate(): compile only checks that its
  // tensors are bound (sched/schedule.h), so each such candidate prices the
  // same as its twin without it. The field stays only because deleting
  // those twins raised the search's cost (ROADMAP direction 1).
  bool communicate_all = false;
  // Leaf parallelization unit, if any.
  std::optional<sched::ParallelUnit> unit;

  bool operator==(const Recipe&) const = default;
  std::string str() const;
};

// Builds the concrete Schedule this recipe describes for `stmt`, minting
// fresh outer/inner (and fused) IndexVars from the statement's own
// variables. Throws ScheduleError if the statement does not have the shape
// the recipe assumes (e.g. the split tensor is absent).
sched::Schedule materialize(const Recipe& recipe, const Statement& stmt);

}  // namespace spdistal::autosched
