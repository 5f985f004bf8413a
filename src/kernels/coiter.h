// General sparse co-iteration leaf engine: evaluates one piece of any
// sum-of-products tensor index notation statement over Dense, Compressed
// and Singleton storage, the universal leaf the compiler falls back to when
// no specialized kernel matches. TACO-style iteration (paper §II-C,
// Senanayake et al.): coordinate-value iteration loops over index variables
// in order, one level driving each loop and the other operands' levels
// probing its coordinates (intersection semantics for products), for
// universe partitions; coordinate-position iteration drives a window of
// stored positions of one tensor's (possibly fused) levels, for non-zero
// partitions.
//
// The constructor lowers the statement once into a loop plan (Chou et al.'s
// level iteration functions, compiled per statement rather than interpreted
// per piece): per product term its literal coefficient, its operands and one
// loop nest for coordinate-value iteration plus one for a window over each
// leading level of each operand. A nest holds, per loop, the variable's
// extent, the level that drives it (or none: a dense loop) and the levels
// the other operands then descend in order (Dense ones by arithmetic,
// Singleton and Compressed ones by probing); per operand, the loop of each
// storage level's variable. run() only resolves accessors, bounds each loop
// by the piece and walks the nest by plain recursion, with one position slot
// per (operand, level).
//
// Constraints (checked, with clear errors):
//   * the statement must be a sum of products (no Add under Mul);
//   * each access's Compressed levels must appear in iteration order; dense
//     tensors are exempt (random access);
//   * the loop order must descend every level of each sparse access (with
//     COO B, a(i) = B(i,i) * c(i) never reaches B's Singleton level);
//   * a non-unique level must drive its variable: probing one, or putting
//     two on one loop, raises when run() reaches that loop;
//   * sparse outputs must have their pattern pre-assembled (see assembly.h).
#pragma once

#include <optional>

#include "runtime/index_space.h"
#include "tensor/tensor.h"

namespace spdistal::kern {

// Restriction of one evaluation to a piece of the iteration space.
struct PieceBounds {
  // Coordinate-value iteration: bounds on the outermost (distributed) index
  // variable. Empty optional = full range.
  std::optional<rt::Rect1> dist_coords;
  // Additional per-variable coordinate bounds for the inner axes of a
  // multi-dimensional (grid) distribution, keyed by IndexVar id. A variable
  // absent from this list iterates its full range.
  std::vector<std::pair<uint32_t, rt::Rect1>> var_coords;
  // Coordinate-position iteration: bounds on stored positions of
  // `pos_tensor`'s level `pos_level` (the last fused level). Lowering
  // clamps it to the positions that level stores, and so does the engine.
  std::optional<rt::Rect1> dist_pos;
  std::string pos_tensor;
  int pos_level = 0;

  // The bound recorded for variable `var_id` in var_coords, or `full`.
  rt::Rect1 var_bound(uint32_t var_id, rt::Rect1 full) const {
    for (const auto& [id, r] : var_coords) {
      if (id == var_id) full = full.intersect(r);
    }
    return full;
  }
};

class CoiterEngine {
 public:
  // `var_order` is the loop order (defaults to statement_vars order when
  // empty). Validates schedulability against every access and builds the
  // loop plan.
  CoiterEngine(const Statement& stmt, std::vector<tin::IndexVar> var_order = {});

  // Evaluates the full statement (accumulating into the output's existing
  // values) restricted to `piece`. Returns measured work. Safe to call
  // concurrently for different pieces.
  rt::WorkEstimate run(const PieceBounds& piece) const;

  // Convenience: full-space evaluation.
  rt::WorkEstimate run() const { return run(PieceBounds{}); }

 private:
  // One descent of an operand's storage level at a coordinate its loop has
  // fixed.
  struct Step {
    size_t op = 0, level = 0;
  };
  struct Loop {
    int driver = -1;  // operand whose level `level` yields the coordinates
    size_t level = 0;
    std::vector<Step> steps;  // the other operands' descents, in order
  };
  // Loops `first`.. of one way into a term; a window fixes the loops before
  // `first` and `entry` descends the other operands through them. A nest
  // that cannot run raises `error` when the walk reaches loop `fail_at`
  // (the loop count: at emit).
  struct Nest {
    size_t first = 0;
    std::vector<Step> entry;
    std::vector<Loop> loops;
    size_t fail_at = SIZE_MAX;
    std::string error;
  };
  struct Operand {
    Tensor tensor;
    bool all_dense = false;
    size_t levels = 0;
    size_t base = 0;  // position slot of level 0
    std::array<fmt::ModeFormat, rt::kMaxDim> kind{};
    std::array<size_t, rt::kMaxDim> loop{};  // loop of each level's variable
    std::array<rt::Coord, rt::kMaxDim> extent{};
    std::vector<Nest> windows;  // [L]: a non-zero window over level L
  };
  struct Term {
    double coeff = 1.0;
    std::vector<Operand> ops;
    std::vector<rt::Coord> last;  // per loop: extent - 1; -1 if unused
    size_t slots = 0;
    Nest nest;  // coordinate-value iteration
  };
  struct Frame;

  Operand operand(const Statement& stmt, const std::string& name,
                  const std::vector<tin::IndexVar>& vars) const;
  Term plan_term(const Statement& stmt, const tin::Expr& term) const;
  Nest plan_nest(const Statement& stmt, const Term& t, size_t split,
                 size_t first, const std::vector<tin::Expr>& accesses) const;
  void run_window(const Term& t, const PieceBounds& piece, Frame& f) const;
  void walk(const Term& t, const Nest& n, size_t k, Frame& f) const;
  bool descend(const Term& t, const std::vector<Step>& steps, Frame& f) const;
  void emit(const Term& t, Frame& f) const;

  std::vector<tin::IndexVar> order_;
  std::vector<Term> terms_;
  Operand output_;
};

// Finds the storage position of logical coordinates `coords` in `st` by
// descending its levels (binary search in Compressed segments). Returns -1
// if absent.
rt::Coord locate_position(const fmt::TensorStorage& st,
                          const std::array<rt::Coord, rt::kMaxDim>& coords);

}  // namespace spdistal::kern
