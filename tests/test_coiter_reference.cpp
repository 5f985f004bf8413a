// The co-iteration engine against the interpreter its loop plan replaced.
// ReferenceEngine below is the engine as it was before it compiled a plan
// (it re-gathers each term and re-scans the loop order on every piece),
// kept verbatim apart from its name. Seeded generated statements, formats,
// loop orders and pieces must give both engines equal output bits, an equal
// WorkEstimate per piece and the same error type and message.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "common/rng.h"
#include "kernels/assembly.h"
#include "kernels/coiter.h"
#include "kernels/work.h"

namespace spdistal::kern {
namespace {

using fmt::LevelStorage;
using fmt::TensorStorage;
using rt::Coord;
using tin::IndexVar;

// === Reference: the per-piece interpreter =================================

class ReferenceEngine {
 public:
  ReferenceEngine(const Statement& stmt, std::vector<IndexVar> var_order = {});
  rt::WorkEstimate run(const PieceBounds& piece) const;

 private:
  struct Access {
    const fmt::TensorStorage* st = nullptr;
    std::vector<tin::IndexVar> vars;      // logical order (as written)
    std::vector<uint32_t> level_var_ids;  // var id per storage level
    bool all_dense = false;
  };

  rt::WorkEstimate run_term(const tin::Expr& term,
                            const PieceBounds& piece) const;

  Statement stmt_;
  std::vector<tin::IndexVar> order_;
  Access output_;
};

// Binary search for coordinate `c` in crd[seg.lo..seg.hi]; returns position
// or -1 (crd is sorted within a segment by construction).
Coord find_in_segment(const rt::RegionAccessor<int32_t>& crd, rt::PosRange seg,
                      Coord c) {
  Coord lo = seg.lo;
  Coord hi = seg.hi;
  while (lo <= hi) {
    const Coord mid = lo + (hi - lo) / 2;
    const Coord v = crd[mid];
    if (v == c) return mid;
    if (v < c) {
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return -1;
}

// Generic coordinate-tree locate over pluggable pos/crd lookups (shared by
// the cold free function below and the engine's hoisted-accessor hot path):
// descends Dense and Singleton levels directly, binary-searches Compressed
// segments, and backtracks over a non-unique level's duplicate run (the
// deeper Singleton coordinates disambiguate).
template <typename PosAt, typename CrdAt>
Coord locate_walk(const TensorStorage& st, int l, Coord parent,
                  const std::array<Coord, rt::kMaxDim>& coords,
                  const PosAt& pos_at, const CrdAt& crd_at) {
  if (l == st.num_levels()) return parent;
  const LevelStorage& level = st.level(l);
  const Coord c = coords[static_cast<size_t>(level.dim)];
  if (level.kind.is_dense()) {
    return locate_walk(st, l + 1, parent * level.extent + c, coords, pos_at,
                       crd_at);
  }
  if (level.kind.is_singleton()) {
    // One coordinate per position; the position is the parent's.
    if (crd_at(l, parent) != c) return -1;
    return locate_walk(st, l + 1, parent, coords, pos_at, crd_at);
  }
  const rt::PosRange seg = pos_at(l, parent);
  if (seg.empty()) return -1;
  Coord q = -1;
  {
    Coord lo = seg.lo;
    Coord hi = seg.hi;
    while (lo <= hi) {
      const Coord mid = lo + (hi - lo) / 2;
      const Coord v = crd_at(l, mid);
      if (v == c) {
        q = mid;
        break;
      }
      if (v < c) {
        lo = mid + 1;
      } else {
        hi = mid - 1;
      }
    }
  }
  if (q < 0) return -1;
  if (level.kind.unique()) {
    return locate_walk(st, l + 1, q, coords, pos_at, crd_at);
  }
  Coord lo = q;
  while (lo > seg.lo && crd_at(l, lo - 1) == c) --lo;
  Coord hi = q;
  while (hi < seg.hi && crd_at(l, hi + 1) == c) ++hi;
  for (Coord p = lo; p <= hi; ++p) {
    const Coord r = locate_walk(st, l + 1, p, coords, pos_at, crd_at);
    if (r >= 0) return r;
  }
  return -1;
}

ReferenceEngine::ReferenceEngine(const Statement& stmt,
                                 std::vector<IndexVar> var_order)
    : stmt_(stmt), order_(std::move(var_order)) {
  if (order_.empty()) order_ = tin::statement_vars(stmt_.assignment);

  auto resolve = [&](const std::string& name,
                     const std::vector<IndexVar>& vars) {
    Access a;
    const Tensor& t = stmt_.tensor(name);
    // A sparse output may not be assembled yet at compile time; its storage
    // is re-resolved at run time (after assembly) by run_term.
    a.st = t.has_storage() ? &t.storage() : nullptr;
    a.vars = vars;
    a.all_dense = t.format().all_dense();
    for (int l = 0; l < t.format().order(); ++l) {
      a.level_var_ids.push_back(
          vars[static_cast<size_t>(t.format().dim_of_level(l))].id());
    }
    return a;
  };

  // Validate: for each (non-all-dense) access, the subsequence of order_
  // restricted to its level variables must equal its level sequence.
  auto check = [&](const Access& a, const std::string& name) {
    if (a.all_dense) return;
    std::vector<uint32_t> in_order;
    for (const auto& v : order_) {
      for (uint32_t id : a.level_var_ids) {
        if (id == v.id()) in_order.push_back(id);
      }
    }
    SPD_CHECK(in_order == a.level_var_ids, ScheduleError,
              "iteration order is incompatible with the level order of "
                  << name << " (" << tin::assignment_str(stmt_.assignment)
                  << "); reorder loops or change the format");
  };

  output_ = resolve(stmt_.assignment.lhs.tensor, stmt_.assignment.lhs.vars);
  check(output_, stmt_.assignment.lhs.tensor);
  for (const auto& acc : tin::expr_accesses(stmt_.assignment.rhs)) {
    Access a = resolve(acc.tensor, acc.vars);
    check(a, acc.tensor);
  }
}

rt::WorkEstimate ReferenceEngine::run(const PieceBounds& piece) const {
  rt::WorkEstimate total;
  for (const auto& term : tin::sum_of_products(stmt_.assignment.rhs)) {
    total += run_term(term, piece);
  }
  return total;
}

rt::WorkEstimate ReferenceEngine::run_term(const tin::Expr& term,
                                        const PieceBounds& piece) const {
  WorkCounter work;

  // Resolve term accesses and the literal coefficient. Accessors for every
  // stored region are constructed here, once per term evaluation — the
  // kernel ABI's "resolve the redirect once per leaf invocation" contract —
  // so the iteration loops below index raw pointers.
  struct TermAccess {
    const TensorStorage* st;
    std::vector<uint32_t> level_var_ids;
    bool all_dense;
    std::vector<IndexVar> vars;
    rt::LinearAccessor<double> vals;
    // Per storage level; default (invalid) for Dense levels.
    std::vector<rt::RegionAccessor<rt::PosRange>> lpos;
    std::vector<rt::RegionAccessor<int32_t>> lcrd;
  };
  std::vector<TermAccess> accs;
  double coeff = 1.0;
  {
    std::function<void(const tin::Expr&)> gather = [&](const tin::Expr& e) {
      switch (e->kind) {
        case tin::ExprKind::Literal:
          coeff *= e->value;
          break;
        case tin::ExprKind::Access: {
          const Tensor& t = stmt_.tensor(e->tensor);
          TermAccess a;
          a.st = &t.storage();
          a.all_dense = t.format().all_dense();
          a.vars = e->vars;
          a.vals = rt::LinearAccessor<double>(*a.st->vals(), rt::Access::Read);
          for (int l = 0; l < t.format().order(); ++l) {
            a.level_var_ids.push_back(
                e->vars[static_cast<size_t>(t.format().dim_of_level(l))].id());
            const LevelStorage& level = a.st->level(l);
            a.lpos.emplace_back();
            a.lcrd.emplace_back();
            if (level.kind.has_pos()) {
              a.lpos.back() =
                  rt::RegionAccessor<rt::PosRange>(*level.pos,
                                                   rt::Access::Read);
            }
            if (level.kind.has_crd()) {
              a.lcrd.back() =
                  rt::RegionAccessor<int32_t>(*level.crd, rt::Access::Read);
            }
          }
          accs.push_back(std::move(a));
          break;
        }
        case tin::ExprKind::Mul:
          for (const auto& op : e->operands) gather(op);
          break;
        case tin::ExprKind::Add:
          SPD_ASSERT(false, "Add inside product term");
      }
    };
    gather(term);
  }

  // Variable extents from tensor dims.
  std::map<uint32_t, Coord> extent;
  auto note = [&](const std::vector<IndexVar>& vars,
                  const std::vector<Coord>& dims) {
    for (size_t d = 0; d < vars.size(); ++d) {
      extent[vars[d].id()] = dims[d];
    }
  };
  note(output_.vars, stmt_.tensor(stmt_.assignment.lhs.tensor).dims());
  for (const auto& acc : tin::expr_accesses(stmt_.assignment.rhs)) {
    note(acc.vars, stmt_.tensor(acc.tensor).dims());
  }

  // Per-access cursor: how many levels consumed and the current parent
  // position. The output is cursor index accs.size() when not all-dense.
  struct AccessCursor {
    int depth = 0;
    Coord parent = 0;
  };
  std::vector<AccessCursor> cur(accs.size());

  // env[k] = coordinate of order_[k].
  std::vector<Coord> env(order_.size(), 0);
  auto coord_of = [&](uint32_t var_id) -> Coord {
    for (size_t k = 0; k < order_.size(); ++k) {
      if (order_[k].id() == var_id) return env[k];
    }
    SPD_ASSERT(false, "variable not in iteration order");
    return -1;
  };

  const Tensor& out_tensor = stmt_.tensor(stmt_.assignment.lhs.tensor);
  fmt::TensorStorage& out_st =
      const_cast<Tensor&>(out_tensor).storage();
  // Output accessors: resolved once per term, *after* assembly re-resolved
  // the storage; the vals accessor is the one place a reduction redirect
  // can be in effect. The pos/crd tables keep the per-nonzero sparse-output
  // locate below off the per-element Region paths.
  const rt::LinearAccessor<double> out_vals(*out_st.vals());
  std::vector<rt::RegionAccessor<rt::PosRange>> out_lpos;
  std::vector<rt::RegionAccessor<int32_t>> out_lcrd;
  if (!output_.all_dense) {
    for (int l = 0; l < out_st.num_levels(); ++l) {
      const LevelStorage& level = out_st.level(l);
      out_lpos.emplace_back();
      out_lcrd.emplace_back();
      if (level.kind.has_pos()) {
        out_lpos.back() =
            rt::RegionAccessor<rt::PosRange>(*level.pos, rt::Access::Read);
      }
      if (level.kind.has_crd()) {
        out_lcrd.back() =
            rt::RegionAccessor<int32_t>(*level.crd, rt::Access::Read);
      }
    }
  }
  // locate_position over the hoisted output tables (same walk as the free
  // function, reading the per-term accessors).
  auto locate_out =
      [&](const std::array<Coord, rt::kMaxDim>& coords) -> Coord {
    const auto pos_at = [&](int l, Coord p) {
      return out_lpos[static_cast<size_t>(l)][p];
    };
    const auto crd_at = [&](int l, Coord q) {
      return Coord{out_lcrd[static_cast<size_t>(l)][q]};
    };
    return locate_walk(out_st, 0, 0, coords, pos_at, crd_at);
  };
  auto emit = [&]() {
    double v = coeff;
    for (size_t a = 0; a < accs.size(); ++a) {
      if (accs[a].all_dense) {
        // Linearize in storage (level) order.
        Coord pos = 0;
        const TensorStorage* st = accs[a].st;
        for (size_t l = 0; l < accs[a].level_var_ids.size(); ++l) {
          const Coord c = coord_of(accs[a].level_var_ids[l]);
          pos = pos * st->level(static_cast<int>(l)).extent + c;
        }
        v *= accs[a].vals.at(pos);
        work.fma_dense();
      } else {
        SPD_ASSERT(cur[a].depth ==
                       static_cast<int>(accs[a].level_var_ids.size()),
                   "sparse access not fully descended at emit");
        v *= accs[a].vals.at(cur[a].parent);
        work.fma_sparse();
      }
    }
    // Write into the output at its coordinates.
    if (output_.all_dense) {
      Coord pos = 0;
      for (size_t l = 0; l < output_.level_var_ids.size(); ++l) {
        const Coord c = coord_of(output_.level_var_ids[l]);
        pos = pos * out_st.level(static_cast<int>(l)).extent + c;
      }
      out_vals.at(pos) += v;
    } else {
      std::array<Coord, rt::kMaxDim> coords{};
      for (size_t d = 0; d < output_.vars.size(); ++d) {
        coords[d] = coord_of(output_.vars[d].id());
      }
      const Coord pos = locate_out(coords);
      SPD_ASSERT(pos >= 0,
                 "sparse output pattern is missing a computed coordinate; "
                 "run assembly first");
      out_vals.at(pos) += v;
      work.stream(1, 12.0);
    }
  };

  // Advances access `a`'s cursor through every level whose variable has a
  // known coordinate in env up to var order position `upto` (exclusive).
  // Returns false if a Compressed level lacks the coordinate.
  auto descend = [&](size_t a, size_t upto) -> bool {
    while (cur[a].depth < static_cast<int>(accs[a].level_var_ids.size())) {
      const uint32_t vid =
          accs[a].level_var_ids[static_cast<size_t>(cur[a].depth)];
      bool known = false;
      size_t order_pos = 0;
      for (size_t k = 0; k < upto; ++k) {
        if (order_[k].id() == vid) {
          known = true;
          order_pos = k;
          break;
        }
      }
      if (!known) break;
      const LevelStorage& level =
          accs[a].st->level(cur[a].depth);
      const Coord c = env[order_pos];
      if (level.kind.is_dense()) {
        cur[a].parent = cur[a].parent * level.extent + c;
      } else if (level.kind.is_singleton()) {
        // Coordinate-per-position: the cursor's position carries over; the
        // stored coordinate either matches or this branch is dead.
        const size_t depth = static_cast<size_t>(cur[a].depth);
        work.stream(1, 4.0);
        if (Coord{accs[a].lcrd[depth][cur[a].parent]} != c) return false;
      } else {
        // Probing a non-unique Compressed level by binary search would pick
        // an arbitrary duplicate; such levels must drive their variable.
        SPD_CHECK(level.kind.unique(), ScheduleError,
                  "cannot probe the non-unique level of "
                      << accs[a].st->name()
                      << "; its variable must be driven by this tensor "
                         "(reorder loops or change the format)");
        const size_t depth = static_cast<size_t>(cur[a].depth);
        const rt::PosRange seg = accs[a].lpos[depth][cur[a].parent];
        work.segment();
        if (seg.empty()) return false;
        const Coord q = find_in_segment(accs[a].lcrd[depth], seg, c);
        if (q < 0) return false;
        cur[a].parent = q;
      }
      ++cur[a].depth;
    }
    return true;
  };

  // Recursive coordinate-value iteration from var order position `k`,
  // assuming all cursors are descended through vars < k.
  std::function<void(size_t)> iterate = [&](size_t k) {
    if (k == order_.size()) {
      emit();
      return;
    }
    const IndexVar& v = order_[k];
    // If no access (and not the output) uses v, it contributes a factor of
    // extent via plain iteration; usually every var is used.
    // Find a sparse driver whose next level stores v (Compressed or
    // Singleton). A non-unique level cannot be probed, so it takes priority
    // as the driver; two non-unique levels on one variable cannot co-iterate.
    int driver = -1;
    bool driver_nonunique = false;
    for (size_t a = 0; a < accs.size(); ++a) {
      if (accs[a].all_dense) continue;
      if (cur[a].depth < static_cast<int>(accs[a].level_var_ids.size()) &&
          accs[a].level_var_ids[static_cast<size_t>(cur[a].depth)] == v.id() &&
          accs[a].st->level(cur[a].depth).kind.has_crd()) {
        const bool nu = !accs[a].st->level(cur[a].depth).kind.unique();
        SPD_CHECK(!(nu && driver_nonunique), ScheduleError,
                  "cannot co-iterate two non-unique levels over "
                      << v.name());
        if (driver < 0 || (nu && !driver_nonunique)) {
          driver = static_cast<int>(a);
          driver_nonunique = nu;
        }
      }
    }
    // Piece restriction: the legacy outermost-variable bound plus any
    // var-keyed bound from a multi-axis (grid) distribution.
    rt::Rect1 bound{0, extent.count(v.id()) ? extent.at(v.id()) - 1 : -1};
    bool restricted = false;
    if (k == 0 && piece.dist_coords.has_value()) {
      bound = bound.intersect(*piece.dist_coords);
      restricted = true;
    }
    for (const auto& [vid, r] : piece.var_coords) {
      if (vid == v.id()) {
        bound = bound.intersect(r);
        restricted = true;
      }
    }
    const bool restrict0 = restricted;
    const Coord rlo = bound.lo;
    const Coord rhi = bound.hi;
    const std::vector<AccessCursor> saved = cur;
    if (driver >= 0) {
      const auto& d = accs[static_cast<size_t>(driver)];
      const size_t ddepth =
          static_cast<size_t>(cur[static_cast<size_t>(driver)].depth);
      const LevelStorage& dl = d.st->level(static_cast<int>(ddepth));
      auto visit = [&](Coord q, Coord c) {
        env[k] = c;
        cur = saved;
        cur[static_cast<size_t>(driver)].parent = q;
        cur[static_cast<size_t>(driver)].depth += 1;
        bool alive = true;
        for (size_t a = 0; a < accs.size() && alive; ++a) {
          if (static_cast<int>(a) == driver || accs[a].all_dense) continue;
          alive = descend(a, k + 1);
        }
        if (alive) iterate(k + 1);
      };
      if (dl.kind.is_singleton()) {
        // Coordinate-per-position: the level yields exactly one coordinate
        // for the current position, shared with the parent.
        const Coord q = saved[static_cast<size_t>(driver)].parent;
        const Coord c = d.lcrd[ddepth][q];
        work.stream(1, 4.0);
        if (!restrict0 || (c >= rlo && c <= rhi)) visit(q, c);
      } else {
        const rt::PosRange seg =
            d.lpos[ddepth][saved[static_cast<size_t>(driver)].parent];
        work.segment();
        for (Coord q = seg.lo; q <= seg.hi; ++q) {
          const Coord c = d.lcrd[ddepth][q];
          work.stream(1, 4.0);
          if (restrict0 && (c < rlo || c > rhi)) continue;
          visit(q, c);
        }
      }
      cur = saved;
      return;
    }
    // Dense loop over the variable's extent.
    SPD_ASSERT(rhi >= -1, "unknown extent for variable " << v.name());
    for (Coord c = rlo; c <= rhi; ++c) {
      env[k] = c;
      cur = saved;
      bool alive = true;
      for (size_t a = 0; a < accs.size() && alive; ++a) {
        if (accs[a].all_dense) continue;
        alive = descend(a, k + 1);
      }
      if (alive) iterate(k + 1);
    }
    cur = saved;
  };

  if (!piece.dist_pos.has_value()) {
    // Coordinate-value iteration over the whole ordered loop nest.
    iterate(0);
    return work.done();
  }

  // --- Coordinate-position iteration ----------------------------------------
  // Drive over stored positions [dist_pos] of the split tensor's level
  // `pos_level`; reconstruct the fused coordinates, then continue normal
  // iteration below the split.
  int split = -1;
  for (size_t a = 0; a < accs.size(); ++a) {
    if (accs[a].st->name() == piece.pos_tensor) split = static_cast<int>(a);
  }
  SPD_CHECK(split >= 0, ScheduleError,
            "position-split tensor " << piece.pos_tensor
                                     << " does not appear in this term");
  const TermAccess& sa = accs[static_cast<size_t>(split)];
  const int L = piece.pos_level;
  SPD_CHECK(L < static_cast<int>(sa.level_var_ids.size()), ScheduleError,
            "split level out of range");
  // The first L+1 iteration variables must be the split tensor's leading
  // level variables.
  for (int l = 0; l <= L; ++l) {
    SPD_CHECK(order_[static_cast<size_t>(l)].id() ==
                  sa.level_var_ids[static_cast<size_t>(l)],
              ScheduleError,
              "position-space iteration requires the split tensor's leading "
              "variables to be outermost");
  }

  // Owner maps: owner[l][q] = parent position of q at level l (Compressed
  // levels only; Dense parents are q / extent, Singleton positions are the
  // parent's own).
  std::vector<std::vector<Coord>> owner(static_cast<size_t>(L + 1));
  for (int l = 0; l <= L; ++l) {
    const LevelStorage& level = sa.st->level(l);
    if (!level.kind.has_pos()) continue;
    owner[static_cast<size_t>(l)].assign(
        static_cast<size_t>(level.positions), 0);
    for (Coord p = 0; p < level.parent_positions; ++p) {
      const rt::PosRange seg = sa.lpos[static_cast<size_t>(l)][p];
      for (Coord q = seg.lo; q <= seg.hi; ++q) {
        owner[static_cast<size_t>(l)][static_cast<size_t>(q)] = p;
      }
    }
  }

  const std::vector<AccessCursor> init = cur;
  for (Coord q = piece.dist_pos->lo; q <= piece.dist_pos->hi; ++q) {
    // Reconstruct positions per level from the bottom up.
    std::array<Coord, rt::kMaxDim> pos_at{};
    pos_at[static_cast<size_t>(L)] = q;
    for (int l = L; l > 0; --l) {
      const LevelStorage& level = sa.st->level(l);
      const Coord p = pos_at[static_cast<size_t>(l)];
      pos_at[static_cast<size_t>(l - 1)] =
          level.kind.is_compressed()
              ? owner[static_cast<size_t>(l)][static_cast<size_t>(p)]
              : level.kind.is_singleton() ? p
                                          : p / level.extent;
    }
    // Coordinates per fused level, clamped mid-chain against any var-keyed
    // piece bounds (inner universe axes of a grid may restrict a fused
    // variable's coordinates).
    bool ok = true;
    for (int l = 0; l <= L && ok; ++l) {
      const LevelStorage& level = sa.st->level(l);
      const Coord p = pos_at[static_cast<size_t>(l)];
      const Coord c = level.kind.has_crd()
                          ? Coord{sa.lcrd[static_cast<size_t>(l)][p]}
                          : p % level.extent;
      env[static_cast<size_t>(l)] = c;
      for (const auto& [vid, r] : piece.var_coords) {
        if (vid == order_[static_cast<size_t>(l)].id() &&
            (c < r.lo || c > r.hi)) {
          ok = false;
        }
      }
    }
    work.stream(L + 1, 8.0);
    if (!ok) continue;
    cur = init;
    cur[static_cast<size_t>(split)].depth = L + 1;
    cur[static_cast<size_t>(split)].parent = q;
    bool alive = true;
    for (size_t a = 0; a < accs.size() && alive; ++a) {
      if (static_cast<int>(a) == split || accs[a].all_dense) continue;
      alive = descend(a, static_cast<size_t>(L + 1));
    }
    if (alive) iterate(static_cast<size_t>(L + 1));
  }
  return work.done();
}

// === Generated cases ========================================================

// One generated statement: its tensors, the loop orders its coordinate
// pieces run under, and the operand whose leading levels its non-zero
// windows split (under `window_order`, that operand's level variables
// first, as the compiler orders a position-space nest).
struct Instance {
  std::vector<Tensor> tensors;
  Statement* stmt = nullptr;
  Tensor out;
  std::vector<std::vector<IndexVar>> orders;
  std::vector<IndexVar> window_order;
  std::string split;
  int window_levels = 0;
};

// What one engine left behind over a list of pieces: the work of each piece
// up to the first error, that error (type and message), and the output.
struct Outcome {
  std::vector<rt::WorkEstimate> work;
  std::string error;
  std::vector<double> vals;
};

template <typename F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const NotationError& e) {
    return std::string("NotationError: ") + e.what();
  } catch (const ScheduleError& e) {
    return std::string("ScheduleError: ") + e.what();
  } catch (const SpdError& e) {
    return std::string("SpdError: ") + e.what();
  }
  return "";
}

template <typename Engine>
Outcome evaluate(const Engine& engine, Tensor& out,
                 const std::vector<PieceBounds>& pieces) {
  Outcome o;
  out.zero();
  for (const PieceBounds& p : pieces) {
    o.error = error_of([&] { o.work.push_back(engine.run(p)); });
    if (!o.error.empty()) break;
  }
  o.vals = out.storage().vals()->data();
  return o;
}

// The first difference between two outcomes, or "".
std::string difference(const Outcome& ref, const Outcome& got) {
  if (ref.error != got.error) {
    return "error '" + ref.error + "' vs '" + got.error + "'";
  }
  if (ref.work.size() != got.work.size()) return "piece count";
  for (size_t p = 0; p < ref.work.size(); ++p) {
    const rt::WorkEstimate& a = ref.work[p];
    const rt::WorkEstimate& b = got.work[p];
    if (a.flops != b.flops || a.bytes != b.bytes || a.nnz != b.nnz) {
      return "work of piece " + std::to_string(p);
    }
  }
  if (ref.vals.size() != got.vals.size() ||
      std::memcmp(ref.vals.data(), got.vals.data(),
                  ref.vals.size() * sizeof(double)) != 0) {
    return "output bits";
  }
  return "";
}

// [0, n) in `parts` equal blocks; trailing blocks may be empty.
std::vector<rt::Rect1> blocks(Coord n, int parts) {
  const Coord size = std::max<Coord>((n + parts - 1) / parts, 1);
  std::vector<rt::Rect1> out;
  for (Coord p = 0; p < parts; ++p) {
    out.push_back(rt::Rect1{p * size, std::min(n, (p + 1) * size) - 1});
  }
  return out;
}

class Generator {
 public:
  explicit Generator(uint64_t seed) : rng_(seed) {}

  Instance next() {
    switch (rng_.next_below(10)) {
      case 0: return spmv();
      case 1: return spmm();
      case 2: return sddmm();
      case 3: return spttv();
      case 4: return spmttkrp();
      case 5: return sum_with_repeat();
      case 6: return two_sparse();
      case 7: return literals();
      case 8: return diagonal();
      default: return probe_nonunique();
    }
  }

  // Coordinate pieces under `order`: the whole space, row blocks of the
  // outermost loop, and row blocks x var-keyed blocks of the next loop.
  std::vector<std::vector<PieceBounds>> coordinate_pieces(
      const Statement& stmt, const std::vector<IndexVar>& order) {
    std::vector<std::vector<PieceBounds>> sets(1, {PieceBounds{}});
    const std::vector<rt::Rect1> rows =
        blocks(var_extent(stmt, order[0]), parts());
    sets.emplace_back();
    for (const rt::Rect1& r : rows) {
      sets.back().emplace_back();
      sets.back().back().dist_coords = r;
    }
    if (order.size() < 2) return sets;
    const std::vector<rt::Rect1> cols =
        blocks(var_extent(stmt, order[1]), parts());
    sets.emplace_back();
    for (const rt::Rect1& r : rows) {
      for (const rt::Rect1& c : cols) {
        PieceBounds p;
        p.dist_coords = r;
        p.var_coords.push_back({order[1].id(), c});
        sets.back().push_back(p);
      }
    }
    return sets;
  }

  // Non-zero windows over every leading level of the split operand, some
  // with a var-keyed clamp (mid-chain on a fused variable, or an inner grid
  // axis), plus an empty window.
  std::vector<std::vector<PieceBounds>> window_pieces(const Instance& in) {
    std::vector<std::vector<PieceBounds>> sets;
    const TensorStorage& st = in.stmt->tensor(in.split).storage();
    for (int L = 0; L < in.window_levels; ++L) {
      const Coord n = st.level(L).positions;
      std::optional<std::pair<uint32_t, rt::Rect1>> clamp;
      if (rng_.next_below(2) == 0) {
        const IndexVar& v = in.window_order[rng_.next_below(
            static_cast<uint64_t>(in.window_order.size()))];
        const Coord ext = var_extent(*in.stmt, v);
        const Coord lo = rng_.next_range(0, ext - 1);
        clamp = {v.id(), rt::Rect1{lo, rng_.next_range(lo - 1, ext - 1)}};
      }
      sets.emplace_back();
      for (const rt::Rect1& w : blocks(n, parts())) {
        PieceBounds p;
        p.dist_pos = w;
        p.pos_tensor = in.split;
        p.pos_level = L;
        if (clamp) p.var_coords.push_back(*clamp);
        sets.back().push_back(p);
      }
    }
    if (in.window_levels > 0) {
      PieceBounds p;
      const Coord lo = rng_.next_range(0, 3);
      p.dist_pos = rt::Rect1{lo, lo - 1};
      p.pos_tensor = in.split;
      p.pos_level = in.window_levels - 1;
      sets.push_back({p});
    }
    return sets;
  }

 private:
  int parts() { return 1 + static_cast<int>(rng_.next_below(4)); }
  Coord dim() { return 1 + static_cast<Coord>(rng_.next_below(5)); }
  double value() { return rng_.next_double(-1, 1); }

  // Each coordinate stored with one probability per tensor, 0 included.
  Tensor sparse(const std::string& name, std::vector<Coord> dims,
                fmt::Format format) {
    static constexpr double kDensity[] = {0.0, 0.2, 0.5, 0.9};
    const double density = kDensity[rng_.next_below(4)];
    fmt::Coo coo;
    coo.dims = dims;
    std::array<Coord, rt::kMaxDim> c{};
    const size_t order = dims.size();
    while (true) {
      if (rng_.next_double() < density) coo.push(c, value());
      size_t d = order;
      while (d > 0 && ++c[d - 1] == dims[d - 1]) c[--d] = 0;
      if (d == 0) break;
    }
    Tensor t(name, std::move(dims), std::move(format));
    t.from_coo(coo);
    return t;
  }

  Tensor dense(const std::string& name, std::vector<Coord> dims) {
    fmt::Format f(std::vector<fmt::ModeFormat>(dims.size(),
                                               fmt::ModeFormat::Dense()));
    Tensor t(name, std::move(dims), std::move(f));
    t.init_dense([&](const auto&) { return value(); });
    return t;
  }

  // A matrix format: CSR, CSC, DCSR or COO(2).
  fmt::Format matrix_format() {
    switch (rng_.next_below(4)) {
      case 0: return fmt::csr();
      case 1: return fmt::csc();
      case 2: return fmt::dcsr();
      default: return fmt::coo(2);
    }
  }
  fmt::Format tensor3_format() {
    switch (rng_.next_below(3)) {
      case 0: return fmt::csf3();
      case 1: return fmt::ddc3();
      default: return fmt::coo(3);
    }
  }
  // The level variables of a matrix access B(x, y) stored in `f`.
  static std::vector<IndexVar> levels(const fmt::Format& f, IndexVar x,
                                      IndexVar y) {
    if (f.dim_of_level(0) == 1) return {y, x};
    return {x, y};
  }

  Instance spmv() {
    IndexVar i("i"), j("j");
    const Coord n = dim(), m = dim();
    const fmt::Format f = matrix_format();
    Instance in;
    Tensor a = dense("a", {n}), B = sparse("B", {n, m}, f),
           c = dense("c", {m});
    in.stmt = &(a(i) = B(i, j) * c(j));
    in.tensors = {a, B, c};
    in.out = a;
    in.window_order = levels(f, i, j);
    in.orders = {in.window_order};
    in.split = "B";
    in.window_levels = 2;
    return in;
  }

  Instance spmm() {
    IndexVar i("i"), j("j"), k("k");
    const Coord n = dim(), m = dim(), p = dim();
    const fmt::Format f = matrix_format();
    Instance in;
    Tensor A = dense("A", {n, p}), B = sparse("B", {n, m}, f),
           C = dense("C", {m, p});
    in.stmt = &(A(i, j) = B(i, k) * C(k, j));
    in.tensors = {A, B, C};
    in.out = A;
    const std::vector<IndexVar> lv = levels(f, i, k);
    in.window_order = {lv[0], lv[1], j};
    in.orders = {in.window_order, {lv[0], j, lv[1]}};
    if (lv[0] == i) in.orders.emplace_back();  // statement order (i, j, k)
    in.split = "B";
    in.window_levels = 2;
    return in;
  }

  Instance sddmm() {
    IndexVar i("i"), j("j"), k("k");
    const Coord n = dim(), m = dim(), p = dim();
    const fmt::Format f = matrix_format();
    Instance in;
    Tensor A("A", {n, m}, f);
    Tensor B = sparse("B", {n, m}, f), C = dense("C", {n, p}),
           D = dense("D", {p, m});
    in.stmt = &(A(i, j) = B(i, j) * C(i, k) * D(k, j));
    assemble_output(*in.stmt);
    in.tensors = {A, B, C, D};
    in.out = A;
    const std::vector<IndexVar> lv = levels(f, i, j);
    in.window_order = {lv[0], lv[1], k};
    in.orders = {in.window_order, {lv[0], k, lv[1]}};
    in.split = "B";
    in.window_levels = 2;
    return in;
  }

  Instance spttv() {
    IndexVar i("i"), j("j"), k("k");
    const Coord n = dim(), m = dim(), p = dim();
    Instance in;
    static const fmt::Format kOut[] = {fmt::csr(), fmt::dcsr(), fmt::coo(2)};
    Tensor A("A", {n, m}, kOut[rng_.next_below(3)]);
    Tensor B = sparse("B", {n, m, p}, tensor3_format()), c = dense("c", {p});
    in.stmt = &(A(i, j) = B(i, j, k) * c(k));
    assemble_output(*in.stmt);
    in.tensors = {A, B, c};
    in.out = A;
    in.window_order = {i, j, k};
    in.orders = {{}};
    in.split = "B";
    in.window_levels = 3;
    return in;
  }

  Instance spmttkrp() {
    IndexVar i("i"), j("j"), k("k"), l("l");
    const Coord n = dim(), m = dim(), p = dim(), r = dim();
    Instance in;
    Tensor A = dense("A", {n, r}), B = sparse("B", {n, m, p}, tensor3_format()),
           C = dense("C", {m, r}), D = dense("D", {p, r});
    in.stmt = &(A(i, l) = B(i, j, k) * C(j, l) * D(k, l));
    in.tensors = {A, B, C, D};
    in.out = A;
    in.window_order = {i, j, k, l};
    in.orders = {{}, in.window_order, {i, j, l, k}};
    in.split = "B";
    in.window_levels = 3;
    return in;
  }

  // A three-term sum that reads B twice; a window split by B raises in the
  // term that does not read it, after the first term ran.
  Instance sum_with_repeat() {
    IndexVar i("i"), j("j");
    const Coord n = dim(), m = dim();
    static const fmt::Format kIn[] = {fmt::csr(), fmt::dcsr(), fmt::coo(2)};
    Instance in;
    Tensor A = rng_.next_below(2) == 0 ? Tensor("A", {n, m}, fmt::csr())
                                       : dense("A", {n, m});
    Tensor B = sparse("B", {n, m}, kIn[rng_.next_below(3)]);
    Tensor C = sparse("C", {n, m}, kIn[rng_.next_below(3)]);
    in.stmt = &(A(i, j) = B(i, j) + C(i, j) + B(i, j));
    assemble_output(*in.stmt);
    in.tensors = {A, B, C};
    in.out = A;
    in.window_order = {i, j};
    in.orders = {{}};
    in.split = "B";
    in.window_levels = 2;
    return in;
  }

  // Intersections: A(i,j) = B(i,j) * C(i,j) or y(i) = S(i,k) * T(i,k). Two
  // COO operands put two non-unique levels on one variable.
  Instance two_sparse() {
    IndexVar i("i"), j("j");
    const Coord n = dim(), m = dim();
    fmt::Format f = matrix_format();
    fmt::Format g = matrix_format();
    if ((f == fmt::csc()) != (g == fmt::csc())) g = f;
    Instance in;
    Tensor B = sparse("B", {n, m}, f), C = sparse("C", {n, m}, g);
    if (rng_.next_below(2) == 0) {
      Tensor A = dense("A", {n, m});
      in.stmt = &(A(i, j) = B(i, j) * C(i, j));
      in.out = A;
    } else {
      Tensor y = dense("y", {n});
      in.stmt = &(y(i) = B(i, j) * C(i, j));
      in.out = y;
    }
    in.tensors = {in.out, B, C};
    in.window_order = levels(f, i, j);
    in.orders = {in.window_order};
    in.split = "B";
    in.window_levels = 2;
    return in;
  }

  // Literal coefficients; the last term uses no access over j, so it is
  // added once per coordinate of the j loop, as the dense oracle adds it.
  Instance literals() {
    IndexVar i("i"), j("j");
    const Coord n = dim(), m = dim();
    const fmt::Format f = matrix_format();
    Instance in;
    Tensor a = dense("a", {n}), B = sparse("B", {n, m}, f),
           c = dense("c", {m}), d = dense("d", {m}), e = dense("e", {n});
    in.stmt = &(a(i) = literal(value()) * B(i, j) * c(j) * literal(value()) +
                       B(i, j) * literal(value()) * d(j) +
                       literal(value()) * e(i));
    in.tensors = {a, B, c, d, e};
    in.out = a;
    in.window_order = levels(f, i, j);
    in.orders = {in.window_order};
    in.split = "B";
    in.window_levels = 2;
    return in;
  }

  // a(i) = B(i,i) * c(i) on CSR: the Dense row level descends first, then
  // the column level probes the same coordinate.
  Instance diagonal() {
    IndexVar i("i");
    const Coord n = dim();
    Instance in;
    Tensor a = dense("a", {n}), B = sparse("B", {n, n}, fmt::csr()),
           c = dense("c", {n});
    in.stmt = &(a(i) = B(i, i) * c(i));
    in.tensors = {a, B, c};
    in.out = a;
    in.orders = {{}};
    return in;
  }

  // a(i) = D(i,j) * B(i,j) * c(j), D CSR, B COO: coordinate pieces let B
  // drive i, but a window over D descends B by probing its non-unique root.
  Instance probe_nonunique() {
    IndexVar i("i"), j("j");
    const Coord n = dim(), m = dim();
    Instance in;
    Tensor a = dense("a", {n}), D = sparse("D", {n, m}, fmt::csr()),
           B = sparse("B", {n, m}, fmt::coo(2)), c = dense("c", {m});
    in.stmt = &(a(i) = D(i, j) * B(i, j) * c(j));
    in.tensors = {a, D, B, c};
    in.out = a;
    in.window_order = {i, j};
    in.orders = {in.window_order};
    in.split = "D";
    in.window_levels = 2;
    return in;
  }

  Rng rng_;
};

TEST(CoiterReference, GeneratedCasesMatchBitForBit) {
  const auto start = std::chrono::steady_clock::now();
  int cases = 0;
  // Every error kind the cases must reach, and how often the reference
  // raised it.
  const std::vector<std::string> kinds = {
      "ScheduleError: cannot co-iterate two non-unique levels",
      "ScheduleError: cannot probe the non-unique level",
      "ScheduleError: position-split tensor B does not appear"};
  std::vector<int> seen(kinds.size(), 0);
  for (uint64_t seed = 0; seed < 1500; ++seed) {
    Generator gen(seed * 0x9E3779B97F4A7C15ull + 17);
    Instance in = gen.next();
    auto compare = [&](const std::vector<IndexVar>& order,
                       const std::vector<std::vector<PieceBounds>>& sets) {
      std::optional<ReferenceEngine> ref;
      std::optional<CoiterEngine> eng;
      const std::string ref_error =
          error_of([&] { ref.emplace(*in.stmt, order); });
      const std::string eng_error =
          error_of([&] { eng.emplace(*in.stmt, order); });
      if (ref_error != eng_error) {
        return "construction: '" + ref_error + "' vs '" + eng_error + "'";
      }
      if (!ref) return std::string();
      for (const auto& pieces : sets) {
        ++cases;
        const Outcome want = evaluate(*ref, in.out, pieces);
        for (size_t e = 0; e < kinds.size(); ++e) {
          if (want.error.rfind(kinds[e], 0) == 0) ++seen[e];
        }
        const std::string diff =
            difference(want, evaluate(*eng, in.out, pieces));
        if (!diff.empty()) return diff;
      }
      return std::string();
    };
    std::string diff;
    for (const auto& order : in.orders) {
      diff = compare(order, gen.coordinate_pieces(
                                *in.stmt, order.empty()
                                              ? tin::statement_vars(
                                                    in.stmt->assignment)
                                              : order));
      if (!diff.empty()) break;
    }
    if (diff.empty() && in.window_levels > 0) {
      diff = compare(in.window_order, gen.window_pieces(in));
    }
    ASSERT_TRUE(diff.empty()) << "seed " << seed << ", " << in.stmt->str()
                              << ": " << diff;
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_GE(cases, 10000);
  for (size_t e = 0; e < kinds.size(); ++e) {
    EXPECT_GT(seen[e], 0) << kinds[e];
  }
  std::printf("CoiterReference: %d cases in %.3f s\n", cases, seconds);
}

}  // namespace
}  // namespace spdistal::kern
