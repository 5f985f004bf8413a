#include "kernels/coiter.h"

#include <algorithm>

#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using fmt::LevelStorage;
using fmt::TensorStorage;
using rt::Coord;
using tin::IndexVar;

namespace {

// Accessors over one tensor's stored levels, resolved once per evaluation
// (the kernel ABI's "resolve the redirect once per leaf invocation"
// contract) so the walks below index raw pointers. Dense levels keep
// invalid ones.
struct LevelAccessors {
  std::array<rt::RegionAccessor<rt::PosRange>, rt::kMaxDim> pos;
  std::array<rt::RegionAccessor<int32_t>, rt::kMaxDim> crd;

  LevelAccessors() = default;
  explicit LevelAccessors(const TensorStorage& st) {
    for (size_t l = 0; l < static_cast<size_t>(st.num_levels()); ++l) {
      const LevelStorage& level = st.level(static_cast<int>(l));
      if (level.kind.has_pos()) {
        pos[l] = rt::RegionAccessor<rt::PosRange>(*level.pos, rt::Access::Read);
      }
      if (level.kind.has_crd()) {
        crd[l] = rt::RegionAccessor<int32_t>(*level.crd, rt::Access::Read);
      }
    }
  }
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

// The one coordinate-tree locate: descends Dense and Singleton levels
// directly, binary-searches Compressed segments, and backtracks over a
// non-unique level's duplicate run (the deeper Singleton coordinates
// disambiguate).
Coord locate(const TensorStorage& st, const LevelAccessors& acc, int l,
             Coord parent, const std::array<Coord, rt::kMaxDim>& coords) {
  if (l == st.num_levels()) return parent;
  const LevelStorage& level = st.level(l);
  const size_t u = static_cast<size_t>(l);
  const Coord c = coords[static_cast<size_t>(level.dim)];
  if (level.kind.is_dense()) {
    return locate(st, acc, l + 1, parent * level.extent + c, coords);
  }
  if (level.kind.is_singleton()) {
    // One coordinate per position; the position is the parent's.
    if (acc.crd[u][parent] != c) return -1;
    return locate(st, acc, l + 1, parent, coords);
  }
  const rt::PosRange seg = acc.pos[u][parent];
  const Coord q = find_in_segment(acc.crd[u], seg, c);
  if (q < 0) return -1;
  if (level.kind.unique()) return locate(st, acc, l + 1, q, coords);
  Coord lo = q;
  while (lo > seg.lo && acc.crd[u][lo - 1] == c) --lo;
  Coord hi = q;
  while (hi < seg.hi && acc.crd[u][hi + 1] == c) ++hi;
  for (Coord p = lo; p <= hi; ++p) {
    const Coord r = locate(st, acc, l + 1, p, coords);
    if (r >= 0) return r;
  }
  return -1;
}

// Splits a product term into its literal coefficient and its accesses, in
// product order.
void gather(const tin::Expr& e, double& coeff,
            std::vector<tin::Expr>& accesses) {
  switch (e->kind) {
    case tin::ExprKind::Literal:
      coeff *= e->value;
      break;
    case tin::ExprKind::Access:
      accesses.push_back(e);
      break;
    case tin::ExprKind::Mul:
      for (const auto& op : e->operands) gather(op, coeff, accesses);
      break;
    case tin::ExprKind::Add:
      SPD_ASSERT(false, "Add inside product term");
  }
}

// A loop's range for one piece; only a restricted loop filters the
// coordinates its driver yields.
struct Bound {
  Coord lo = 0, hi = -1;
  bool restricted = false;
};

}  // namespace

Coord locate_position(const TensorStorage& st,
                      const std::array<Coord, rt::kMaxDim>& coords) {
  return locate(st, LevelAccessors(st), 0, 0, coords);
}

// One term's evaluation state: accessors, the coordinate of each loop, the
// position of each (operand, level) and the piece's bound on each loop.
struct CoiterEngine::Frame {
  struct Operand {
    rt::LinearAccessor<double> vals;
    LevelAccessors levels;
  };
  WorkCounter work;
  std::vector<Operand> ops;
  const TensorStorage* out = nullptr;
  rt::LinearAccessor<double> out_vals;
  LevelAccessors out_levels;
  std::vector<Coord> env;
  std::vector<Coord> at;
  std::vector<Bound> bound;
};

CoiterEngine::CoiterEngine(const Statement& stmt,
                           std::vector<IndexVar> var_order)
    : order_(std::move(var_order)) {
  const tin::Assignment& asg = stmt.assignment;
  if (order_.empty()) order_ = tin::statement_vars(asg);
  // Every access is validated before any term is planned.
  output_ = operand(stmt, asg.lhs.tensor, asg.lhs.vars);
  for (const auto& acc : tin::expr_accesses(asg.rhs)) {
    operand(stmt, acc.tensor, acc.vars);
  }
  for (const auto& term : tin::sum_of_products(asg.rhs)) {
    terms_.push_back(plan_term(stmt, term));
    const Nest& n = terms_.back().nest;
    SPD_CHECK(n.fail_at != order_.size(), ScheduleError, n.error);
  }
}

CoiterEngine::Operand CoiterEngine::operand(
    const Statement& stmt, const std::string& name,
    const std::vector<IndexVar>& vars) const {
  const Tensor& t = stmt.tensor(name);
  Operand o;
  o.tensor = t;
  o.all_dense = t.format().all_dense();
  o.levels = static_cast<size_t>(t.format().order());
  std::vector<IndexVar> level_vars;
  for (size_t l = 0; l < o.levels; ++l) {
    const int level = static_cast<int>(l);
    const size_t d = static_cast<size_t>(t.format().dim_of_level(level));
    const auto it = std::find(order_.begin(), order_.end(), vars[d]);
    // A sparse access missing a loop fails the order check below.
    SPD_CHECK(it != order_.end() || !o.all_dense, ScheduleError,
              "index variable " << vars[d].name() << " of " << name
                                << " is not in the iteration order of "
                                << stmt.str());
    level_vars.push_back(vars[d]);
    o.kind[l] = t.format().mode(level);
    o.extent[l] = t.dims()[d];
    o.loop[l] = static_cast<size_t>(it - order_.begin());
  }
  // A sparse access's level variables must appear in the loop order as
  // its levels store them.
  if (!o.all_dense) {
    std::vector<IndexVar> in_order;
    for (const auto& v : order_) {
      for (const auto& lv : level_vars) {
        if (lv == v) in_order.push_back(lv);
      }
    }
    SPD_CHECK(in_order == level_vars, ScheduleError,
              "iteration order is incompatible with the level order of "
                  << name << " (" << stmt.str()
                  << "); reorder loops or change the format");
  }
  return o;
}

CoiterEngine::Term CoiterEngine::plan_term(const Statement& stmt,
                                           const tin::Expr& term) const {
  Term t;
  std::vector<tin::Expr> accesses;
  gather(term, t.coeff, accesses);
  // A loop's extent comes from the last of the output and the statement's
  // accesses that uses its variable, so a term that does not use a loop's
  // variable still runs once per coordinate of that loop.
  t.last.assign(order_.size(), -1);
  auto note = [&](const std::vector<IndexVar>& vars, const Tensor& tensor) {
    for (size_t d = 0; d < vars.size(); ++d) {
      for (size_t k = 0; k < order_.size(); ++k) {
        if (order_[k] == vars[d]) t.last[k] = tensor.dims()[d] - 1;
      }
    }
  };
  note(stmt.assignment.lhs.vars, output_.tensor);
  for (const auto& acc : tin::expr_accesses(stmt.assignment.rhs)) {
    note(acc.vars, stmt.tensor(acc.tensor));
  }
  for (const auto& e : accesses) {
    t.ops.push_back(operand(stmt, e->tensor, e->vars));
    t.ops.back().base = t.slots;
    t.slots += t.ops.back().levels;
  }
  t.nest = plan_nest(stmt, t, t.ops.size(), 0, accesses);
  // A window over level L of an operand whose first L + 1 level variables
  // are the outermost loops.
  for (size_t a = 0; a < t.ops.size(); ++a) {
    for (size_t l = 0; l < t.ops[a].levels && t.ops[a].loop[l] == l; ++l) {
      t.ops[a].windows.push_back(plan_nest(stmt, t, a, l + 1, accesses));
    }
  }
  return t;
}

// Replays once the cursor moves every piece would make: each operand's
// depth advances as its levels are driven or descended. A loop's driver is
// the first operand whose next level stores the loop's variable and yields
// coordinates (Compressed or Singleton); a non-unique level takes over,
// because it cannot be probed. `split` (if an operand) enters through a
// window over its levels before `first`.
CoiterEngine::Nest CoiterEngine::plan_nest(
    const Statement& stmt, const Term& t, size_t split, size_t first,
    const std::vector<tin::Expr>& accesses) const {
  Nest n;
  n.first = first;
  std::vector<size_t> depth(t.ops.size(), 0);
  // Descends every sparse operand but `skip` through the levels whose
  // loops precede `upto`.
  auto advance = [&](std::vector<Step>& steps, size_t skip, size_t upto) {
    for (size_t a = 0; a < t.ops.size(); ++a) {
      const Operand& o = t.ops[a];
      if (a == skip || o.all_dense) continue;
      while (depth[a] < o.levels && o.loop[depth[a]] < upto) {
        steps.push_back(Step{a, depth[a]++});
      }
    }
  };
  if (split < t.ops.size()) {
    depth[split] = first;
    advance(n.entry, split, first);
  }
  for (size_t k = first; k < order_.size(); ++k) {
    Loop& loop = n.loops.emplace_back();
    bool nonunique = false;
    for (size_t a = 0; a < t.ops.size(); ++a) {
      const Operand& o = t.ops[a];
      const size_t l = depth[a];
      if (o.all_dense || l == o.levels || o.loop[l] != k ||
          !o.kind[l].has_crd()) {
        continue;
      }
      const bool nu = !o.kind[l].unique();
      if (nu && nonunique) {
        n.fail_at = k;
        n.error = "cannot co-iterate two non-unique levels over " +
                  order_[k].name();
        return n;
      }
      if (loop.driver < 0 || (nu && !nonunique)) {
        loop.driver = static_cast<int>(a);
        loop.level = l;
        nonunique = nu;
      }
    }
    const size_t driver = static_cast<size_t>(loop.driver);
    if (loop.driver >= 0) ++depth[driver];
    advance(loop.steps, driver, k + 1);
  }
  for (size_t a = 0; a < t.ops.size(); ++a) {
    const Operand& o = t.ops[a];
    if (o.all_dense || depth[a] == o.levels) continue;
    n.fail_at = order_.size();
    n.error = "the loop order never descends level " +
              std::to_string(depth[a] + 1) + " of " +
              tin::expr_str(accesses[a]) + " in " + stmt.str() +
              " (its loop drives the level above); reorder loops or change "
              "the format";
    break;
  }
  return n;
}

rt::WorkEstimate CoiterEngine::run(const PieceBounds& piece) const {
  rt::WorkEstimate total;
  for (const Term& t : terms_) {
    Frame f;
    for (const Operand& o : t.ops) {
      const TensorStorage& st = o.tensor.storage();
      f.ops.push_back(
          {rt::LinearAccessor<double>(*st.vals(), rt::Access::Read),
           LevelAccessors(st)});
    }
    // The output resolves after assembly re-resolved its storage; its vals
    // accessor is the one place a reduction redirect can be in effect.
    f.out = &output_.tensor.storage();
    f.out_vals = rt::LinearAccessor<double>(*f.out->vals());
    if (!output_.all_dense) f.out_levels = LevelAccessors(*f.out);
    f.env.assign(order_.size(), 0);
    f.at.assign(t.slots, 0);
    // Piece restriction: the outermost-variable bound of a coordinate piece
    // plus any var-keyed bound from a multi-axis (grid) distribution.
    for (size_t k = 0; k < order_.size(); ++k) {
      Bound& b = f.bound.emplace_back();
      b.hi = t.last[k];
      auto restrict = [&b](rt::Rect1 r) {
        b.lo = std::max(b.lo, r.lo);
        b.hi = std::min(b.hi, r.hi);
        b.restricted = true;
      };
      if (k == 0 && piece.dist_coords && !piece.dist_pos) {
        restrict(*piece.dist_coords);
      }
      for (const auto& [vid, r] : piece.var_coords) {
        if (vid == order_[k].id()) restrict(r);
      }
    }
    if (piece.dist_pos) {
      run_window(t, piece, f);
    } else {
      walk(t, t.nest, 0, f);
    }
    total += f.work.done();
  }
  return total;
}

// Coordinate-position iteration: drive over the stored positions of the
// split operand's level `pos_level` in the piece's window, reconstruct the
// fused coordinates bottom-up, then walk the rest of the nest.
void CoiterEngine::run_window(const Term& t, const PieceBounds& piece,
                              Frame& f) const {
  size_t split = t.ops.size();
  for (size_t a = 0; a < t.ops.size(); ++a) {
    if (t.ops[a].tensor.name() == piece.pos_tensor) split = a;
  }
  SPD_CHECK(split < t.ops.size(), ScheduleError,
            "position-split tensor " << piece.pos_tensor
                                     << " does not appear in this term");
  const Operand& s = t.ops[split];
  SPD_CHECK(piece.pos_level >= 0 &&
                static_cast<size_t>(piece.pos_level) < s.levels,
            ScheduleError, "split level out of range");
  const size_t L = static_cast<size_t>(piece.pos_level);
  SPD_CHECK(L < s.windows.size(), ScheduleError,
            "position-space iteration requires the split tensor's leading "
            "variables to be outermost");
  const Nest& n = s.windows[L];
  const TensorStorage& st = s.tensor.storage();
  const LevelAccessors& acc = f.ops[split].levels;
  // Only stored positions have parents (an empty level has none).
  const rt::Rect1 window = piece.dist_pos->intersect(
      rt::Rect1{0, st.level(static_cast<int>(L)).positions - 1});
  // at[l]: the level-l position of window position q. Positions ascend
  // with q at every level, so a Compressed level's parent walks forward
  // from owner_of's answer for the window's first position.
  std::array<Coord, rt::kMaxDim> at{};
  std::array<Coord, rt::kMaxDim> owner{};
  for (Coord q = window.lo; q <= window.hi; ++q) {
    at[L] = q;
    for (size_t l = L; l > 0; --l) {
      if (s.kind[l].is_compressed()) {
        if (q == window.lo) {
          owner[l] = owner_of(
              acc.pos[l], st.level(static_cast<int>(l)).parent_positions,
              at[l]);
        }
        while (acc.pos[l][owner[l]].hi < at[l]) ++owner[l];
        at[l - 1] = owner[l];
      } else {
        at[l - 1] = s.kind[l].is_dense() ? at[l] / s.extent[l] : at[l];
      }
    }
    // Coordinates per fused level, clamped mid-chain against any var-keyed
    // piece bounds (inner universe axes of a grid may restrict a fused
    // variable's coordinates).
    bool ok = true;
    for (size_t l = 0; l <= L && ok; ++l) {
      const Coord c = s.kind[l].has_crd() ? Coord{acc.crd[l][at[l]]}
                                          : at[l] % s.extent[l];
      f.env[l] = c;
      const Bound& b = f.bound[l];
      ok = !b.restricted || (c >= b.lo && c <= b.hi);
    }
    f.work.stream(static_cast<int64_t>(L) + 1, 8.0);
    if (!ok) continue;
    f.at[s.base + L] = q;
    if (descend(t, n.entry, f)) walk(t, n, L + 1, f);
  }
}

void CoiterEngine::walk(const Term& t, const Nest& n, size_t k,
                        Frame& f) const {
  SPD_CHECK(k != n.fail_at, ScheduleError, n.error);
  if (k == order_.size()) {
    emit(t, f);
    return;
  }
  const Loop& loop = n.loops[k - n.first];
  const Bound b = f.bound[k];
  if (loop.driver < 0) {
    // Dense loop over the variable's extent.
    SPD_ASSERT(b.hi >= -1, "unknown extent for variable " << order_[k].name());
    for (Coord c = b.lo; c <= b.hi; ++c) {
      f.env[k] = c;
      if (descend(t, loop.steps, f)) walk(t, n, k + 1, f);
    }
    return;
  }
  const size_t d = static_cast<size_t>(loop.driver);
  const size_t l = loop.level;
  const size_t slot = t.ops[d].base + l;
  const LevelAccessors& acc = f.ops[d].levels;
  const Coord parent = l == 0 ? 0 : f.at[slot - 1];
  // A Singleton level yields one coordinate, at the position it shares
  // with its parent; a Compressed one yields its parent's segment.
  const bool singleton = t.ops[d].kind[l].is_singleton();
  const rt::PosRange seg =
      singleton ? rt::PosRange{parent, parent} : acc.pos[l][parent];
  if (!singleton) f.work.segment();
  for (Coord q = seg.lo; q <= seg.hi; ++q) {
    const Coord c = acc.crd[l][q];
    f.work.stream(1, 4.0);
    if (b.restricted && (c < b.lo || c > b.hi)) continue;
    f.env[k] = c;
    f.at[slot] = q;
    if (descend(t, loop.steps, f)) walk(t, n, k + 1, f);
  }
}

// Runs `steps` in order; false as soon as a probed level lacks the
// coordinate (the branch is dead).
bool CoiterEngine::descend(const Term& t, const std::vector<Step>& steps,
                           Frame& f) const {
  for (const Step& step : steps) {
    const Operand& o = t.ops[step.op];
    const LevelAccessors& acc = f.ops[step.op].levels;
    const size_t l = step.level;
    const size_t slot = o.base + l;
    const Coord parent = l == 0 ? 0 : f.at[slot - 1];
    const Coord c = f.env[o.loop[l]];
    if (o.kind[l].is_dense()) {
      f.at[slot] = parent * o.extent[l] + c;
    } else if (o.kind[l].is_singleton()) {
      // The position carries over; the stored coordinate either matches or
      // this branch is dead.
      f.work.stream(1, 4.0);
      if (Coord{acc.crd[l][parent]} != c) return false;
      f.at[slot] = parent;
    } else {
      // Probing a non-unique Compressed level by binary search would pick
      // an arbitrary duplicate; such levels must drive their variable.
      SPD_CHECK(o.kind[l].unique(), ScheduleError,
                "cannot probe the non-unique level of "
                    << o.tensor.name()
                    << "; its variable must be driven by this tensor "
                       "(reorder loops or change the format)");
      const rt::PosRange seg = acc.pos[l][parent];
      f.work.segment();
      if (seg.empty()) return false;
      const Coord q = find_in_segment(acc.crd[l], seg, c);
      if (q < 0) return false;
      f.at[slot] = q;
    }
  }
  return true;
}

void CoiterEngine::emit(const Term& t, Frame& f) const {
  // Dense operands (and a dense output) linearize in storage (level) order.
  auto linear = [&f](const Operand& o) {
    Coord pos = 0;
    for (size_t l = 0; l < o.levels; ++l) {
      pos = pos * o.extent[l] + f.env[o.loop[l]];
    }
    return pos;
  };
  double v = t.coeff;
  for (size_t a = 0; a < t.ops.size(); ++a) {
    const Operand& o = t.ops[a];
    if (o.all_dense) {
      v *= f.ops[a].vals.at(linear(o));
      f.work.fma_dense();
    } else {
      v *= f.ops[a].vals.at(f.at[o.base + o.levels - 1]);
      f.work.fma_sparse();
    }
  }
  if (output_.all_dense) {
    f.out_vals.at(linear(output_)) += v;
    return;
  }
  std::array<Coord, rt::kMaxDim> coords{};
  for (size_t l = 0; l < output_.levels; ++l) {
    coords[static_cast<size_t>(f.out->level(static_cast<int>(l)).dim)] =
        f.env[output_.loop[l]];
  }
  const Coord pos = locate(*f.out, f.out_levels, 0, 0, coords);
  SPD_ASSERT(pos >= 0,
             "sparse output pattern is missing a computed coordinate; "
             "run assembly first");
  f.out_vals.at(pos) += v;
  f.work.stream(1, 12.0);
}

}  // namespace spdistal::kern
