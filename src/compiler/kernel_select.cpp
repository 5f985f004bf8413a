#include "compiler/kernel_select.h"

#include <algorithm>

#include "kernels/leaf_kernels.h"

namespace spdistal::comp {

namespace {

using tin::Access;
using tin::IndexVar;

bool is_dc(const Tensor& t) {
  // Exactly CSR: a Dense row level over a unique Compressed column level.
  // Non-unique or Singleton levels fail the descriptor equality and route
  // to the general co-iteration engine.
  return t.format().modes() ==
             std::vector<fmt::ModeFormat>{fmt::ModeFormat::Dense(),
                                          fmt::ModeFormat::Compressed()} &&
         t.format().ordering() == std::vector<int>{0, 1};
}

// COO matrix: Compressed(non-unique) root + Singleton column chain.
bool is_coo2(const Tensor& t) {
  return t.format() == fmt::coo(2);
}

bool is_sparse3_rowable(const Tensor& t) {
  // {Dense, Compressed, Compressed} or {Dense, Dense, Compressed}, identity
  // ordering; both have a Dense row level the row kernels iterate. The
  // middle and leaf levels must be unique and non-Singleton (the row
  // kernels walk pos segments).
  const auto& m = t.format().modes();
  if (m.size() != 3 || !m[0].is_dense() ||
      !(m[2].is_compressed() && m[2].unique()) || m[1].is_singleton() ||
      !m[1].unique()) {
    return false;
  }
  return t.format().ordering() == std::vector<int>{0, 1, 2};
}

bool dense(const Tensor& t) { return t.format().all_dense(); }

// Finds the unique access with `arity` variables for which `pred` holds;
// returns nullptr if none or ambiguous.
const Access* find_access(const std::vector<Access>& accs, size_t arity,
                          const std::function<bool(const Access&)>& pred) {
  const Access* found = nullptr;
  for (const auto& a : accs) {
    if (a.vars.size() == arity && pred(a)) {
      if (found != nullptr) return nullptr;
      found = &a;
    }
  }
  return found;
}

}  // namespace

SelectedLeaf select_leaf(const Statement& stmt, bool position_space,
                         const std::string& split_tensor, int split_level,
                         const std::vector<IndexVar>& dist_vars) {
  const tin::Assignment& asg = stmt.assignment;
  const bool multi_axis = dist_vars.size() >= 2;
  // With a 2-axis grid, a specialized kernel is usable only when axis 1 is
  // the variable the kernel can clamp (checked per kernel below). For
  // position-space grids only the inner axis matters (axis 0 names the
  // fused variable, validated by the compiler).
  auto inner_axes_ok = [&](const IndexVar& inner) {
    return !multi_axis ||
           (dist_vars.size() == 2 && dist_vars[1] == inner);
  };
  auto grid_matches = [&](const IndexVar& outer, const IndexVar& inner) {
    return !multi_axis || (dist_vars[0] == outer && inner_axes_ok(inner));
  };
  auto coiter_fallback = [&]() {
    // Position-space iteration requires the split tensor's fused level
    // variables outermost; reorder the loop nest accordingly.
    std::vector<IndexVar> order;
    if (position_space && !split_tensor.empty() && split_level >= 0) {
      order = fused_level_vars(stmt, split_tensor, split_level + 1);
      for (const auto& v : tin::statement_vars(asg)) {
        if (std::find(order.begin(), order.end(), v) == order.end()) {
          order.push_back(v);
        }
      }
    }
    auto engine = std::make_shared<kern::CoiterEngine>(stmt, std::move(order));
    return SelectedLeaf{
        [engine](const kern::PieceBounds& piece) { return engine->run(piece); },
        "coiter"};
  };
  // The specialized leaves interpret a piece's position range as positions
  // of the split tensor's last level; a mid-tree split must use the general
  // engine (which honors pos_level). Singleton levels are
  // position-split-transparent: a split above a trailing Singleton chain
  // shares the last level's position space 1:1, so it still counts as
  // "last" (COO chains split anywhere are the same split).
  auto nz_split_is_last = [&](const Access* B) {
    if (split_level < 0) return true;
    const fmt::Format& f = stmt.tensor(B->tensor).format();
    for (int l = split_level + 1; l < f.order(); ++l) {
      if (!f.mode(l).is_singleton()) return false;
    }
    return true;
  };
  // One leaf serves both piece kinds of a family; the launch keeps the
  // kind in its name (traces and SimReport rows).
  auto family = [&](const char* kernel) {
    return std::string(kernel) + (position_space ? "_nz" : "_row");
  };

  std::vector<tin::Expr> terms;
  try {
    terms = tin::sum_of_products(asg.rhs);
  } catch (const NotationError&) {
    return coiter_fallback();
  }
  const Tensor& out = stmt.tensor(asg.lhs.tensor);

  // --- SpAdd3: A(i,j) = B(i,j) + C(i,j) + D(i,j), all {Dense, Compressed}.
  if (terms.size() == 3 && asg.lhs.vars.size() == 2 && is_dc(out)) {
    std::vector<Tensor> ins;
    bool ok = true;
    for (const auto& t : terms) {
      if (t->kind != tin::ExprKind::Access || t->vars != asg.lhs.vars) {
        ok = false;
        break;
      }
      const Tensor& in = stmt.tensor(t->tensor);
      if (!is_dc(in)) {
        ok = false;
        break;
      }
      ins.push_back(in);
    }
    if (ok && !position_space && !multi_axis) {
      return SelectedLeaf{kern::make_spadd3_row(out, ins[0], ins[1], ins[2]),
                          "spadd3_row"};
    }
  }

  if (terms.size() != 1) return coiter_fallback();
  const std::vector<Access> accs = tin::expr_accesses(terms[0]);

  // --- SpMV: a(i) = B(i,j) * c(j). B may be CSR or COO; the nz kernel
  //     handles both layouts (COO reads rows from the root crd).
  if (asg.lhs.vars.size() == 1 && accs.size() == 2 && dense(out)) {
    const IndexVar i = asg.lhs.vars[0];
    const Access* B = find_access(accs, 2, [&](const Access& a) {
      return a.vars[0] == i && (is_dc(stmt.tensor(a.tensor)) ||
                                is_coo2(stmt.tensor(a.tensor)));
    });
    if (B != nullptr) {
      const IndexVar j = B->vars[1];
      const Access* c = find_access(accs, 1, [&](const Access& a) {
        return a.vars[0] == j && dense(stmt.tensor(a.tensor));
      });
      if (c != nullptr) {
        if (position_space) {
          // A non-zero x universe grid clamps the column variable inside
          // the kernel instead of falling back to general co-iteration.
          if (!inner_axes_ok(j)) return coiter_fallback();
          const auto col_clamp = multi_axis
                                     ? std::optional<uint32_t>(j.id())
                                     : std::nullopt;
          if (!nz_split_is_last(B)) {
            // Mid-tree split: for CSR the only mid-tree level is the Dense
            // row level (level 0), whose positions are rows: the row leaf
            // iterates them.
            if (!is_dc(stmt.tensor(B->tensor)) || split_level != 0) {
              return coiter_fallback();
            }
            return SelectedLeaf{
                kern::make_spmv_row(out, stmt.tensor(B->tensor),
                                    stmt.tensor(c->tensor), col_clamp),
                "spmv_nz"};
          }
          return SelectedLeaf{
              kern::make_spmv_nz(out, stmt.tensor(B->tensor),
                                 stmt.tensor(c->tensor), col_clamp),
              "spmv_nz"};
        }
        // spmv_row needs a Dense row level; universe grids and COO
        // operands use the general engine.
        if (multi_axis || !is_dc(stmt.tensor(B->tensor))) {
          return coiter_fallback();
        }
        return SelectedLeaf{kern::make_spmv_row(out, stmt.tensor(B->tensor),
                                          stmt.tensor(c->tensor)),
                            "spmv_row"};
      }
    }
  }

  // --- SpMM: A(i,j) = B(i,k) * C(k,j), A/C dense.
  if (asg.lhs.vars.size() == 2 && accs.size() == 2 && dense(out)) {
    const IndexVar i = asg.lhs.vars[0];
    const IndexVar j = asg.lhs.vars[1];
    const Access* B = find_access(accs, 2, [&](const Access& a) {
      return a.vars[0] == i && !(a.vars[1] == j) &&
             is_dc(stmt.tensor(a.tensor));
    });
    if (B != nullptr) {
      const IndexVar k = B->vars[1];
      const Access* C = find_access(accs, 2, [&](const Access& a) {
        return a.vars[0] == k && a.vars[1] == j &&
               dense(stmt.tensor(a.tensor));
      });
      if (C != nullptr) {
        // A 2-D grid over (i, j) tiles rows x output columns; a non-zero x
        // universe grid splits B's non-zeros x output columns. Either way
        // the leaf clamps its dense j loop to the piece's axis-1 block.
        if (position_space ? !nz_split_is_last(B) || !inner_axes_ok(j)
                           : !grid_matches(i, j)) {
          return coiter_fallback();
        }
        return SelectedLeaf{
            kern::make_spmm(out, stmt.tensor(B->tensor),
                            stmt.tensor(C->tensor),
                            multi_axis ? std::optional<uint32_t>(j.id())
                                       : std::nullopt),
            family("spmm")};
      }
    }
  }

  // --- SDDMM: A(i,j) = B(i,j) * C(i,k) * D(k,j), B sparse, C/D dense,
  //     A sparse with B's pattern (assembled).
  if (asg.lhs.vars.size() == 2 && accs.size() == 3 && is_dc(out)) {
    const IndexVar i = asg.lhs.vars[0];
    const IndexVar j = asg.lhs.vars[1];
    const Access* B = find_access(accs, 2, [&](const Access& a) {
      return a.vars == asg.lhs.vars && is_dc(stmt.tensor(a.tensor));
    });
    const Access* C = find_access(accs, 2, [&](const Access& a) {
      return a.vars[0] == i && !(a.vars[1] == j) &&
             dense(stmt.tensor(a.tensor));
    });
    if (B != nullptr && C != nullptr) {
      const IndexVar k = C->vars[1];
      const Access* D = find_access(accs, 2, [&](const Access& a) {
        return a.vars[0] == k && a.vars[1] == j &&
               dense(stmt.tensor(a.tensor));
      });
      if (D != nullptr) {
        // A 2-D grid over (i, j) tiles rows x sparse columns: the leaf
        // filters B's stored columns to the piece's axis-1 block.
        if (position_space ? !nz_split_is_last(B) || !inner_axes_ok(j)
                           : !grid_matches(i, j)) {
          return coiter_fallback();
        }
        return SelectedLeaf{
            kern::make_sddmm(out, stmt.tensor(B->tensor),
                             stmt.tensor(C->tensor), stmt.tensor(D->tensor),
                             multi_axis ? std::optional<uint32_t>(j.id())
                                        : std::nullopt),
            family("sddmm")};
      }
    }
  }

  // --- SpTTV: A(i,j) = B(i,j,k) * c(k).
  if (asg.lhs.vars.size() == 2 && accs.size() == 2 && is_dc(out)) {
    const Access* B = find_access(accs, 3, [&](const Access& a) {
      return a.vars[0] == asg.lhs.vars[0] && a.vars[1] == asg.lhs.vars[1] &&
             is_sparse3_rowable(stmt.tensor(a.tensor));
    });
    if (B != nullptr) {
      const IndexVar k = B->vars[2];
      const Access* c = find_access(accs, 1, [&](const Access& a) {
        return a.vars[0] == k && dense(stmt.tensor(a.tensor));
      });
      if (c != nullptr) {
        if (multi_axis || (position_space && !nz_split_is_last(B))) {
          return coiter_fallback();
        }
        return SelectedLeaf{kern::make_spttv(out, stmt.tensor(B->tensor),
                                             stmt.tensor(c->tensor)),
                            family("spttv")};
      }
    }
  }

  // --- SpMTTKRP: A(i,l) = B(i,j,k) * C(j,l) * D(k,l).
  if (asg.lhs.vars.size() == 2 && accs.size() == 3 && dense(out)) {
    const IndexVar i = asg.lhs.vars[0];
    const IndexVar l = asg.lhs.vars[1];
    const Access* B = find_access(accs, 3, [&](const Access& a) {
      return a.vars[0] == i && is_sparse3_rowable(stmt.tensor(a.tensor));
    });
    if (B != nullptr) {
      const IndexVar j = B->vars[1];
      const IndexVar k = B->vars[2];
      const Access* C = find_access(accs, 2, [&](const Access& a) {
        return a.vars[0] == j && a.vars[1] == l &&
               dense(stmt.tensor(a.tensor));
      });
      const Access* D = find_access(accs, 2, [&](const Access& a) {
        return a.vars[0] == k && a.vars[1] == l &&
               dense(stmt.tensor(a.tensor));
      });
      if (C != nullptr && D != nullptr) {
        if (multi_axis || (position_space && !nz_split_is_last(B))) {
          return coiter_fallback();
        }
        return SelectedLeaf{
            kern::make_spmttkrp(out, stmt.tensor(B->tensor),
                                stmt.tensor(C->tensor),
                                stmt.tensor(D->tensor)),
            family("spmttkrp")};
      }
    }
  }

  return coiter_fallback();
}

}  // namespace spdistal::comp
