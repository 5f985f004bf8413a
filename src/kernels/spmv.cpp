#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

namespace {

// The row of every stored position of a CSR matrix: row_of[q] = i for each
// q in pos[i].
std::shared_ptr<const std::vector<Coord>> build_owner_map(const Tensor& B) {
  const auto& level = B.storage().level(1);
  auto row_of = std::make_shared<std::vector<Coord>>(
      static_cast<size_t>(level.positions), 0);
  for (Coord i = 0; i < level.parent_positions; ++i) {
    const rt::PosRange seg = (*level.pos)[i];
    for (Coord q = seg.lo; q <= seg.hi; ++q) {
      (*row_of)[static_cast<size_t>(q)] = i;
    }
  }
  return row_of;
}

}  // namespace

Leaf make_spmv_row(Tensor a, Tensor B, Tensor c,
                   std::optional<uint32_t> col_var) {
  return make_leaf([a, B, c, col_var](const PieceBounds& piece, auto rec)
                       mutable SPD_LEAF_BODY -> rt::WorkEstimate {
    WorkCounter work;
    const auto& Bl = B.storage().level(1);
    // Accessors resolve the reduction-redirect indirection once per leaf
    // invocation; the inner loops below index raw pointers.
    const rt::RegionAccessor<rt::PosRange, 1, rec> pos(*Bl.pos,
                                                       rt::Access::Read);
    const rt::RegionAccessor<int32_t, 1, rec> crd(*Bl.crd, rt::Access::Read);
    const rt::RegionAccessor<double, 1, rec> bv(*B.storage().vals(),
                                                rt::Access::Read);
    const rt::RegionAccessor<double, 1, rec> cv(*c.storage().vals(),
                                                rt::Access::Read);
    const rt::RegionAccessor<double, 1, rec> av(*a.storage().vals());
    // A position split at the Dense row level hands over level-0
    // positions, which are rows; the piece is clamped to B's rows.
    const rt::Rect1 all{0, B.dims()[0] - 1};
    const rt::Rect1 rows =
        all.intersect(piece.dist_pos.value_or(piece.dist_coords.value_or(all)));
    const rt::Rect1 cols =
        col_var.has_value()
            ? piece.var_bound(*col_var, rt::Rect1{0, B.dims()[1] - 1})
            : rt::Rect1{0, B.dims()[1] - 1};
    const bool clamp = col_var.has_value();
    for (Coord i = rows.lo; i <= rows.hi; ++i) {
      const rt::PosRange seg = pos[i];
      work.segment();
      double sum = 0;
      int64_t computed = 0;
      for (Coord q = seg.lo; q <= seg.hi; ++q) {
        const Coord j = crd[q];
        if (clamp && (j < cols.lo || j > cols.hi)) continue;
        sum += bv[q] * cv[j];
        ++computed;
      }
      work.fma_sparse(computed);
      // Clamped-out entries only stream their crd during the scan.
      if (clamp) work.stream(seg.size() - computed, 4.0);
      av[i] += sum;
      work.stream(1);
    }
    return work.done();
  });
}

Leaf make_spmv_nz(Tensor a, Tensor B, Tensor c,
                  std::optional<uint32_t> col_var) {
  // B is CSR ({Dense, Compressed}) or COO ({Compressed!u, Singleton}). For
  // CSR, precompute the owning row of every non-zero position once (the
  // runtime analysis the generated code amortizes across iterations); COO
  // stores the row per position in the root crd already. Other two-level
  // layouts (e.g. DCSR, whose root crd is NOT position-aligned with the
  // leaf level) must not reach this kernel.
  const bool coo = B.storage().level(0).kind.has_crd();
  SPD_ASSERT(B.storage().level(1).kind.is_singleton() ||
                 B.storage().level(0).kind.is_dense(),
             "make_spmv_nz requires CSR or COO storage, got "
                 << B.storage().str());
  const auto row_of = coo ? nullptr : build_owner_map(B);
  return make_leaf([a, B, c, row_of, coo, col_var](
                       const PieceBounds& piece, auto rec)
                       mutable SPD_LEAF_BODY -> rt::WorkEstimate {
    WorkCounter work;
    const auto& Bl = B.storage().level(1);
    const rt::RegionAccessor<int32_t, 1, rec> crd(*Bl.crd, rt::Access::Read);
    rt::RegionAccessor<int32_t, 1, rec> row_crd;
    if (coo) {
      row_crd = rt::RegionAccessor<int32_t, 1, rec>(
          *B.storage().level(0).crd, rt::Access::Read);
    }
    const rt::RegionAccessor<double, 1, rec> bv(*B.storage().vals(),
                                                rt::Access::Read);
    const rt::RegionAccessor<double, 1, rec> cv(*c.storage().vals(),
                                                rt::Access::Read);
    const rt::RegionAccessor<double, 1, rec> av(*a.storage().vals());
    // The piece's window, clamped to the positions B's last level stores.
    const rt::Rect1 all{0, Bl.positions - 1};
    const rt::Rect1 range = all.intersect(piece.dist_pos.value_or(all));
    // Inner universe axis of a non-zero x universe grid: clamp stored
    // columns to the piece's block instead of general co-iteration.
    const rt::Rect1 cols =
        col_var.has_value()
            ? piece.var_bound(*col_var, rt::Rect1{0, B.dims()[1] - 1})
            : rt::Rect1{0, B.dims()[1] - 1};
    const bool clamp = col_var.has_value();
    // Read once: through the shared_ptr, GCC reloads it on every position.
    const Coord* owner = coo ? nullptr : row_of->data();
    int64_t computed = 0;
    for (Coord q = range.lo; q <= range.hi; ++q) {
      const Coord j = crd[q];
      if (clamp && (j < cols.lo || j > cols.hi)) continue;
      const Coord i = coo ? Coord{row_crd[q]} : owner[q];
      av[i] += bv[q] * cv[j];
      ++computed;
    }
    work.fma_sparse(computed);
    work.stream(computed, 12.0);  // row lookup + output scatter
    // Clamped-out entries only stream their crd during the scan.
    if (clamp) work.stream(range.size() - computed, 4.0);
    return work.done();
  });
}

}  // namespace spdistal::kern
