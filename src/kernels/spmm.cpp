#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

Leaf make_spmm(Tensor A, Tensor B, Tensor C,
               std::optional<uint32_t> col_var) {
  return make_leaf([A, B, C, col_var](const PieceBounds& piece, auto rec)
                       mutable SPD_LEAF_BODY -> rt::WorkEstimate {
    WorkCounter work;
    const auto& Bl = B.storage().level(1);
    const rt::RegionAccessor<rt::PosRange, 1, rec> pos(*Bl.pos,
                                                       rt::Access::Read);
    const rt::RegionAccessor<int32_t, 1, rec> crd(*Bl.crd, rt::Access::Read);
    const rt::RegionAccessor<double, 1, rec> bv(*B.storage().vals(),
                                                rt::Access::Read);
    const rt::RegionAccessor<double, 2, rec> cv(*C.storage().vals(),
                                                rt::Access::Read);
    const rt::RegionAccessor<double, 2, rec> av(*A.storage().vals());
    const Coord J = A.dims()[1];
    // Axis-1 tile of a grid distribution: this piece owns only a block of
    // the dense output columns.
    const rt::Rect1 cols = col_var.has_value()
                               ? piece.var_bound(*col_var, rt::Rect1{0, J - 1})
                               : rt::Rect1{0, J - 1};
    if (cols.empty()) return work.done();
    const Window w(piece, B.storage(), rec);
    // The Senanayake et al. schedule: loop non-zeros of the row, stream the
    // dense row of C into the dense row of A.
    const Coord n = cols.size();
    for (Coord i = w.rows.lo; i <= w.rows.hi; ++i) {
      const rt::Rect1 seg = Window::clamp(pos[i], w.pos);
      if (!w.nz) work.segment();
      if (seg.lo > seg.hi) continue;
      double* a = av.row(i, cols);
      for (Coord q = seg.lo; q <= seg.hi; ++q) {
        const double v = bv[q];
        const double* c = cv.row(crd[q], cols);
        for (Coord j = 0; j < n; ++j) a[j] += v * c[j];
        // 2·|cols| flops per non-zero; C's row streams, A's row stays
        // resident.
        work.fma_dense_cached(n);
      }
    }
    return work.done();
  });
}

}  // namespace spdistal::kern
