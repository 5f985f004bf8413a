#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

// Matricized tensor-times-Khatri-Rao product:
// A(i,l) = B(i,j,k) * C(j,l) * D(k,l) with dense factor matrices. The leaf
// walks B one level-2 fiber (i, j) at a time: the A and C rows are
// resolved once per fiber, and each stored non-zero (k, v) streams D's row
// k into A's row i.
Leaf make_spmttkrp(Tensor A, Tensor B, Tensor C, Tensor D) {
  return make_leaf([A, B, C, D](const PieceBounds& piece, auto rec)
                       mutable SPD_LEAF_BODY -> rt::WorkEstimate {
    WorkCounter work;
    const auto& l1 = B.storage().level(1);
    const auto& l2 = B.storage().level(2);
    using PosAcc = rt::RegionAccessor<rt::PosRange, 1, rec>;
    using CrdAcc = rt::RegionAccessor<int32_t, 1, rec>;
    using RowAcc = rt::RegionAccessor<double, 2, rec>;
    const PosAcc l2pos(*l2.pos, rt::Access::Read);
    const CrdAcc l2crd(*l2.crd, rt::Access::Read);
    const rt::RegionAccessor<double, 1, rec> bv(*B.storage().vals(),
                                                rt::Access::Read);
    const RowAcc cv(*C.storage().vals(), rt::Access::Read);
    const RowAcc dv(*D.storage().vals(), rt::Access::Read);
    const RowAcc av(*A.storage().vals());
    const bool compressed = l1.kind.is_compressed();
    PosAcc l1pos;
    CrdAcc l1crd;
    if (compressed) {
      l1pos = PosAcc(*l1.pos, rt::Access::Read);
      l1crd = CrdAcc(*l1.crd, rt::Access::Read);
    }
    const Coord n = A.dims()[1];
    const rt::Rect1 cols{0, n - 1};  // every column l
    const Window w(piece, B.storage(), rec);
    for (Coord i = w.rows.lo; i <= w.rows.hi; ++i) {
      // A row loop reads the pos segment of every row and fiber it visits;
      // a non-zero loop reads none.
      if (compressed && !w.nz) work.segment();
      const rt::Rect1 fibers = Window::clamp(
          compressed ? l1pos[i]
                     : rt::PosRange{i * l1.extent, (i + 1) * l1.extent - 1},
          w.fibers);
      for (Coord q1 = fibers.lo; q1 <= fibers.hi; ++q1) {
        const rt::Rect1 seg = Window::clamp(l2pos[q1], w.pos);
        if (!w.nz) work.segment();
        if (seg.empty()) continue;
        double* a = av.row(i, cols);
        const double* c = cv.row(
            compressed ? Coord{l1crd[q1]} : q1 - i * l1.extent, cols);
        for (Coord q2 = seg.lo; q2 <= seg.hi; ++q2) {
          const double v = bv[q2];
          const double* d = dv.row(l2crd[q2], cols);
          for (Coord l = 0; l < n; ++l) a[l] += v * c[l] * d[l];
        }
        // 4L flops per non-zero; the C/D rows stream once and the A row
        // stays cache-resident across the fiber.
        work.fma_dense_cached(2 * n, seg.size());
      }
    }
    return work.done();
  });
}

}  // namespace spdistal::kern
