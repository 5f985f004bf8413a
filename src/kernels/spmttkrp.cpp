#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

// Matricized tensor-times-Khatri-Rao product:
// A(i,l) = B(i,j,k) * C(j,l) * D(k,l) with dense factor matrices. Both
// leaves walk B one level-2 fiber (i, j) at a time: the A and C rows are
// resolved once per fiber, and each stored non-zero (k, v) streams D's row
// k into A's row i.

namespace {

// Accessors every SpMTTKRP leaf reads, built at the top of one invocation.
struct MttkrpOperands {
  rt::RegionAccessor<int32_t> l2crd;
  rt::RegionAccessor<double> bv;
  rt::RegionAccessor<double, 2> cv, dv, av;
  rt::Rect1 cols;  // every column l of the dense factors

  MttkrpOperands(const Tensor& A, const Tensor& B, const Tensor& C,
                 const Tensor& D)
      : l2crd(*B.storage().level(2).crd, rt::Access::Read),
        bv(*B.storage().vals(), rt::Access::Read),
        cv(*C.storage().vals(), rt::Access::Read),
        dv(*D.storage().vals(), rt::Access::Read),
        av(*A.storage().vals()),
        cols{0, A.dims()[1] - 1} {}

  // The stored non-zeros at level-2 positions [lo, hi] of the fiber (i, j):
  // A(i,l) += v * C(j,l) * D(k,l) for each, in position order.
  void fiber(Coord i, Coord j, Coord lo, Coord hi, WorkCounter& work) const {
    double* a = av.row(i, cols);
    const double* c = cv.row(j, cols);
    const Coord n = cols.size();
    for (Coord q2 = lo; q2 <= hi; ++q2) {
      const double v = bv[q2];
      const double* d = dv.row(l2crd[q2], cols);
      for (Coord l = 0; l < n; ++l) a[l] += v * c[l] * d[l];
    }
    // 4L flops per non-zero; the C/D rows stream once and the A row stays
    // cache-resident across the fiber.
    work.fma_dense_cached(2 * n, hi - lo + 1);
  }
};

}  // namespace

Leaf make_spmttkrp_row(Tensor A, Tensor B, Tensor C, Tensor D) {
  return [A, B, C, D](const PieceBounds& piece) mutable -> rt::WorkEstimate {
    WorkCounter work;
    const auto& l1 = B.storage().level(1);
    const MttkrpOperands op(A, B, C, D);
    const rt::RegionAccessor<rt::PosRange> l2pos(*B.storage().level(2).pos,
                                                 rt::Access::Read);
    rt::RegionAccessor<rt::PosRange> l1pos;
    rt::RegionAccessor<int32_t> l1crd;
    if (l1.kind.is_compressed()) {
      l1pos = rt::RegionAccessor<rt::PosRange>(*l1.pos, rt::Access::Read);
      l1crd = rt::RegionAccessor<int32_t>(*l1.crd, rt::Access::Read);
    }
    const rt::Rect1 rows = piece.dist_coords.value_or(
        rt::Rect1{0, B.dims()[0] - 1});
    for (Coord i = rows.lo; i <= rows.hi; ++i) {
      auto fiber = [&](Coord j, Coord q1) {
        const rt::PosRange seg = l2pos[q1];
        work.segment();
        if (!seg.empty()) op.fiber(i, j, seg.lo, seg.hi, work);
      };
      if (l1.kind.is_compressed()) {
        const rt::PosRange seg = l1pos[i];
        work.segment();
        for (Coord q1 = seg.lo; q1 <= seg.hi; ++q1) {
          fiber(l1crd[q1], q1);
        }
      } else {
        for (Coord j = 0; j < l1.extent; ++j) {
          fiber(j, i * l1.extent + j);
        }
      }
    }
    return work.done();
  };
}

Leaf make_spmttkrp_nz(Tensor A, Tensor B, Tensor C, Tensor D) {
  auto owners = build_owner_maps(B, 3);
  return [A, B, C, D, owners](const PieceBounds& piece) mutable
             -> rt::WorkEstimate {
    WorkCounter work;
    const auto& l1 = B.storage().level(1);
    const MttkrpOperands op(A, B, C, D);
    rt::RegionAccessor<int32_t> l1crd;
    if (l1.kind.is_compressed()) {
      l1crd = rt::RegionAccessor<int32_t>(*l1.crd, rt::Access::Read);
    }
    const std::vector<Coord>& fiber_of = (*owners)[2];
    const rt::Rect1 range = piece.dist_pos.value_or(
        rt::Rect1{0, B.storage().level(2).positions - 1});
    // A piece's boundaries may fall inside a fiber: each run of positions
    // with one owner is the part of that fiber this piece holds.
    for (Coord lo = range.lo; lo <= range.hi;) {
      const Coord q1 = fiber_of[static_cast<size_t>(lo)];
      Coord hi = lo;
      while (hi < range.hi && fiber_of[static_cast<size_t>(hi + 1)] == q1) ++hi;
      if (l1.kind.is_compressed()) {
        op.fiber((*owners)[1][static_cast<size_t>(q1)], l1crd[q1], lo, hi,
                 work);
      } else {
        op.fiber(q1 / l1.extent, q1 % l1.extent, lo, hi, work);
      }
      lo = hi + 1;
    }
    return work.done();
  };
}

}  // namespace spdistal::kern
