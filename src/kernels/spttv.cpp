#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

// Sparse tensor-times-vector over {Dense, Compressed|Dense, Compressed}
// 3-tensors: A(i,j) = B(i,j,k) * c(k). The output's (i,j) pattern is the set
// of B's non-empty fibers; a walking cursor over A's row segment consumes
// fibers in ascending j order.
Leaf make_spttv(Tensor A, Tensor B, Tensor c) {
  return make_leaf([A, B, c](const PieceBounds& piece, auto rec)
                       mutable SPD_LEAF_BODY -> rt::WorkEstimate {
    WorkCounter work;
    const auto& l1 = B.storage().level(1);
    const auto& l2 = B.storage().level(2);
    using PosAcc = rt::RegionAccessor<rt::PosRange, 1, rec>;
    using CrdAcc = rt::RegionAccessor<int32_t, 1, rec>;
    using ValAcc = rt::RegionAccessor<double, 1, rec>;
    const PosAcc l2pos(*l2.pos, rt::Access::Read);
    const CrdAcc l2crd(*l2.crd, rt::Access::Read);
    const ValAcc bv(*B.storage().vals(), rt::Access::Read);
    const ValAcc cv(*c.storage().vals(), rt::Access::Read);
    const PosAcc apos(*A.storage().level(1).pos, rt::Access::Read);
    const CrdAcc acrd(*A.storage().level(1).crd, rt::Access::Read);
    const ValAcc avals(*A.storage().vals());
    const bool compressed = l1.kind.is_compressed();
    PosAcc l1pos;
    CrdAcc l1crd;
    if (compressed) {
      l1pos = PosAcc(*l1.pos, rt::Access::Read);
      l1crd = CrdAcc(*l1.crd, rt::Access::Read);
    }
    const Window w(piece, B.storage(), rec);
    for (Coord i = w.rows.lo; i <= w.rows.hi; ++i) {
      if (!w.nz) work.segment();
      const rt::Rect1 fibers = Window::clamp(
          compressed ? l1pos[i]
                     : rt::PosRange{i * l1.extent, (i + 1) * l1.extent - 1},
          w.fibers);
      if (fibers.empty()) continue;
      auto col = [&](Coord q1) {
        return compressed ? Coord{l1crd[q1]} : q1 - i * l1.extent;
      };
      // A window that starts inside the row skips the output entries of
      // the row's earlier fibers.
      const rt::PosRange row_out = apos[i];
      Coord out = row_out.lo;
      while (out <= row_out.hi && acrd[out] < col(fibers.lo)) ++out;
      for (Coord q1 = fibers.lo; q1 <= fibers.hi; ++q1) {
        const rt::Rect1 seg = Window::clamp(l2pos[q1], w.pos);
        if (seg.empty()) continue;
        double sum = 0;
        for (Coord q2 = seg.lo; q2 <= seg.hi; ++q2) {
          sum += bv[q2] * cv[l2crd[q2]];
        }
        work.fma_sparse(seg.size());
        SPD_ASSERT(out <= row_out.hi && acrd[out] == col(q1),
                   "SpTTV: assembled pattern disagrees with fiber walk");
        avals[out] += sum;
        ++out;
        // 16 bytes per fiber: a row loop's output write, the same as a
        // non-zero loop's read of the fiber's pos segment.
        work.stream(1, 16.0);
      }
    }
    return work.done();
  });
}

}  // namespace spdistal::kern
