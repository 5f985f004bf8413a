#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

// Fused three-way sparse matrix addition: one union merge per row, writing
// directly into the assembled output segment — no intermediate sparse
// matrices or re-assembly between additions (paper §VI-A / §VI-C).
Leaf make_spadd3_row(Tensor A, Tensor B, Tensor C, Tensor D) {
  return make_leaf([A, B, C, D](const PieceBounds& piece, auto rec)
                       mutable SPD_LEAF_BODY -> rt::WorkEstimate {
    WorkCounter work;
    using PosAcc = rt::RegionAccessor<rt::PosRange, 1, rec>;
    using CrdAcc = rt::RegionAccessor<int32_t, 1, rec>;
    using ValAcc = rt::RegionAccessor<double, 1, rec>;
    struct In {
      PosAcc pos;
      CrdAcc crd;
      ValAcc vals;
    };
    auto input = [](const Tensor& t) {
      return In{PosAcc(*t.storage().level(1).pos, rt::Access::Read),
                CrdAcc(*t.storage().level(1).crd, rt::Access::Read),
                ValAcc(*t.storage().vals(), rt::Access::Read)};
    };
    const In ins[3] = {input(B), input(C), input(D)};
    const PosAcc apos(*A.storage().level(1).pos, rt::Access::Read);
    const CrdAcc acrd(*A.storage().level(1).crd, rt::Access::Read);
    const ValAcc avals(*A.storage().vals());
    // The piece's rows, clamped to A's.
    const rt::Rect1 all{0, A.dims()[0] - 1};
    const rt::Rect1 rows = all.intersect(piece.dist_coords.value_or(all));
    for (Coord i = rows.lo; i <= rows.hi; ++i) {
      // Three cursors over this row's segments.
      Coord q[3], hi[3];
      for (int s = 0; s < 3; ++s) {
        const rt::PosRange seg = ins[s].pos[i];
        q[s] = seg.lo;
        hi[s] = seg.hi;
        work.segment();
      }
      Coord out = apos[i].lo;
      const Coord out_hi = apos[i].hi;
      while (q[0] <= hi[0] || q[1] <= hi[1] || q[2] <= hi[2]) {
        // Smallest current column across the three inputs.
        Coord col = A.dims()[1];
        for (int s = 0; s < 3; ++s) {
          if (q[s] <= hi[s]) col = std::min<Coord>(col, ins[s].crd[q[s]]);
        }
        double sum = 0;
        for (int s = 0; s < 3; ++s) {
          if (q[s] <= hi[s] && ins[s].crd[q[s]] == col) {
            sum += ins[s].vals[q[s]];
            ++q[s];
          }
        }
        SPD_ASSERT(out <= out_hi && acrd[out] == col,
                   "SpAdd3: assembled pattern disagrees with union merge");
        avals[out] += sum;
        ++out;
        work.fma_sparse(1);
        work.stream(1, 16.0);
      }
    }
    return work.done();
  });
}

}  // namespace spdistal::kern
