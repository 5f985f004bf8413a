#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

// A and B patterns align 1:1, so the output value for B's position q lives
// at A's position q. With `col_var`, evaluation is restricted to stored
// columns inside the piece's axis-1 tile.
Leaf make_sddmm(Tensor A, Tensor B, Tensor C, Tensor D,
                std::optional<uint32_t> col_var) {
  return make_leaf([A, B, C, D, col_var](const PieceBounds& piece, auto rec)
                       mutable SPD_LEAF_BODY -> rt::WorkEstimate {
    WorkCounter work;
    const bool clamp = col_var.has_value();
    const rt::Rect1 cols =
        clamp ? piece.var_bound(*col_var, rt::Rect1{0, B.dims()[1] - 1})
              : rt::Rect1{0, B.dims()[1] - 1};
    const auto& Bl = B.storage().level(1);
    const rt::RegionAccessor<rt::PosRange, 1, rec> pos(*Bl.pos,
                                                       rt::Access::Read);
    const rt::RegionAccessor<int32_t, 1, rec> crd(*Bl.crd, rt::Access::Read);
    const rt::RegionAccessor<double, 1, rec> bv(*B.storage().vals(),
                                                rt::Access::Read);
    const rt::RegionAccessor<double, 2, rec> cv(*C.storage().vals(),
                                                rt::Access::Read);
    const rt::RegionAccessor<double, 2, rec> dv(*D.storage().vals(),
                                                rt::Access::Read);
    const rt::RegionAccessor<double, 1, rec> av(*A.storage().vals());
    const Coord K = C.dims()[1];
    const Window w(piece, B.storage(), rec);
    for (Coord i = w.rows.lo; i <= w.rows.hi; ++i) {
      const rt::Rect1 seg = Window::clamp(pos[i], w.pos);
      for (Coord q = seg.lo; q <= seg.hi; ++q) {
        const Coord j = crd[q];
        if (clamp) {
          work.stream(1, 4.0);
          if (!cols.contains(j)) continue;
        }
        double dot = 0;
        for (Coord k = 0; k < K; ++k) {
          dot += cv(i, k) * dv(k, j);
        }
        av[q] += bv[q] * dot;
        work.fma_dense(K);
        work.fma_sparse(1);
      }
    }
    return work.done();
  });
}

}  // namespace spdistal::kern
