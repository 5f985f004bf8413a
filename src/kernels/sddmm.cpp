#include "kernels/leaf_kernels.h"
#include "kernels/work.h"

namespace spdistal::kern {

using rt::Coord;

namespace {

// Shared inner body: A and B patterns align 1:1, so the output value for
// B's position q lives at A's position q. `cols` restricts evaluation to
// stored columns inside the piece's axis-1 tile (full range by default).
rt::WorkEstimate sddmm_positions(Tensor& A, Tensor& B, Tensor& C, Tensor& D,
                                 rt::Rect1 range,
                                 const std::vector<Coord>& row_of,
                                 std::optional<rt::Rect1> cols = std::nullopt) {
  WorkCounter work;
  const rt::RegionAccessor<int32_t> crd(*B.storage().level(1).crd,
                                        rt::Access::Read);
  const rt::RegionAccessor<double> bv(*B.storage().vals(), rt::Access::Read);
  const rt::RegionAccessor<double, 2> cv(*C.storage().vals(),
                                         rt::Access::Read);
  const rt::RegionAccessor<double, 2> dv(*D.storage().vals(),
                                         rt::Access::Read);
  const rt::RegionAccessor<double> av(*A.storage().vals());
  const Coord K = C.dims()[1];
  for (Coord q = range.lo; q <= range.hi; ++q) {
    const Coord i = row_of[static_cast<size_t>(q)];
    const Coord j = crd[q];
    if (cols.has_value()) {
      work.stream(1, 4.0);
      if (!cols->contains(j)) continue;
    }
    double dot = 0;
    for (Coord k = 0; k < K; ++k) {
      dot += cv(i, k) * dv(k, j);
    }
    av[q] += bv[q] * dot;
    work.fma_dense(K);
    work.fma_sparse(1);
  }
  return work.done();
}

}  // namespace

Leaf make_sddmm_nz(Tensor A, Tensor B, Tensor C, Tensor D,
                   std::optional<uint32_t> col_var) {
  auto owners = build_owner_maps(B, 2);
  return [A, B, C, D, owners, col_var](const PieceBounds& piece) mutable {
    const rt::Rect1 range = piece.dist_pos.value_or(
        rt::Rect1{0, B.storage().level(1).positions - 1});
    const std::optional<rt::Rect1> cols =
        col_var.has_value()
            ? std::optional<rt::Rect1>(piece.var_bound(
                  *col_var, rt::Rect1{0, B.dims()[1] - 1}))
            : std::nullopt;
    return sddmm_positions(A, B, C, D, range, (*owners)[1], cols);
  };
}

Leaf make_sddmm_row(Tensor A, Tensor B, Tensor C, Tensor D,
                    std::optional<uint32_t> col_var) {
  auto owners = build_owner_maps(B, 2);
  return [A, B, C, D, owners, col_var](const PieceBounds& piece) mutable {
    const rt::Rect1 rows = piece.dist_coords.value_or(
        rt::Rect1{0, B.dims()[0] - 1});
    const std::optional<rt::Rect1> cols =
        col_var.has_value()
            ? std::optional<rt::Rect1>(piece.var_bound(
                  *col_var, rt::Rect1{0, B.dims()[1] - 1}))
            : std::nullopt;
    // Convert the row range to this piece's contiguous position range.
    const rt::RegionAccessor<rt::PosRange> pos(*B.storage().level(1).pos,
                                               rt::Access::Read);
    rt::Rect1 range{0, -1};
    for (Coord i = rows.lo; i <= rows.hi; ++i) {
      const rt::PosRange seg = pos[i];
      if (seg.empty()) continue;
      if (range.empty()) {
        range = rt::Rect1{seg.lo, seg.hi};
      } else {
        range.hi = seg.hi;
      }
    }
    if (range.empty()) return rt::WorkEstimate{};
    return sddmm_positions(A, B, C, D, range, (*owners)[1], cols);
  };
}

}  // namespace spdistal::kern
