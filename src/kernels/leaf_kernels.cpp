#include "kernels/leaf_kernels.h"

namespace spdistal::kern {

using rt::Coord;

template <bool kRecord>
Coord owner_of(const rt::RegionAccessor<rt::PosRange, 1, kRecord>& pos,
               Coord n, Coord q) {
  Coord first = 0;
  while (n > 0) {
    const Coord half = n / 2;
    if (pos[first + half].hi < q) {
      first += half + 1;
      n -= half + 1;
    } else {
      n = half;
    }
  }
  return first;
}

template Coord owner_of(const rt::RegionAccessor<rt::PosRange, 1, true>&,
                        Coord, Coord);
template Coord owner_of(const rt::RegionAccessor<rt::PosRange, 1, false>&,
                        Coord, Coord);

template <bool kRecord>
Window::Window(const PieceBounds& piece, const fmt::TensorStorage& B,
               std::bool_constant<kRecord>)
    : nz(piece.dist_pos.has_value()),
      rows{0, B.dims()[0] - 1},
      fibers{0, B.level(1).positions - 1},
      pos{0, B.level(B.num_levels() - 1).positions - 1} {
  if (!nz) {
    if (piece.dist_coords) rows = rows.intersect(*piece.dist_coords);
    return;
  }
  pos = pos.intersect(*piece.dist_pos);
  if (pos.empty()) {
    rows = rt::Rect1{};
    return;
  }
  auto owners = [](const fmt::LevelStorage& level, rt::Rect1 children) {
    const rt::RegionAccessor<rt::PosRange, 1, kRecord> p(*level.pos,
                                                         rt::Access::Read);
    return rt::Rect1{owner_of(p, level.parent_positions, children.lo),
                     owner_of(p, level.parent_positions, children.hi)};
  };
  rows = owners(B.level(B.num_levels() - 1), pos);
  if (B.num_levels() == 2) return;
  fibers = rows;
  const fmt::LevelStorage& mid = B.level(1);
  rows = mid.kind.is_compressed()
             ? owners(mid, fibers)
             : rt::Rect1{fibers.lo / mid.extent, fibers.hi / mid.extent};
}

template Window::Window(const PieceBounds&, const fmt::TensorStorage&,
                        std::true_type);
template Window::Window(const PieceBounds&, const fmt::TensorStorage&,
                        std::false_type);

}  // namespace spdistal::kern
