// COO -> level storage packing in two linear passes over a const Coo&.
//
// 1. order_entries puts the entries in storage order (usually by finding
//    that they already are), and counts how many open a new coordinate
//    prefix at each level, which sizes every region exactly.
// 2. One assembly walk over the entries in that order. An entry takes a new
//    position at every level from the first one where its coordinate
//    differs from its predecessor's, and at every level from a non-unique
//    one down (the COO root and its Singleton chain hold one position per
//    entry): a Dense level computes it (parent position * extent +
//    coordinate), a Compressed level appends a crd and extends its
//    parent's pos segment, and a Singleton level stores a crd at its
//    parent's position. An entry equal to its predecessor adds its
//    value to the predecessor's slot, so duplicates sum left to right in
//    input order. The same walk sketches the sparsity fingerprint from the
//    runs of the top coordinate.
#include "format/storage.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "data/fingerprint.h"
#include "obs/obs.h"

namespace spdistal::fmt {

TensorStorage pack(const std::string& name, const Format& format,
                   const std::vector<Coord>& dims, const Coo& coo) {
  obs::Span pack_span("format", obs::TraceRecorder::global().active()
                                    ? "pack " + name
                                    : std::string());
  const double t0 = obs::enabled() ? obs::wall_us() : 0.0;
  const int levels = format.order();
  SPD_CHECK(static_cast<int>(dims.size()) == levels, NotationError,
            "pack: dims/format order mismatch for " << name);
  SPD_CHECK(coo.dims == dims, NotationError,
            "pack: COO dims disagree with tensor dims for " << name);
  for (int l = 0; l < levels; ++l) {
    const Coord extent = dims[static_cast<size_t>(format.dim_of_level(l))];
    SPD_CHECK(!format.mode(l).has_crd() || extent <= INT32_MAX, NotationError,
              "pack: level " << l + 1 << " of " << name << " has extent "
                  << extent << ", beyond its int32 crd");
  }

  EntryOrder order;
  {
    OBS_SPAN("format", "order");
    order = order_entries(coo, format.ordering());
  }
  for (int l = 0; l < levels && order.size > 0; ++l) {
    SPD_CHECK(order.lo[static_cast<size_t>(l)] >= 0 &&
                  order.hi[static_cast<size_t>(l)] <
                      dims[static_cast<size_t>(format.dim_of_level(l))],
              NotationError, "pack: coordinate out of bounds in " << name);
  }

  TensorStorage st;
  st.name_ = name;
  st.format_ = format;
  st.dims_ = dims;
  const int64_t entries = order.distinct(levels - 1);  // after combining
  st.nnz_ = entries;

  OBS_SPAN("format", "assemble");
  // Level shapes, from the ordering pass's counts. Raw pointers into the
  // (zero-initialized) regions are what the walk writes through.
  std::vector<rt::PosRange*> pos(static_cast<size_t>(levels), nullptr);
  std::vector<int32_t*> crd(static_cast<size_t>(levels), nullptr);
  int first_nonunique = levels;
  Coord parent_positions = 1;
  for (int l = 0; l < levels; ++l) {
    LevelStorage level;
    level.kind = format.mode(l);
    level.dim = format.dim_of_level(l);
    level.extent = dims[static_cast<size_t>(level.dim)];
    level.parent_positions = parent_positions;
    if (level.kind.is_dense()) {
      level.positions = parent_positions * level.extent;
    } else if (level.kind.is_singleton()) {
      // One coordinate per parent position. A Compressed non-unique or
      // Singleton parent has one entry per position; a Compressed unique
      // parent only when the data has at most one child per coordinate.
      SPD_CHECK(!format.mode(l - 1).is_compressed() ||
                    !format.mode(l - 1).unique() ||
                    order.distinct(l - 1) == entries,
                NotationError,
                "pack: Singleton level "
                    << l + 1 << " of " << name
                    << " requires exactly one entry per parent position; "
                       "use a Compressed parent that enumerates entries "
                       "(e.g. a COO root)");
      level.positions = parent_positions;
    } else if (!level.kind.unique()) {
      // The COO root: one position per stored entry.
      first_nonunique = std::min(first_nonunique, l);
      level.positions = entries;
    } else {
      level.positions = order.distinct(l);
    }
    if (level.kind.has_pos()) {
      level.pos = rt::make_region<rt::PosRange>(
          rt::IndexSpace(parent_positions),
          name + ".pos" + std::to_string(l + 1));
      pos[static_cast<size_t>(l)] = level.pos->data().data();
    }
    if (level.kind.has_crd()) {
      level.crd = rt::make_region<int32_t>(
          rt::IndexSpace(std::max<Coord>(level.positions, 1)),
          name + ".crd" + std::to_string(l + 1));
      crd[static_cast<size_t>(l)] = level.crd->data().data();
    }
    parent_positions = level.positions;
    st.levels_.push_back(std::move(level));
  }

  // vals: one entry per last-level position. All-dense tensors get an N-D
  // vals region (row-major, matching dense position numbering) so that
  // partitions along any dimension are cheap rectangles; mixed formats end
  // in a 1-D position space aligned with the last level's crd.
  if (format.all_dense()) {
    rt::RectN bounds;
    bounds.dim = levels;
    for (int l = 0; l < levels; ++l) {
      bounds.lo[static_cast<size_t>(l)] = 0;
      bounds.hi[static_cast<size_t>(l)] =
          st.levels_[static_cast<size_t>(l)].extent - 1;
    }
    st.vals_ =
        rt::make_region<double>(rt::IndexSpace(bounds), name + ".vals");
  } else {
    st.vals_ = rt::make_region<double>(
        rt::IndexSpace(std::max<Coord>(parent_positions, 1)), name + ".vals");
  }
  double* vals = st.vals_->data().data();

  // The fingerprint counts, per top coordinate, the values for_each visits:
  // `leaves` per position of the deepest non-Dense level (the product of
  // the Dense extents below it).
  data::SparsityFingerprint fp = data::dense_fingerprint(dims);
  fp.has_pattern = !format.all_dense();
  fp.nnz = fp.has_pattern ? entries : 0;
  int deepest = -1;
  Coord leaves = 1;
  for (int l = 0; l < levels; ++l) {
    if (!format.mode(l).is_dense()) {
      deepest = l;
      leaves = 1;
    } else {
      leaves *= st.levels_[static_cast<size_t>(l)].extent;
    }
  }
  const size_t top_dim = static_cast<size_t>(format.dim_of_level(0));
  const Coord top_extent = std::max<Coord>(dims[top_dim], 1);
  Coord top = 0;
  int64_t degree = 0;
  auto end_run = [&] {
    const Coord b = top * data::SparsityFingerprint::kHistBuckets / top_extent;
    fp.hist[static_cast<size_t>(
        std::min<Coord>(b, data::SparsityFingerprint::kHistBuckets - 1))] +=
        degree;
    const int g = std::bit_width(static_cast<uint64_t>(degree)) - 1;
    fp.degree[static_cast<size_t>(
        std::min(g, data::SparsityFingerprint::kDegreeBuckets - 1))]++;
    degree = 0;
  };

  // The walk. at[l] is the current entry's position at level l; written[l]
  // counts a Compressed level's crds, opened[l] the parents whose pos
  // segment has begun.
  std::array<Coord, rt::kMaxDim> at{}, written{}, opened{};
  for (size_t k = 0; k < order.size; ++k) {
    const size_t e = order[k];
    const auto& c = coo.coords[e];
    const int split = order.split(coo, k);
    if (split == levels) {  // a duplicate: sum into its predecessor's slot
      vals[at[static_cast<size_t>(levels - 1)]] += coo.vals[e];
      continue;
    }
    if (fp.has_pattern && split == 0 && k > 0) end_run();
    for (int l = std::min(split, first_nonunique); l < levels; ++l) {
      const LevelStorage& level = st.levels_[static_cast<size_t>(l)];
      const size_t li = static_cast<size_t>(l);
      const Coord parent = l == 0 ? 0 : at[li - 1];
      const Coord x = c[static_cast<size_t>(level.dim)];
      if (level.kind.is_dense()) {
        at[li] = parent * level.extent + x;
      } else if (level.kind.is_singleton()) {
        crd[li][parent] = static_cast<int32_t>(x);
        at[li] = parent;
      } else {
        const Coord q = written[li]++;
        crd[li][q] = static_cast<int32_t>(x);
        while (opened[li] <= parent) {
          pos[li][opened[li]++] = rt::PosRange{q, q - 1};
        }
        pos[li][parent].hi = q;
        at[li] = q;
      }
      if (l == deepest) degree += leaves;
    }
    vals[at[static_cast<size_t>(levels - 1)]] = coo.vals[e];
    top = c[top_dim];
  }
  if (fp.has_pattern && entries > 0) end_run();
  // Parents after the last entry get empty segments.
  for (int l = 0; l < levels; ++l) {
    const size_t li = static_cast<size_t>(l);
    const LevelStorage& level = st.levels_[li];
    if (!level.kind.has_pos()) continue;
    while (opened[li] < level.parent_positions) {
      pos[li][opened[li]++] = rt::PosRange{written[li], written[li] - 1};
    }
  }
  st.fingerprint_ =
      std::make_shared<const data::SparsityFingerprint>(std::move(fp));

  if (obs::enabled()) {
    static obs::Counter& tensors = obs::Metrics::global().counter("pack.tensors");
    static obs::Counter& nnz = obs::Metrics::global().counter("pack.nnz");
    static obs::Histogram& us = obs::Metrics::global().histogram("pack.us");
    tensors.add(1);
    nnz.add(st.nnz_);
    us.record(static_cast<int64_t>(obs::wall_us() - t0));
  }
  return st;
}

}  // namespace spdistal::fmt
