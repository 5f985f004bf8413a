#include "format/storage.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <utility>

#include "common/str_util.h"

namespace spdistal::fmt {

void Coo::push(std::initializer_list<Coord> coord, double v) {
  std::array<Coord, rt::kMaxDim> c{};
  SPD_ASSERT(coord.size() == dims.size(), "Coo::push: wrong arity");
  std::copy(coord.begin(), coord.end(), c.begin());
  coords.push_back(c);
  vals.push_back(v);
}

void Coo::push(const std::array<Coord, rt::kMaxDim>& coord, double v) {
  coords.push_back(coord);
  vals.push_back(v);
}

namespace {

constexpr int kDigitBits = 11;
constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;

// One level's coordinate inside a 64-bit sort key: (c - lo) << shift.
struct KeyField {
  int dim = 0;
  Coord lo = 0;
  int shift = 0;
};

// Stable LSD radix sort of the parallel arrays (key, perm) by the low
// `bits` bits of key, one 11-bit digit per pass. A digit every entry shares
// would not move anything, so its pass is skipped.
void radix_sort(std::vector<uint64_t>& key, std::vector<uint32_t>& perm,
                int bits) {
  const size_t n = key.size();
  const int digits = (bits + kDigitBits - 1) / kDigitBits;
  const size_t buckets = size_t{1} << kDigitBits;
  std::vector<uint32_t> count(static_cast<size_t>(digits) * buckets, 0);
  for (const uint64_t k : key) {
    for (int d = 0; d < digits; ++d) {
      ++count[static_cast<size_t>(d) * buckets +
              ((k >> (d * kDigitBits)) & kDigitMask)];
    }
  }
  std::vector<uint64_t> key2(n);
  std::vector<uint32_t> perm2(n);
  for (int d = 0; d < digits; ++d) {
    uint32_t* at = count.data() + static_cast<size_t>(d) * buckets;
    if (std::find(at, at + buckets, static_cast<uint32_t>(n)) !=
        at + buckets) {
      continue;
    }
    uint32_t sum = 0;
    for (size_t b = 0; b < buckets; ++b) sum += std::exchange(at[b], sum);
    const int shift = d * kDigitBits;
    for (size_t k = 0; k < n; ++k) {
      const uint32_t dst = at[(key[k] >> shift) & kDigitMask]++;
      key2[dst] = key[k];
      perm2[dst] = perm[k];
    }
    key.swap(key2);
    perm.swap(perm2);
  }
}

}  // namespace

EntryOrder order_entries(const Coo& coo, const std::vector<int>& dim_order) {
  SPD_ASSERT(dim_order.size() == coo.dims.size(), "bad dim order");
  const size_t n = coo.coords.size();
  SPD_CHECK(n <= UINT32_MAX, NotationError,
            "coordinate list of " << n << " entries exceeds 2^32 - 1");
  EntryOrder order;
  order.levels = static_cast<int>(dim_order.size());
  std::copy(dim_order.begin(), dim_order.end(), order.dims.begin());
  order.size = n;
  const int levels = order.levels;
  auto coord = [&](size_t e, int l) {
    const int d = order.dims[static_cast<size_t>(l)];
    return coo.coords[e][static_cast<size_t>(d)];
  };
  for (int l = 0; l < levels; ++l) {
    order.lo[static_cast<size_t>(l)] = n > 0 ? coord(0, l) : 0;
    order.hi[static_cast<size_t>(l)] = n > 0 ? coord(0, l) : -1;
  }

  // The scan: bounds per level, breaks in input order, and whether any
  // entry sorts before its predecessor.
  bool ordered = true;
  for (size_t k = 1; k < n; ++k) {
    const int l = order.split(coo, k);
    ++order.breaks[static_cast<size_t>(l)];
    if (l < levels && coord(k, l) < coord(k - 1, l)) ordered = false;
    for (int m = 0; m < levels; ++m) {
      const Coord c = coord(k, m);
      Coord& lo = order.lo[static_cast<size_t>(m)];
      Coord& hi = order.hi[static_cast<size_t>(m)];
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
  }
  if (ordered) return order;

  // Pack the levels' offset coordinates into 64-bit key words, least
  // significant level first, and sort by each word in turn (LSD over the
  // words as over the digits within one).
  std::vector<std::vector<KeyField>> words;
  std::vector<int> word_bits;
  for (int l = levels - 1; l >= 0; --l) {
    const int bits = std::bit_width(static_cast<uint64_t>(
        order.hi[static_cast<size_t>(l)] - order.lo[static_cast<size_t>(l)]));
    if (bits == 0) continue;
    if (words.empty() || word_bits.back() + bits > 64) {
      words.emplace_back();
      word_bits.push_back(0);
    }
    words.back().push_back(KeyField{dim_order[static_cast<size_t>(l)],
                                    order.lo[static_cast<size_t>(l)],
                                    word_bits.back()});
    word_bits.back() += bits;
  }
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::vector<uint64_t> key(n);
  for (size_t w = 0; w < words.size(); ++w) {
    for (size_t k = 0; k < n; ++k) {
      const auto& c = coo.coords[perm[k]];
      uint64_t v = 0;
      for (const KeyField& f : words[w]) {
        v |= static_cast<uint64_t>(c[static_cast<size_t>(f.dim)] - f.lo)
             << f.shift;
      }
      key[k] = v;
    }
    radix_sort(key, perm, word_bits[w]);
  }
  order.perm = std::move(perm);
  order.breaks = {};
  for (size_t k = 1; k < n; ++k) {
    ++order.breaks[static_cast<size_t>(order.split(coo, k))];
  }
  return order;
}

void Coo::sort_and_combine(const std::vector<int>& dim_order) {
  const EntryOrder sorted = order_entries(*this, dim_order);
  const int levels = static_cast<int>(dim_order.size());
  const int64_t dups = sorted.breaks[static_cast<size_t>(levels)];
  if (sorted.perm.empty() && dups == 0) return;
  std::vector<std::array<Coord, rt::kMaxDim>> new_coords;
  std::vector<double> new_vals;
  new_coords.reserve(coords.size() - static_cast<size_t>(dups));
  new_vals.reserve(coords.size() - static_cast<size_t>(dups));
  for (size_t k = 0; k < coords.size(); ++k) {
    const size_t e = sorted[k];
    if (k > 0 && sorted.split(*this, k) == levels) {
      new_vals.back() += vals[e];
    } else {
      new_coords.push_back(coords[e]);
      new_vals.push_back(vals[e]);
    }
  }
  coords = std::move(new_coords);
  vals = std::move(new_vals);
}

int64_t TensorStorage::bytes() const {
  int64_t b = vals_ ? vals_->size_bytes() : 0;
  for (const auto& l : levels_) {
    if (l.pos) b += l.pos->size_bytes();
    if (l.crd) b += l.crd->size_bytes();
  }
  return b;
}

namespace {

void walk(const TensorStorage& st, int l, Coord parent_pos,
          std::array<Coord, rt::kMaxDim>& coords,
          const std::function<void(const std::array<Coord, rt::kMaxDim>&,
                                   double)>& fn) {
  if (l == st.order()) {
    fn(coords, st.vals()->at_linear(parent_pos));
    return;
  }
  const LevelStorage& level = st.level(l);
  if (level.kind.is_dense()) {
    for (Coord c = 0; c < level.extent; ++c) {
      coords[static_cast<size_t>(level.dim)] = c;
      walk(st, l + 1, parent_pos * level.extent + c, coords, fn);
    }
  } else if (level.kind.is_singleton()) {
    // One coordinate per position; the position is the parent's.
    coords[static_cast<size_t>(level.dim)] = (*level.crd)[parent_pos];
    walk(st, l + 1, parent_pos, coords, fn);
  } else {
    // Compressed: pos segment over this level's crd entries.
    const rt::PosRange pr = (*level.pos)[parent_pos];
    for (Coord q = pr.lo; q <= pr.hi; ++q) {
      coords[static_cast<size_t>(level.dim)] = (*level.crd)[q];
      walk(st, l + 1, q, coords, fn);
    }
  }
}

}  // namespace

void TensorStorage::for_each(
    const std::function<void(const std::array<Coord, rt::kMaxDim>&, double)>&
        fn) const {
  if (!vals_) return;
  std::array<Coord, rt::kMaxDim> coords{};
  walk(*this, 0, 0, coords, fn);
}

Coo TensorStorage::to_coo() const {
  Coo coo;
  coo.dims = dims_;
  for_each([&](const std::array<Coord, rt::kMaxDim>& c, double v) {
    if (v != 0.0) coo.push(c, v);
  });
  return coo;
}

std::string TensorStorage::str() const {
  return strprintf("%s %s dims=[%s] nnz=%lld", name_.c_str(),
                   format_.str().c_str(),
                   join(dims_, "x").c_str(), static_cast<long long>(nnz_));
}

bool storage_equals(const TensorStorage& a, const TensorStorage& b,
                    double tol) {
  if (a.dims() != b.dims()) return false;
  Coo ca = a.to_coo();
  Coo cb = b.to_coo();
  std::vector<int> identity(ca.dims.size());
  std::iota(identity.begin(), identity.end(), 0);
  ca.sort_and_combine(identity);
  cb.sort_and_combine(identity);
  if (ca.nnz() != cb.nnz()) return false;
  for (int64_t i = 0; i < ca.nnz(); ++i) {
    if (ca.coords[static_cast<size_t>(i)] != cb.coords[static_cast<size_t>(i)])
      return false;
    const double va = ca.vals[static_cast<size_t>(i)];
    const double vb = cb.vals[static_cast<size_t>(i)];
    const double err = std::abs(va - vb);
    const double rel = err / std::max(1.0, std::max(std::abs(va), std::abs(vb)));
    if (rel > tol && err > tol) return false;
  }
  return true;
}

}  // namespace spdistal::fmt
