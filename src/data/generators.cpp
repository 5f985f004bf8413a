#include "data/generators.h"

#include <algorithm>

#include "common/rng.h"

namespace spdistal::data {

namespace {
double value(Rng& rng) { return rng.next_double(0.1, 1.0); }
}  // namespace

fmt::Coo banded_matrix(Coord n, int band, uint64_t seed) {
  Rng rng(seed);
  fmt::Coo coo;
  coo.dims = {n, n};
  for (Coord i = 0; i < n; ++i) {
    const Coord lo = std::max<Coord>(0, i - band / 2);
    const Coord hi = std::min<Coord>(n - 1, lo + band - 1);
    for (Coord j = lo; j <= hi; ++j) {
      coo.push({i, j}, value(rng));
    }
  }
  return coo;
}

fmt::Coo uniform_matrix(Coord n, Coord m, int64_t nnz, uint64_t seed) {
  Rng rng(seed);
  fmt::Coo coo;
  coo.dims = {n, m};
  for (int64_t e = 0; e < nnz; ++e) {
    coo.push({rng.next_range(0, n - 1), rng.next_range(0, m - 1)},
             value(rng));
  }
  coo.sort_and_combine({0, 1});
  return coo;
}

fmt::Coo powerlaw_matrix(Coord n, Coord m, int64_t nnz, double skew,
                         uint64_t seed) {
  Rng rng(seed);
  fmt::Coo coo;
  coo.dims = {n, m};
  for (int64_t e = 0; e < nnz; ++e) {
    // Zipf row and column degrees; both permuted by multiplicative hashes
    // so hubs scatter across the index space as in real crawled graphs
    // (rather than clustering at low indices).
    Coord i = static_cast<Coord>(
        rng.next_zipf(static_cast<uint64_t>(n), skew));
    i = static_cast<Coord>(
        (static_cast<uint64_t>(i) * 0xD1B54A32D192ED03ull) %
        static_cast<uint64_t>(n));
    Coord j = static_cast<Coord>(rng.next_zipf(static_cast<uint64_t>(m), skew));
    j = static_cast<Coord>(
        (static_cast<uint64_t>(j) * 0x9E3779B97F4A7C15ull) %
        static_cast<uint64_t>(m));
    coo.push({i, j}, value(rng));
  }
  coo.sort_and_combine({0, 1});
  return coo;
}

fmt::Coo regular_matrix(Coord n, int max_degree, uint64_t seed) {
  Rng rng(seed);
  fmt::Coo coo;
  coo.dims = {n, n};
  for (Coord i = 0; i < n; ++i) {
    const int deg = 1 + static_cast<int>(rng.next_below(
                            static_cast<uint64_t>(max_degree)));
    for (int d = 0; d < deg; ++d) {
      coo.push({i, rng.next_range(0, n - 1)}, value(rng));
    }
  }
  coo.sort_and_combine({0, 1});
  return coo;
}

fmt::Coo uniform_3tensor(Coord d0, Coord d1, Coord d2, int64_t nnz,
                         uint64_t seed) {
  Rng rng(seed);
  fmt::Coo coo;
  coo.dims = {d0, d1, d2};
  for (int64_t e = 0; e < nnz; ++e) {
    coo.push({rng.next_range(0, d0 - 1), rng.next_range(0, d1 - 1),
              rng.next_range(0, d2 - 1)},
             value(rng));
  }
  coo.sort_and_combine({0, 1, 2});
  return coo;
}

fmt::Coo powerlaw_3tensor(Coord d0, Coord d1, Coord d2, int64_t nnz,
                          double skew, uint64_t seed) {
  Rng rng(seed);
  fmt::Coo coo;
  coo.dims = {d0, d1, d2};
  for (int64_t e = 0; e < nnz; ++e) {
    // Zipf-skewed slices/tubes, hash-permuted so hubs scatter (see
    // powerlaw_matrix).
    Coord i = static_cast<Coord>(rng.next_zipf(static_cast<uint64_t>(d0), skew));
    i = static_cast<Coord>((static_cast<uint64_t>(i) * 0xD1B54A32D192ED03ull) %
                           static_cast<uint64_t>(d0));
    Coord k = static_cast<Coord>(
        rng.next_zipf(static_cast<uint64_t>(d2), skew * 0.5));
    k = static_cast<Coord>((static_cast<uint64_t>(k) * 0x9E3779B97F4A7C15ull) %
                           static_cast<uint64_t>(d2));
    coo.push({i, rng.next_range(0, d1 - 1), k}, value(rng));
  }
  coo.sort_and_combine({0, 1, 2});
  return coo;
}

fmt::Coo patents_like_3tensor(Coord d0, Coord d1, Coord d2, double fill,
                              uint64_t seed) {
  Rng rng(seed);
  fmt::Coo coo;
  coo.dims = {d0, d1, d2};
  for (Coord i = 0; i < d0; ++i) {
    for (Coord j = 0; j < d1; ++j) {
      // Dense leading modes: every (i, j) slice pair holds a fiber whose
      // fill fraction varies.
      const int k_count = std::max<int>(
          1, static_cast<int>(fill * static_cast<double>(d2) *
                              rng.next_double(0.5, 1.5)));
      for (int e = 0; e < k_count; ++e) {
        coo.push({i, j, rng.next_range(0, d2 - 1)}, value(rng));
      }
    }
  }
  coo.sort_and_combine({0, 1, 2});
  return coo;
}

fmt::Coo shift_last_dim(const fmt::Coo& coo, Coord shift) {
  fmt::Coo out = coo;
  const size_t last = coo.dims.size() - 1;
  const Coord extent = coo.dims[last];
  for (auto& c : out.coords) {
    c[last] = (c[last] + shift) % extent;
  }
  out.sort_and_combine([&] {
    std::vector<int> order(coo.dims.size());
    for (size_t d = 0; d < order.size(); ++d) order[d] = static_cast<int>(d);
    return order;
  }());
  return out;
}

fmt::Coo sample_coo(const fmt::Coo& coo, int64_t target_nnz, uint64_t seed) {
  const int64_t n = coo.nnz();
  if (target_nnz <= 0 || n <= target_nnz) return coo;
  fmt::Coo out;
  out.dims = coo.dims;
  // Evenly strided picks keep row-degree proportions and band structure; the
  // seed only rotates the phase so distinct proxies of one tensor differ.
  const int64_t phase = static_cast<int64_t>(seed % static_cast<uint64_t>(n));
  for (int64_t k = 0; k < target_nnz; ++k) {
    const int64_t idx = (k * n / target_nnz + phase) % n;
    out.push(coo.coords[static_cast<size_t>(idx)],
             coo.vals[static_cast<size_t>(idx)]);
  }
  out.sort_and_combine([&] {
    std::vector<int> order(coo.dims.size());
    for (size_t d = 0; d < order.size(); ++d) order[d] = static_cast<int>(d);
    return order;
  }());
  return out;
}

}  // namespace spdistal::data
