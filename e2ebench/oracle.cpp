#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace spdbench::oracle {

namespace {

using base::KernelKind;
using Coords = std::array<Coord, rt::kMaxDim>;

int64_t linear(const Coords& c, const std::vector<Coord>& dims) {
  int64_t k = 0;
  for (size_t d = 0; d < dims.size(); ++d) k = k * dims[d] + c[d];
  return k;
}

// Sorts by coordinate and sums duplicate coordinates, in place.
void sort_and_combine(Entries& e) {
  std::sort(e.begin(), e.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  size_t n = 0;
  for (size_t k = 0; k < e.size(); ++k) {
    if (n > 0 && e[n - 1].first == e[k].first) {
      e[n - 1].second += e[k].second;
    } else {
      e[n++] = e[k];
    }
  }
  e.resize(n);
}

Entries stored_entries(const Tensor& t) {
  Entries out;
  t.storage().for_each([&](const Coords& c, double v) {
    out.emplace_back(linear(c, t.dims()), v);
  });
  sort_and_combine(out);
  return out;
}

}  // namespace

Reference::Dense Reference::dense_values(const Tensor& t) {
  Dense d;
  int64_t volume = 1;
  for (Coord n : t.dims()) volume *= n;
  d.v.assign(static_cast<size_t>(volume), 0.0);
  if (t.dims().size() == 2) d.cols = t.dims()[1];
  t.storage().for_each([&](const Coords& c, double v) {
    d.v[static_cast<size_t>(linear(c, t.dims()))] = v;
  });
  return d;
}

Reference::Reference(KernelKind kind, const fmt::Coo& coo,
                     const Statement& stmt)
    : kind_(kind), coo_(coo) {
  switch (kind) {
    case KernelKind::SpMV:
    case KernelKind::SpTTV:
      x_ = dense_values(stmt.tensor("c"));
      break;
    case KernelKind::SpMM:
      x_ = dense_values(stmt.tensor("C"));
      break;
    case KernelKind::SDDMM:
    case KernelKind::SpMTTKRP:
      x_ = dense_values(stmt.tensor("C"));
      y_ = dense_values(stmt.tensor("D"));
      break;
    case KernelKind::SpAdd3:
      // The addends as build_kernel derives them from one matrix.
      shifted_ = {data::shift_last_dim(coo, 1 % coo.dims[1]),
                  data::shift_last_dim(coo, 2 % coo.dims[1])};
      break;
    case KernelKind::Other:
      SPD_ASSERT(false, "oracle: unsupported kernel");
  }
}

void Reference::run() {
  const fmt::Coo& coo = coo_;
  const std::vector<Coord>& dims = coo.dims;
  const auto nnz = static_cast<size_t>(coo.nnz());
  switch (kind_) {
    case KernelKind::SpMV: {
      dense_out_.assign(static_cast<size_t>(dims[0]), 0.0);
      for (size_t n = 0; n < nnz; ++n) {
        const Coords& x = coo.coords[n];
        dense_out_[static_cast<size_t>(x[0])] +=
            coo.vals[n] * x_.v[static_cast<size_t>(x[1])];
      }
      return;
    }
    case KernelKind::SpMM: {
      const Coord J = x_.cols;
      dense_out_.assign(static_cast<size_t>(dims[0] * J), 0.0);
      for (size_t n = 0; n < nnz; ++n) {
        const Coords& x = coo.coords[n];
        for (Coord j = 0; j < J; ++j) {
          dense_out_[static_cast<size_t>(x[0] * J + j)] +=
              coo.vals[n] * x_.at(x[1], j);
        }
      }
      return;
    }
    case KernelKind::SpAdd3: {
      sparse_out_.clear();
      const fmt::Coo* const terms[] = {&coo, &shifted_[0], &shifted_[1]};
      for (const fmt::Coo* term : terms) {
        for (size_t n = 0; n < static_cast<size_t>(term->nnz()); ++n) {
          sparse_out_.emplace_back(linear(term->coords[n], dims),
                                   term->vals[n]);
        }
      }
      sort_and_combine(sparse_out_);
      return;
    }
    case KernelKind::SDDMM: {
      sparse_out_.clear();
      for (size_t n = 0; n < nnz; ++n) {
        const Coords& x = coo.coords[n];
        double dot = 0;
        for (Coord k = 0; k < x_.cols; ++k) {
          dot += x_.at(x[0], k) * y_.at(k, x[1]);
        }
        sparse_out_.emplace_back(linear(x, dims), coo.vals[n] * dot);
      }
      sort_and_combine(sparse_out_);
      return;
    }
    case KernelKind::SpTTV: {
      const std::vector<Coord> out_dims{dims[0], dims[1]};
      sparse_out_.clear();
      for (size_t n = 0; n < nnz; ++n) {
        const Coords& x = coo.coords[n];
        sparse_out_.emplace_back(linear(x, out_dims),
                                 coo.vals[n] * x_.v[static_cast<size_t>(x[2])]);
      }
      sort_and_combine(sparse_out_);
      return;
    }
    case KernelKind::SpMTTKRP: {
      const Coord L = x_.cols;
      dense_out_.assign(static_cast<size_t>(dims[0] * L), 0.0);
      for (size_t n = 0; n < nnz; ++n) {
        const Coords& x = coo.coords[n];
        for (Coord l = 0; l < L; ++l) {
          dense_out_[static_cast<size_t>(x[0] * L + l)] +=
              coo.vals[n] * x_.at(x[1], l) * y_.at(x[2], l);
        }
      }
      return;
    }
    case KernelKind::Other:
      return;
  }
}

Entries Reference::result() const {
  if (dense_out_.empty()) return sparse_out_;
  Entries out(dense_out_.size());
  for (size_t k = 0; k < out.size(); ++k) {
    out[k] = {static_cast<int64_t>(k), dense_out_[k]};
  }
  return out;
}

Check check(const Entries& want, const Tensor& out) {
  const Entries got = stored_entries(out);
  Check c;
  // Merge the two sorted lists; a coordinate missing on one side reads 0
  // (sparse outputs may or may not store explicit zeros).
  size_t a = 0, b = 0;
  while (a < got.size() || b < want.size()) {
    int64_t key = 0;
    double g = 0, w = 0;
    if (b == want.size() ||
        (a < got.size() && got[a].first < want[b].first)) {
      key = got[a].first;
      g = got[a++].second;
    } else if (a == got.size() || want[b].first < got[a].first) {
      key = want[b].first;
      w = want[b++].second;
    } else {
      key = got[a].first;
      g = got[a++].second;
      w = want[b++].second;
    }
    ++c.compared;
    const double rel = std::abs(g - w) / std::max(1.0, std::abs(w));
    c.max_rel_err = std::max(c.max_rel_err, rel);
    if (!(rel <= kRelTol)) {
      if (c.mismatches++ == 0) {
        c.first_mismatch = strprintf("coordinate %lld: got %.17g, want %.17g",
                                     static_cast<long long>(key), g, w);
      }
    }
  }
  return c;
}

uint64_t checksum(const Tensor& out) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  out.storage().for_each([&](const Coords& c, double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(static_cast<uint64_t>(linear(c, out.dims())));
    mix(bits);
  });
  return h;
}

}  // namespace spdbench::oracle
