// Differential tests for fmt::pack against the comparison-sort algorithm it
// replaced, kept here as the oracle: a std::stable_sort of an index
// permutation, a combine pass over the sorted copy, a level build that splits
// [begin, end) groups of the sorted list level by level, and a fingerprint
// that walks the packed storage into an unordered_map of row degrees. Two-
// phase assembly is checked against its std::set<CoordKey> original the same
// way. Everything must match bit for bit: pos, crd, vals, fingerprint
// strings, assembled patterns and symbolic work.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/fingerprint.h"
#include "data/generators.h"
#include "format/storage.h"
#include "kernels/assembly.h"
#include "kernels/work.h"
#include "tensor/tensor.h"

namespace spdistal {
namespace {

using fmt::Coo;
using fmt::Format;
using fmt::ModeFormat;
using fmt::TensorStorage;
using rt::Coord;
using rt::PosRange;
using CoordKey = std::array<Coord, rt::kMaxDim>;

// --- the oracle -------------------------------------------------------------

void ref_sort_and_combine(Coo& coo, const std::vector<int>& dim_order) {
  std::vector<size_t> perm(coo.coords.size());
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
    for (int d : dim_order) {
      const Coord ca = coo.coords[a][static_cast<size_t>(d)];
      const Coord cb = coo.coords[b][static_cast<size_t>(d)];
      if (ca != cb) return ca < cb;
    }
    return false;
  });
  std::vector<CoordKey> coords;
  std::vector<double> vals;
  for (size_t idx : perm) {
    if (!coords.empty() && coords.back() == coo.coords[idx]) {
      vals.back() += coo.vals[idx];
    } else {
      coords.push_back(coo.coords[idx]);
      vals.push_back(coo.vals[idx]);
    }
  }
  coo.coords = std::move(coords);
  coo.vals = std::move(vals);
}

struct RefLevel {
  Coord positions = 0;
  Coord parent_positions = 1;
  std::vector<std::pair<Coord, Coord>> pos;  // (lo, hi)
  std::vector<int32_t> crd;
};

struct RefStorage {
  int64_t nnz = 0;
  std::vector<RefLevel> levels;
  std::vector<double> vals;
};

RefStorage ref_pack(const Format& format, const std::vector<Coord>& dims,
                    Coo coo) {
  ref_sort_and_combine(coo, format.ordering());
  RefStorage st;
  st.nnz = coo.nnz();
  struct Range {
    int64_t begin = 0;
    int64_t end = 0;
  };
  auto at = [&](int64_t e, int dim) {
    return coo.coords[static_cast<size_t>(e)][static_cast<size_t>(dim)];
  };
  std::vector<Range> groups{Range{0, coo.nnz()}};
  for (int l = 0; l < format.order(); ++l) {
    const int dim = format.dim_of_level(l);
    const Coord extent = dims[static_cast<size_t>(dim)];
    const ModeFormat kind = format.mode(l);
    RefLevel level;
    level.parent_positions = static_cast<Coord>(groups.size());
    std::vector<Range> next;
    if (kind.is_dense()) {
      for (const Range& g : groups) {
        int64_t e = g.begin;
        for (Coord c = 0; c < extent; ++c) {
          const int64_t start = e;
          while (e < g.end && at(e, dim) == c) ++e;
          next.push_back(Range{start, e});
        }
      }
      level.positions = level.parent_positions * extent;
    } else if (kind.is_singleton()) {
      for (const Range& g : groups) {
        EXPECT_EQ(g.end - g.begin, 1);
        level.crd.push_back(static_cast<int32_t>(at(g.begin, dim)));
      }
      level.positions = level.parent_positions;
      next = groups;
    } else {
      for (const Range& g : groups) {
        const Coord seg_begin = static_cast<Coord>(level.crd.size());
        int64_t e = g.begin;
        while (e < g.end) {
          const Coord v = at(e, dim);
          const int64_t start = e;
          ++e;
          while (kind.unique() && e < g.end && at(e, dim) == v) ++e;
          level.crd.push_back(static_cast<int32_t>(v));
          next.push_back(Range{start, e});
        }
        level.pos.emplace_back(seg_begin,
                               static_cast<Coord>(level.crd.size()) - 1);
      }
      level.positions = static_cast<Coord>(level.crd.size());
    }
    if (kind.has_crd() && level.crd.empty()) level.crd.push_back(0);
    groups = std::move(next);
    st.levels.push_back(std::move(level));
  }
  st.vals.assign(std::max<size_t>(groups.size(), format.all_dense() ? 0 : 1),
                 0.0);
  for (size_t p = 0; p < groups.size(); ++p) {
    if (groups[p].end > groups[p].begin) {
      st.vals[p] = coo.vals[static_cast<size_t>(groups[p].begin)];
    }
  }
  return st;
}

std::string ref_fingerprint(const TensorStorage& st) {
  data::SparsityFingerprint fp = data::dense_fingerprint(st.dims());
  if (st.format().all_dense()) return fp.str();
  fp.has_pattern = true;
  fp.nnz = st.nnz();
  const int top_dim = st.format().dim_of_level(0);
  const Coord extent =
      std::max<Coord>(st.dims()[static_cast<size_t>(top_dim)], 1);
  std::unordered_map<Coord, int64_t> row_degree;
  st.for_each([&](const CoordKey& c, double) {
    const Coord top = c[static_cast<size_t>(top_dim)];
    constexpr int kBuckets = data::SparsityFingerprint::kHistBuckets;
    const size_t b = static_cast<size_t>(top * kBuckets / extent);
    fp.hist[std::min<size_t>(b, kBuckets - 1)]++;
    row_degree[top]++;
  });
  for (const auto& [row, deg] : row_degree) {
    (void)row;
    int b = 0;
    while ((int64_t{1} << (b + 1)) <= deg &&
           b + 1 < data::SparsityFingerprint::kDegreeBuckets) {
      ++b;
    }
    fp.degree[static_cast<size_t>(b)]++;
  }
  return fp.str();
}

// --- comparisons -------------------------------------------------------------

std::vector<uint64_t> bits(const std::vector<double>& xs) {
  std::vector<uint64_t> out;
  for (double x : xs) out.push_back(std::bit_cast<uint64_t>(x));
  return out;
}

void expect_matches(const TensorStorage& st, const RefStorage& ref,
                    const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(st.nnz(), ref.nnz);
  ASSERT_EQ(static_cast<size_t>(st.num_levels()), ref.levels.size());
  for (int l = 0; l < st.num_levels(); ++l) {
    const fmt::LevelStorage& level = st.level(l);
    const RefLevel& r = ref.levels[static_cast<size_t>(l)];
    EXPECT_EQ(level.positions, r.positions) << "level " << l;
    EXPECT_EQ(level.parent_positions, r.parent_positions) << "level " << l;
    if (level.pos) {
      std::vector<std::pair<Coord, Coord>> pos;
      for (const PosRange& p : level.pos->data()) pos.emplace_back(p.lo, p.hi);
      EXPECT_EQ(pos, r.pos) << "level " << l;
    } else {
      EXPECT_TRUE(r.pos.empty()) << "level " << l;
    }
    if (level.crd) {
      EXPECT_EQ(level.crd->data(), r.crd) << "level " << l;
    } else {
      EXPECT_TRUE(r.crd.empty()) << "level " << l;
    }
  }
  EXPECT_EQ(bits(st.vals()->data()), bits(ref.vals));
  EXPECT_EQ(st.vals()->space().dim(),
            st.format().all_dense() ? st.format().order() : 1);
  ASSERT_TRUE(st.fingerprint());
  EXPECT_EQ(st.fingerprint()->str(), ref_fingerprint(st));
}

void expect_pack_matches(const Format& format, const Coo& coo,
                         const std::string& what) {
  const TensorStorage st = fmt::pack("T", format, coo.dims, coo);
  expect_matches(st, ref_pack(format, coo.dims, coo),
                 what + " " + format.str());
}

// --- inputs ------------------------------------------------------------------

// Random entries over small extents, so coordinates repeat; values mix
// 1e16, 1 and -1e16, whose sums depend on the order they are added in.
Coo random_coo(Rng& rng, std::vector<Coord> dims, int64_t n) {
  Coo coo;
  coo.dims = std::move(dims);
  const double pool[] = {1e16, 1.0, -1e16, 0.5, -0.0, 3.25};
  for (int64_t e = 0; e < n; ++e) {
    CoordKey c{};
    for (size_t d = 0; d < coo.dims.size(); ++d) {
      c[d] = rng.next_range(0, coo.dims[d] - 1);
    }
    coo.push(c, pool[rng.next_below(6)]);
  }
  return coo;
}

// The entries rotated left by `phase`: two sorted runs when `coo` is sorted,
// the shape sample_coo's phase wrap feeds sort_and_combine.
Coo rotated(const Coo& coo, size_t phase) {
  Coo out;
  out.dims = coo.dims;
  for (size_t k = 0; k < coo.coords.size(); ++k) {
    const size_t e = (k + phase) % coo.coords.size();
    out.push(coo.coords[e], coo.vals[e]);
  }
  return out;
}

std::vector<Format> matrix_formats() {
  return {fmt::csr(),
          fmt::csc(),
          fmt::dcsr(),
          fmt::coo(2),
          fmt::dense_matrix(),
          Format({ModeFormat::Compressed(), ModeFormat::Dense()}),
          Format({ModeFormat::Compressed(false), ModeFormat::Singleton()},
                 {1, 0})};
}

std::vector<Format> tensor3_formats() {
  return {fmt::coo(3), fmt::csf3(), fmt::ddc3(), fmt::dense3(),
          Format({ModeFormat::Dense(), ModeFormat::Compressed(),
                  ModeFormat::Compressed()},
                 {2, 0, 1})};
}

// All of a COO's shapes: as given, ordered (then the input order of
// duplicates no longer varies), and as two runs.
void expect_all_shapes_match(const std::vector<Format>& formats, const Coo& coo,
                             const std::string& what) {
  Coo sorted = coo;
  std::vector<int> identity(coo.dims.size());
  std::iota(identity.begin(), identity.end(), 0);
  sorted.sort_and_combine(identity);
  for (const Format& f : formats) {
    expect_pack_matches(f, coo, what + " unsorted");
    expect_pack_matches(f, sorted, what + " sorted");
    expect_pack_matches(f, rotated(sorted, sorted.coords.size() / 3),
                        what + " two runs");
  }
}

// --- pack --------------------------------------------------------------------

class PackReference : public ::testing::TestWithParam<int> {};

TEST_P(PackReference, MatricesMatchOracle) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 11);
  const std::vector<Coord> dims = {1 + rng.next_range(0, 9),
                                   1 + rng.next_range(0, 11)};
  const int64_t n = rng.next_range(0, 80);
  expect_all_shapes_match(matrix_formats(), random_coo(rng, dims, n),
                          "matrix");
}

TEST_P(PackReference, ThreeTensorsMatchOracle) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 5);
  const std::vector<Coord> dims = {1 + rng.next_range(0, 5),
                                   1 + rng.next_range(0, 6),
                                   1 + rng.next_range(0, 7)};
  const int64_t n = rng.next_range(0, 120);
  expect_all_shapes_match(tensor3_formats(), random_coo(rng, dims, n),
                          "3-tensor");
}

TEST_P(PackReference, VectorsMatchOracle) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 1);
  const std::vector<Coord> dims = {1 + rng.next_range(0, 30)};
  expect_all_shapes_match(
      {fmt::dense_vector(), Format({ModeFormat::Compressed()})},
      random_coo(rng, dims, rng.next_range(0, 40)), "vector");
}

// Coordinates up to INT32_MAX - 1 in three levels need more than one 64-bit
// sort key; many entries make every 11-bit digit pass run.
TEST_P(PackReference, WideCoordinatesMatchOracle) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 6151 + 3);
  const Coord wide = 2147483647;
  Coo m = random_coo(rng, {wide, wide}, 3000);
  Coo t = random_coo(rng, {wide, 7, wide}, 3000);
  // Repeat a few entries so duplicates still occur at these extents.
  for (int r = 0; r < 200; ++r) {
    const CoordKey cm = m.coords[rng.next_below(m.coords.size())];
    m.push(cm, r % 2 ? 1e16 : -1e16);
    const CoordKey ct = t.coords[rng.next_below(t.coords.size())];
    t.push(ct, r % 3 ? 1.0 : -1e16);
  }
  for (const Format& f : {fmt::dcsr(), fmt::coo(2)}) {
    expect_pack_matches(f, m, "wide matrix");
  }
  for (const Format& f :
       {fmt::coo(3), Format({ModeFormat::Compressed(), ModeFormat::Compressed(),
                             ModeFormat::Compressed()},
                            {2, 1, 0})}) {
    expect_pack_matches(f, t, "wide 3-tensor");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackReference, ::testing::Range(0, 16));

TEST(PackReference, EmptyTensorsMatchOracle) {
  for (const Format& f : matrix_formats()) {
    Coo coo;
    coo.dims = {5, 3};
    expect_pack_matches(f, coo, "empty matrix");
  }
  for (const Format& f : tensor3_formats()) {
    Coo coo;
    coo.dims = {2, 3, 4};
    expect_pack_matches(f, coo, "empty 3-tensor");
  }
  Coo v;
  v.dims = {6};
  expect_pack_matches(fmt::dense_vector(), v, "empty vector");
}

// Generator output is already in storage order; pack's scan takes it as is.
TEST(PackReference, GeneratorOutputMatchesOracle) {
  expect_all_shapes_match({fmt::csr(), fmt::csc(), fmt::dcsr(), fmt::coo(2)},
                          data::powerlaw_matrix(300, 200, 3000, 1.1, 4),
                          "powerlaw");
  expect_all_shapes_match({fmt::csr(), fmt::coo(2)},
                          data::banded_matrix(200, 7, 2), "banded");
  expect_all_shapes_match({fmt::csf3(), fmt::coo(3), fmt::ddc3()},
                          data::powerlaw_3tensor(40, 30, 20, 2000, 1.1, 6),
                          "powerlaw 3-tensor");
}

TEST(PackReference, SortAndCombineMatchesOracle) {
  Rng rng(97);
  for (int trial = 0; trial < 20; ++trial) {
    const Coo coo = random_coo(rng, {7, 5, 9}, rng.next_range(0, 200));
    for (const std::vector<int>& order :
         {std::vector<int>{0, 1, 2}, {2, 0, 1}, {1, 2, 0}}) {
      Coo got = coo;
      got.sort_and_combine(order);
      Coo want = coo;
      ref_sort_and_combine(want, order);
      EXPECT_EQ(got.coords, want.coords);
      EXPECT_EQ(bits(got.vals), bits(want.vals));
    }
  }
  // sample_coo's two runs come out ordered and combined like the oracle's.
  const Coo base = data::powerlaw_matrix(500, 500, 4000, 1.2, 8);
  const Coo sample = data::sample_coo(base, 1000, 777);
  Coo want;
  want.dims = base.dims;
  const int64_t n = base.nnz();
  for (int64_t k = 0; k < 1000; ++k) {
    const int64_t idx = (k * n / 1000 + 777 % n) % n;
    want.push(base.coords[static_cast<size_t>(idx)],
              base.vals[static_cast<size_t>(idx)]);
  }
  ref_sort_and_combine(want, {0, 1});
  EXPECT_EQ(sample.coords, want.coords);
  EXPECT_EQ(bits(sample.vals), bits(want.vals));
}

// --- assembly ----------------------------------------------------------------

struct RefAssembly {
  std::set<CoordKey> pattern;
  rt::WorkEstimate work;
};

void ref_project(const Statement& stmt, const tin::Access& acc,
                 const std::vector<tin::IndexVar>& out_vars,
                 std::set<CoordKey>& into, kern::WorkCounter& work) {
  std::vector<int> proj(acc.vars.size(), -1);
  for (size_t d = 0; d < acc.vars.size(); ++d) {
    for (size_t o = 0; o < out_vars.size(); ++o) {
      if (acc.vars[d] == out_vars[o]) proj[d] = static_cast<int>(o);
    }
  }
  stmt.tensor(acc.tensor).storage().for_each([&](const CoordKey& c, double) {
    CoordKey key{};
    for (size_t d = 0; d < acc.vars.size(); ++d) {
      if (proj[d] >= 0) key[static_cast<size_t>(proj[d])] = c[d];
    }
    into.insert(key);
    work.stream(1, 12.0);
  });
}

RefAssembly ref_assemble(const Statement& stmt) {
  RefAssembly res;
  kern::WorkCounter work;
  const std::vector<tin::IndexVar>& out_vars = stmt.assignment.lhs.vars;
  for (const auto& term : tin::sum_of_products(stmt.assignment.rhs)) {
    std::vector<tin::Access> sparse;
    for (const auto& acc : tin::expr_accesses(term)) {
      if (!stmt.tensor(acc.tensor).format().all_dense()) sparse.push_back(acc);
    }
    if (sparse.size() == 1) {
      ref_project(stmt, sparse[0], out_vars, res.pattern, work);
      continue;
    }
    std::set<CoordKey> inter;
    ref_project(stmt, sparse[0], out_vars, inter, work);
    for (size_t s = 1; s < sparse.size(); ++s) {
      std::set<CoordKey> other;
      ref_project(stmt, sparse[s], out_vars, other, work);
      std::set<CoordKey> next;
      std::set_intersection(inter.begin(), inter.end(), other.begin(),
                            other.end(), std::inserter(next, next.begin()));
      inter = std::move(next);
    }
    res.pattern.insert(inter.begin(), inter.end());
  }
  work.stream(static_cast<int64_t>(res.pattern.size()), 24.0);
  res.work = work.done();
  return res;
}

void expect_assembly_matches(Statement& stmt, const std::string& what) {
  SCOPED_TRACE(what);
  const RefAssembly ref = ref_assemble(stmt);
  const kern::AssemblyResult res = kern::assemble_output(stmt);
  const Tensor& out = stmt.tensor(stmt.assignment.lhs.tensor);
  Coo pattern;
  pattern.dims = out.dims();
  for (const CoordKey& key : ref.pattern) pattern.push(key, 0.0);
  expect_matches(out.storage(), ref_pack(out.format(), out.dims(), pattern),
                 what);
  EXPECT_EQ(res.output_nnz, static_cast<int64_t>(ref.pattern.size()));
  EXPECT_EQ(res.symbolic_work.flops, ref.work.flops);
  EXPECT_EQ(res.symbolic_work.bytes, ref.work.bytes);
  EXPECT_EQ(res.symbolic_work.nnz, ref.work.nnz);
}

TEST(PackReference, AssembledPatternsMatchOracle) {
  IndexVar i("i"), j("j"), k("k");
  const Coo m = data::powerlaw_matrix(60, 50, 400, 1.1, 9);
  {
    Tensor A("A", m.dims, fmt::csr()), B("B", m.dims, fmt::csr()),
        C("C", m.dims, fmt::csr()), D("D", m.dims, fmt::csr());
    B.from_coo(m);
    C.from_coo(data::shift_last_dim(m, 1));
    D.from_coo(data::shift_last_dim(m, 2));
    expect_assembly_matches(A(i, j) = B(i, j) + C(i, j) + D(i, j), "SpAdd3");
  }
  {
    Tensor A("A", m.dims, fmt::csc()), B("B", m.dims, fmt::csr()),
        C("C", m.dims, fmt::dcsr());
    B.from_coo(m);
    C.from_coo(data::shift_last_dim(m, 1));
    expect_assembly_matches(A(i, j) = B(i, j) * C(i, j) + B(i, j),
                            "intersection");
  }
  {
    const Coo t = data::powerlaw_3tensor(30, 20, 10, 500, 1.1, 3);
    Tensor A("A", {t.dims[0], t.dims[1]}, fmt::csr());
    Tensor B("B", t.dims, fmt::csf3());
    Tensor c("c", {t.dims[2]}, fmt::dense_vector());
    B.from_coo(t);
    expect_assembly_matches(A(i, j) = B(i, j, k) * c(k), "SpTTV");
  }
  {
    Tensor A("A", m.dims, fmt::csr()), B("B", m.dims, fmt::csr());
    Tensor C("C", {m.dims[0], 4}, fmt::dense_matrix());
    Tensor D("D", {4, m.dims[1]}, fmt::dense_matrix());
    B.from_coo(m);
    expect_assembly_matches(A(i, j) = B(i, j) * C(i, k) * D(k, j), "SDDMM");
  }
}

}  // namespace
}  // namespace spdistal
