// Specialized leaf kernels vs. the dense reference oracle and the general
// co-iteration engine, on realistic synthetic structures.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>

#include "data/generators.h"
#include "kernels/assembly.h"
#include "kernels/leaf_kernels.h"
#include "runtime/touch_log.h"
#include "tensor/dense_ref.h"
#include "verify/verify.h"

namespace spdistal::kern {
namespace {

using rt::Coord;

struct MatrixCase {
  const char* name;
  std::function<fmt::Coo()> make;
};

std::vector<MatrixCase> matrix_cases() {
  return {
      {"banded", [] { return data::banded_matrix(60, 5, 1); }},
      {"uniform", [] { return data::uniform_matrix(50, 40, 300, 2); }},
      {"powerlaw", [] { return data::powerlaw_matrix(64, 64, 400, 1.2, 3); }},
      {"regular", [] { return data::regular_matrix(80, 3, 4); }},
      {"empty_rows",
       [] {
         fmt::Coo coo;
         coo.dims = {10, 10};
         coo.push({0, 0}, 1.0);
         coo.push({9, 9}, 2.0);
         return coo;
       }},
      {"single", [] {
         fmt::Coo coo;
         coo.dims = {1, 1};
         coo.push({0, 0}, 3.0);
         return coo;
       }},
  };
}

void expect_work(const rt::WorkEstimate& w, double flops, double bytes,
                 double nnz, const std::string& what) {
  EXPECT_EQ(w.flops, flops) << what;
  EXPECT_EQ(w.bytes, bytes) << what;
  EXPECT_EQ(w.nnz, nnz) << what;
}

// Records touches on this thread for the scope, as a verify-mode point task
// does, so leaves run their recording instantiation. Arms the one verify
// switch for the scope and restores it after.
class RecordTouches {
 public:
  explicit RecordTouches(rt::TouchLog* log)
      : was_on_(verify::enabled()), scope_(log) {
    verify::set_enabled(true);
  }
  ~RecordTouches() { verify::set_enabled(was_on_); }

 private:
  bool was_on_;
  rt::ScopedTouchLog scope_;
};

// Runs `leaf` on `piece` twice from the same output values: with no touch
// log, as every launch outside verify mode does (the plain instantiation),
// and under one (the recording instantiation). Both must write the same
// output bits and report the same work, and the recording run must record
// the touches of a piece that did work. Returns the work, leaving `out` as
// one run left it.
rt::WorkEstimate run_both(Leaf& leaf, const Tensor& out,
                          const PieceBounds& piece, const std::string& what) {
  std::vector<double>& vals = out.storage().vals()->data();
  const std::vector<double> before = vals;
  const rt::WorkEstimate plain = leaf(piece);
  const std::vector<double> after = vals;
  vals = before;
  rt::TouchLog log;
  rt::WorkEstimate recorded;
  {
    RecordTouches scope(&log);
    recorded = leaf(piece);
  }
  EXPECT_EQ(vals, after) << what << " recording";
  expect_work(recorded, plain.flops, plain.bytes, plain.nnz,
              what + " recording");
  if (plain.flops > 0) {
    EXPECT_FALSE(log.empty()) << what << " recorded nothing";
  }
  return plain;
}

// Pieces a leaf must clamp to B. An empty window and one past B's last
// position do nothing. A window that runs from inside B past its last
// position, and a row range that runs past B's last row, do exactly what
// their parts inside B do. `positions` counts the positions the leaf's
// windows index and `rows` B's rows; nullopt skips the windows or row
// ranges of a leaf that takes none.
void expect_empty_windows(Leaf& leaf, const Tensor& A,
                          std::optional<Coord> positions,
                          std::optional<Coord> rows, const std::string& what) {
  const std::vector<double> before = A.storage().vals()->data();
  std::vector<std::pair<PieceBounds, PieceBounds>> straddling;
  if (positions) {
    const Coord past = *positions;
    for (const rt::Rect1 w : {rt::Rect1{1, 0}, rt::Rect1{past, past}}) {
      PieceBounds piece;
      piece.dist_pos = w;
      expect_work(run_both(leaf, A, piece, what + " empty window"), 0, 0, 0,
                  what + " empty window");
    }
    const Coord lo = std::max<Coord>(past - 5, 0);
    PieceBounds inside, over;
    inside.dist_pos = rt::Rect1{lo, past - 1};
    over.dist_pos = rt::Rect1{lo, past + 50};
    straddling.emplace_back(inside, over);
  }
  EXPECT_EQ(A.storage().vals()->data(), before) << what;
  if (rows) {
    const Coord lo = std::max<Coord>(*rows - 4, 0);
    PieceBounds inside, over;
    inside.dist_coords = rt::Rect1{lo, *rows - 1};
    over.dist_coords = rt::Rect1{lo, *rows + 56};
    straddling.emplace_back(inside, over);
  }
  for (const auto& [inside, over] : straddling) {
    A.storage().vals()->fill(0.0);
    const rt::WorkEstimate w = run_both(leaf, A, inside, what + " inside");
    const std::vector<double> expect = A.storage().vals()->data();
    A.storage().vals()->fill(0.0);
    expect_work(run_both(leaf, A, over, what + " straddling"), w.flops,
                w.bytes, w.nnz, what + " straddling");
    EXPECT_EQ(A.storage().vals()->data(), expect) << what << " straddling";
  }
}

class SpmvKernels : public ::testing::TestWithParam<int> {};

TEST_P(SpmvKernels, RowAndNzMatchReference) {
  const MatrixCase mc = matrix_cases()[static_cast<size_t>(GetParam())];
  IndexVar i("i"), j("j");
  fmt::Coo coo = mc.make();
  const Coord n = coo.dims[0];
  const Coord m = coo.dims[1];
  Tensor a("a", {n}, fmt::dense_vector());
  Tensor B("B", {n, m}, fmt::csr());
  Tensor c("c", {m}, fmt::dense_vector());
  B.from_coo(std::move(coo));
  c.init_dense([](const auto& x) {
    return 1.0 + 0.25 * static_cast<double>(x[0] % 7);
  });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  const ref::DenseTensor expect = ref::eval(stmt);

  // Two row pieces, to exercise the boundary.
  const std::vector<rt::Rect1> rows = {rt::Rect1{0, n / 2},
                                       rt::Rect1{n / 2 + 1, n - 1}};
  std::vector<double> row_out;
  std::vector<rt::WorkEstimate> row_work;
  {
    Leaf leaf = make_spmv_row(a, B, c);
    a.zero();
    for (const rt::Rect1& r : rows) {
      if (r.empty()) continue;
      PieceBounds p;
      p.dist_coords = r;
      row_work.push_back(run_both(leaf, a, p, std::string(mc.name) + " row"));
    }
    EXPECT_LE(ref::max_abs_diff(a, expect), 1e-12) << mc.name << " row";
    row_out = a.storage().vals()->data();
    expect_empty_windows(leaf, a, n, n, std::string(mc.name) + " row");
  }
  {
    // A position split at CSR's Dense row level (level 0) hands the leaf
    // the same rows as positions: outputs and work charges equal the row
    // pieces' exactly.
    Leaf leaf = make_spmv_row(a, B, c);
    a.zero();
    std::vector<rt::WorkEstimate> work;
    for (const rt::Rect1& r : rows) {
      if (r.empty()) continue;
      PieceBounds p;
      p.dist_pos = r;
      p.pos_tensor = "B";
      p.pos_level = 0;
      work.push_back(run_both(leaf, a, p, std::string(mc.name) + " level 0"));
    }
    EXPECT_EQ(a.storage().vals()->data(), row_out) << mc.name << " level 0";
    ASSERT_EQ(work.size(), row_work.size());
    for (size_t k = 0; k < work.size(); ++k) {
      EXPECT_EQ(work[k].flops, row_work[k].flops) << mc.name << " piece " << k;
      EXPECT_EQ(work[k].bytes, row_work[k].bytes) << mc.name << " piece " << k;
      EXPECT_EQ(work[k].nnz, row_work[k].nnz) << mc.name << " piece " << k;
    }
  }
  {
    Leaf leaf = make_spmv_nz(a, B, c);
    a.zero();
    const Coord nnz = B.storage().level(1).positions;
    PieceBounds p1, p2;
    p1.dist_pos = rt::Rect1{0, nnz / 3};
    p2.dist_pos = rt::Rect1{nnz / 3 + 1, nnz - 1};
    const std::string what = std::string(mc.name) + " nz";
    run_both(leaf, a, p1, what);
    if (!p2.dist_pos->empty()) run_both(leaf, a, p2, what);
    EXPECT_LE(ref::max_abs_diff(a, expect), 1e-12) << what;
    expect_empty_windows(leaf, a, nnz, std::nullopt, what);
  }
}

INSTANTIATE_TEST_SUITE_P(Structures, SpmvKernels, ::testing::Range(0, 6));

class SpmmKernel : public ::testing::TestWithParam<int> {};

TEST_P(SpmmKernel, MatchesReference) {
  const MatrixCase mc = matrix_cases()[static_cast<size_t>(GetParam())];
  IndexVar i("i"), j("j"), k("k");
  fmt::Coo coo = mc.make();
  const Coord n = coo.dims[0];
  const Coord m = coo.dims[1];
  const Coord jdim = 8;
  Tensor A("A", {n, jdim}, fmt::dense_matrix());
  Tensor B("B", {n, m}, fmt::csr());
  Tensor C("C", {m, jdim}, fmt::dense_matrix());
  B.from_coo(std::move(coo));
  C.init_dense([](const auto& x) {
    return 0.5 + static_cast<double>((x[0] * 3 + x[1]) % 5);
  });
  Statement& stmt = (A(i, j) = B(i, k) * C(k, j));
  Leaf leaf = make_spmm(A, B, C);
  A.zero();
  leaf(PieceBounds{});
  EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-10) << mc.name;
}

INSTANTIATE_TEST_SUITE_P(Structures, SpmmKernel, ::testing::Range(0, 6));

class SpAdd3Kernel : public ::testing::TestWithParam<int> {};

TEST_P(SpAdd3Kernel, FusedUnionMatchesReference) {
  const MatrixCase mc = matrix_cases()[static_cast<size_t>(GetParam())];
  IndexVar i("i"), j("j");
  fmt::Coo coo = mc.make();
  const Coord n = coo.dims[0];
  const Coord m = coo.dims[1];
  Tensor A("A", {n, m}, fmt::csr());
  Tensor B("B", {n, m}, fmt::csr());
  Tensor C("C", {n, m}, fmt::csr());
  Tensor D("D", {n, m}, fmt::csr());
  B.from_coo(coo);
  C.from_coo(data::shift_last_dim(coo, 1 % m));
  D.from_coo(data::shift_last_dim(coo, 2 % m));
  Statement& stmt = (A(i, j) = B(i, j) + C(i, j) + D(i, j));
  assemble_output(stmt);
  Leaf leaf = make_spadd3_row(A, B, C, D);
  A.zero();
  run_both(leaf, A, PieceBounds{}, mc.name);
  EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-12) << mc.name;
  expect_empty_windows(leaf, A, std::nullopt, n, mc.name);
}

INSTANTIATE_TEST_SUITE_P(Structures, SpAdd3Kernel, ::testing::Range(0, 6));

class SddmmKernel : public ::testing::TestWithParam<int> {};

TEST_P(SddmmKernel, RowAndNzMatchReference) {
  const MatrixCase mc = matrix_cases()[static_cast<size_t>(GetParam())];
  IndexVar i("i"), j("j"), k("k");
  fmt::Coo coo = mc.make();
  const Coord n = coo.dims[0];
  const Coord m = coo.dims[1];
  const Coord kdim = 6;
  Tensor A("A", {n, m}, fmt::csr());
  Tensor B("B", {n, m}, fmt::csr());
  Tensor C("C", {n, kdim}, fmt::dense_matrix());
  Tensor D("D", {kdim, m}, fmt::dense_matrix());
  B.from_coo(std::move(coo));
  C.init_dense([](const auto& x) {
    return 1.0 + 0.1 * static_cast<double>((x[0] + x[1]) % 4);
  });
  D.init_dense([](const auto& x) {
    return 0.5 - 0.2 * static_cast<double>((x[0] * 2 + x[1]) % 3);
  });
  Statement& stmt = (A(i, j) = B(i, j) * C(i, k) * D(k, j));
  assemble_output(stmt);
  const ref::DenseTensor expect = ref::eval(stmt);
  {
    Leaf leaf = make_sddmm(A, B, C, D);
    A.zero();
    leaf(PieceBounds{});
    EXPECT_LE(ref::max_abs_diff(A, expect), 1e-10) << mc.name << " row";
  }
  {
    Leaf leaf = make_sddmm(A, B, C, D);
    A.zero();
    const Coord nnz = B.storage().level(1).positions;
    PieceBounds p1, p2;
    p1.dist_pos = rt::Rect1{0, nnz / 2};
    p2.dist_pos = rt::Rect1{nnz / 2 + 1, nnz - 1};
    leaf(p1);
    if (!p2.dist_pos->empty()) leaf(p2);
    EXPECT_LE(ref::max_abs_diff(A, expect), 1e-10) << mc.name << " nz";
  }
}

INSTANTIATE_TEST_SUITE_P(Structures, SddmmKernel, ::testing::Range(0, 6));

struct TensorCase {
  const char* name;
  fmt::Format format;
  std::function<fmt::Coo()> make;
};

std::vector<TensorCase> tensor_cases() {
  return {
      {"uniform_csf", fmt::csf3(),
       [] { return data::uniform_3tensor(20, 15, 25, 300, 5); }},
      {"powerlaw_csf", fmt::csf3(),
       [] { return data::powerlaw_3tensor(30, 20, 10, 400, 1.2, 6); }},
      {"patents_ddc", fmt::ddc3(),
       [] { return data::patents_like_3tensor(6, 8, 30, 0.2, 7); }},
      // Every (i, j) fiber of patents_ddc holds a non-zero; here 116 of the
      // 300 fibers under the Dense middle level are empty.
      {"uniform_ddc", fmt::ddc3(),
       [] { return data::uniform_3tensor(20, 15, 25, 300, 5); }},
  };
}

// parent[q] for every position q of a Compressed level, from its pos
// segments.
std::vector<Coord> parents_of(const fmt::LevelStorage& level) {
  std::vector<Coord> parent(static_cast<size_t>(level.positions), -1);
  for (Coord p = 0; p < level.parent_positions; ++p) {
    const rt::PosRange seg = (*level.pos)[p];
    for (Coord q = seg.lo; q <= seg.hi; ++q) {
      parent[static_cast<size_t>(q)] = p;
    }
  }
  return parent;
}

class SpttvKernel : public ::testing::TestWithParam<int> {};

TEST_P(SpttvKernel, MatchesReference) {
  const TensorCase tc = tensor_cases()[static_cast<size_t>(GetParam())];
  IndexVar i("i"), j("j"), k("k");
  fmt::Coo coo = tc.make();
  const auto dims = coo.dims;
  Tensor A("A", {dims[0], dims[1]}, fmt::csr());
  Tensor B("B", dims, tc.format);
  Tensor c("c", {dims[2]}, fmt::dense_vector());
  B.from_coo(std::move(coo));
  c.init_dense([](const auto& x) {
    return 1.0 + 0.3 * static_cast<double>(x[0] % 5);
  });
  Statement& stmt = (A(i, j) = B(i, j, k) * c(k));
  assemble_output(stmt);
  Leaf leaf = make_spttv(A, B, c);
  A.zero();
  // Two row pieces.
  PieceBounds p1, p2;
  p1.dist_coords = rt::Rect1{0, dims[0] / 2};
  p2.dist_coords = rt::Rect1{dims[0] / 2 + 1, dims[0] - 1};
  leaf(p1);
  if (!p2.dist_coords->empty()) leaf(p2);
  EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-10) << tc.name;
}

INSTANTIATE_TEST_SUITE_P(Structures, SpttvKernel, ::testing::Range(0, 4));

class SpmttkrpKernel : public ::testing::TestWithParam<int> {};

// The work the SpMTTKRP leaf charges: 4L flops and 16L+12 bytes per stored
// non-zero, plus 16 bytes per pos segment a row piece reads.
void expect_mttkrp_work(const rt::WorkEstimate& w, Coord L, Coord nnz,
                        Coord segments, const std::string& what) {
  const double n = static_cast<double>(nnz);
  const double l = static_cast<double>(L);
  EXPECT_EQ(w.flops, 4.0 * l * n) << what;
  EXPECT_EQ(w.bytes, (16.0 * l + 12.0) * n +
                         16.0 * static_cast<double>(segments))
      << what;
  EXPECT_EQ(w.nnz, n) << what;
}

TEST_P(SpmttkrpKernel, MatchesReference) {
  const TensorCase tc = tensor_cases()[static_cast<size_t>(GetParam())];
  IndexVar i("i"), j("j"), k("k"), l("l");
  fmt::Coo coo = tc.make();
  const auto dims = coo.dims;
  const Coord L = 5;
  Tensor A("A", {dims[0], L}, fmt::dense_matrix());
  Tensor B("B", dims, tc.format);
  Tensor C("C", {dims[1], L}, fmt::dense_matrix());
  Tensor D("D", {dims[2], L}, fmt::dense_matrix());
  B.from_coo(std::move(coo));
  auto c_at = [](Coord r, Coord col) {
    return 0.5 + 0.25 * static_cast<double>((r + 2 * col) % 3);
  };
  auto d_at = [](Coord r, Coord col) {
    return 1.0 - 0.125 * static_cast<double>((2 * r + col) % 5);
  };
  C.init_dense([&](const auto& x) { return c_at(x[0], x[1]); });
  D.init_dense([&](const auto& x) { return d_at(x[0], x[1]); });
  Statement& stmt = (A(i, l) = B(i, j, k) * C(j, l) * D(k, l));
  const ref::DenseTensor oracle = ref::eval(stmt);

  // Both piece kinds add a row's non-zeros in position order, one element
  // at a time, as A(i,l) += v * C(j,l) * D(k,l): replaying that order over
  // the stored entries reproduces their output bit for bit.
  const fmt::Coo stored = B.storage().to_coo();
  std::vector<double> expect(static_cast<size_t>(dims[0] * L), 0.0);
  for (size_t e = 0; e < stored.vals.size(); ++e) {
    const auto& x = stored.coords[e];
    for (Coord col = 0; col < L; ++col) {
      expect[static_cast<size_t>(x[0] * L + col)] +=
          stored.vals[e] * c_at(x[1], col) * d_at(x[2], col);
    }
  }
  auto expect_exact = [&](const std::string& what) {
    const std::vector<double>& got = A.storage().vals()->data();
    ASSERT_EQ(got.size(), expect.size()) << what;
    for (size_t e = 0; e < expect.size(); ++e) {
      EXPECT_EQ(got[e], expect[e]) << what << " at " << e;
    }
    EXPECT_LE(ref::max_abs_diff(A, oracle), 1e-9) << what;
  };

  const auto& l1 = B.storage().level(1);
  const auto& l2 = B.storage().level(2);
  const Coord nnz = l2.positions;
  {
    // Two row pieces. Per piece, a row piece reads one level-2 segment per
    // fiber (empty ones included) and, over a Compressed middle level, one
    // level-1 segment per row.
    Leaf leaf = make_spmttkrp(A, B, C, D);
    A.zero();
    const Coord mid = dims[0] / 2;
    for (const rt::Rect1 rows :
         {rt::Rect1{0, mid}, rt::Rect1{mid + 1, dims[0] - 1}}) {
      if (rows.empty()) continue;
      PieceBounds piece;
      piece.dist_coords = rows;
      Coord fibers = 0;
      Coord piece_nnz = 0;
      for (Coord r = rows.lo; r <= rows.hi; ++r) {
        const rt::PosRange seg =
            l1.kind.is_compressed()
                ? (*l1.pos)[r]
                : rt::PosRange{r * l1.extent, (r + 1) * l1.extent - 1};
        fibers += seg.size();
        for (Coord q1 = seg.lo; q1 <= seg.hi; ++q1) {
          piece_nnz += (*l2.pos)[q1].size();
        }
      }
      const Coord segments =
          fibers + (l1.kind.is_compressed() ? rows.size() : 0);
      expect_mttkrp_work(leaf(piece), L, piece_nnz, segments,
                         std::string(tc.name) + " row");
    }
    expect_exact(std::string(tc.name) + " row");
  }
  {
    // Three position pieces whose boundaries split a fiber.
    const std::vector<Coord> fiber_of = parents_of(l2);
    auto split_inside_fiber = [&](Coord from) {
      Coord q = from;
      while (q + 1 < nnz && fiber_of[static_cast<size_t>(q)] !=
                                fiber_of[static_cast<size_t>(q + 1)]) {
        ++q;
      }
      EXPECT_LT(q + 1, nnz) << tc.name << ": no fiber to split";
      return q;
    };
    const Coord b1 = split_inside_fiber(nnz / 3);
    const Coord b2 = split_inside_fiber(std::max(b1 + 1, 2 * nnz / 3));
    Leaf leaf = make_spmttkrp(A, B, C, D);
    A.zero();
    for (const rt::Rect1 range : {rt::Rect1{0, b1}, rt::Rect1{b1 + 1, b2},
                                  rt::Rect1{b2 + 1, nnz - 1}}) {
      PieceBounds piece;
      piece.dist_pos = range;
      expect_mttkrp_work(leaf(piece), L, range.size(), 0,
                         std::string(tc.name) + " nz");
    }
    expect_exact(std::string(tc.name) + " nz");
  }
  if (std::string(tc.name) == "uniform_ddc") {
    Coord empty = 0;
    for (Coord q1 = 0; q1 < l1.positions; ++q1) {
      empty += (*l2.pos)[q1].empty() ? 1 : 0;
    }
    EXPECT_GT(empty, 0) << "uniform_ddc must keep its empty fibers";
  }
}

INSTANTIATE_TEST_SUITE_P(Structures, SpmttkrpKernel, ::testing::Range(0, 4));

// --- Position windows of the merged leaves -----------------------------------
//
// Every piece of the SpMM, SDDMM, SpTTV and SpMTTKRP leaves is a window over
// B's last-level positions. These suites cut each structure into seeded
// non-zero windows (boundaries inside a row or fiber, single positions,
// edges next to empty rows or fibers) and, separately, into seeded row
// pieces. They run the leaf on every piece in turn and compare the output
// bit for bit with a per-position replay in the leaf's order, and each
// piece's work with the closed form for its kind.

// Consecutive windows covering [0, n). A window ends at every position
// followed by an empty parent at any level of `owners` (owners[l][q] is q's
// parent at level l), at up to four positions inside a segment of
// owners[0], around three single positions, and at three random positions.
std::vector<rt::Rect1> cut_windows(
    Coord n, const std::vector<std::vector<Coord>>& owners, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::set<Coord> ends{n - 1};
  std::vector<Coord> inside;
  for (Coord q = 0; q + 1 < n; ++q) {
    const size_t k = static_cast<size_t>(q);
    for (const auto& o : owners) {
      if (o[k + 1] > o[k] + 1) ends.insert(q);
    }
    if (!owners.empty() && owners[0][k] == owners[0][k + 1]) {
      inside.push_back(q);
    }
  }
  std::shuffle(inside.begin(), inside.end(), rng);
  for (size_t k = 0; k < std::min<size_t>(4, inside.size()); ++k) {
    ends.insert(inside[k]);
  }
  std::uniform_int_distribution<Coord> any(0, n - 1);
  for (int k = 0; k < 3; ++k) {
    const Coord single = any(rng);
    if (single > 0) ends.insert(single - 1);
    ends.insert(single);
    ends.insert(any(rng));
  }
  std::vector<rt::Rect1> windows;
  Coord lo = 0;
  for (const Coord end : ends) {
    windows.push_back(rt::Rect1{lo, end});
    lo = end + 1;
  }
  return windows;
}

// One piece of a cut, with the B positions it covers.
struct Cut {
  PieceBounds piece;
  rt::Rect1 pos;
  rt::Rect1 rows;  // row pieces only
};

// The non-zero windows (nz) or row pieces of one structure. `row_of[q]` is
// the row storing position q; `owners` as in cut_windows.
std::vector<Cut> cut_pieces(bool nz, Coord rows,
                            const std::vector<Coord>& row_of,
                            const std::vector<std::vector<Coord>>& owners,
                            uint64_t seed) {
  const Coord n = static_cast<Coord>(row_of.size());
  std::vector<Cut> cuts;
  if (nz) {
    const std::vector<Coord>& parent = owners[0];
    const bool splittable =
        std::adjacent_find(parent.begin(), parent.end()) != parent.end();
    bool single = false;
    bool split = false;
    for (const rt::Rect1& w : cut_windows(n, owners, seed)) {
      Cut c;
      c.piece.dist_pos = w;
      c.pos = w;
      cuts.push_back(c);
      single |= w.size() == 1;
      split |= w.hi + 1 < n && parent[static_cast<size_t>(w.hi)] ==
                                   parent[static_cast<size_t>(w.hi + 1)];
    }
    EXPECT_TRUE(single) << "no single-position window";
    EXPECT_EQ(split, splittable) << "no window boundary inside a segment";
    return cuts;
  }
  for (const rt::Rect1& r : cut_windows(rows, {}, seed)) {
    Cut c;
    c.piece.dist_coords = r;
    c.rows = r;
    const Coord lo = std::lower_bound(row_of.begin(), row_of.end(), r.lo) -
                     row_of.begin();
    const Coord hi = std::upper_bound(row_of.begin(), row_of.end(), r.hi) -
                     row_of.begin();
    c.pos = rt::Rect1{lo, hi - 1};
    cuts.push_back(c);
  }
  return cuts;
}

// Whether some window starts or ends next to an empty parent of `owner`.
bool borders_empty(const std::vector<Cut>& cuts,
                   const std::vector<Coord>& owner) {
  for (const Cut& c : cuts) {
    if (c.pos.empty()) continue;
    const Coord first = owner[static_cast<size_t>(c.pos.lo)];
    const Coord last = owner[static_cast<size_t>(c.pos.hi)];
    if (c.pos.lo > 0 && owner[static_cast<size_t>(c.pos.lo - 1)] < first - 1) {
      return true;
    }
    if (c.pos.hi + 1 < static_cast<Coord>(owner.size()) &&
        owner[static_cast<size_t>(c.pos.hi + 1)] > last + 1) {
      return true;
    }
  }
  return false;
}

class MatrixLeafWindows : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    mc = matrix_cases()[static_cast<size_t>(GetParam())];
    fmt::Coo coo = mc.make();
    n = coo.dims[0];
    m = coo.dims[1];
    B = Tensor("B", {n, m}, fmt::csr());
    B.from_coo(std::move(coo));
    row_of = parents_of(B.storage().level(1));
    crd = B.storage().level(1).crd->data();
    bvals = B.storage().vals()->data();
  }
  std::vector<Cut> cuts(bool nz) const {
    const std::vector<Cut> c =
        cut_pieces(nz, n, row_of, {row_of}, 100 + GetParam());
    if (nz && (std::string(mc.name) == "empty_rows")) {
      EXPECT_TRUE(borders_empty(c, row_of)) << mc.name;
    }
    return c;
  }

  MatrixCase mc;
  Coord n = 0, m = 0;
  Tensor B;
  std::vector<Coord> row_of;
  std::vector<int32_t> crd;
  std::vector<double> bvals;
};

TEST_P(MatrixLeafWindows, Spmm) {
  IndexVar i("i"), j("j"), k("k");
  const Coord J = 8;
  Tensor A("A", {n, J}, fmt::dense_matrix());
  Tensor C("C", {m, J}, fmt::dense_matrix());
  C.init_dense([](const auto& x) {
    return 0.5 + 0.125 * static_cast<double>((x[0] * 3 + x[1]) % 7);
  });
  Statement& stmt = (A(i, j) = B(i, k) * C(k, j));
  const ref::DenseTensor oracle = ref::eval(stmt);
  const std::vector<double>& cvals = C.storage().vals()->data();
  Leaf leaf = make_spmm(A, B, C);
  for (const bool nz : {true, false}) {
    const std::string what = std::string(mc.name) + (nz ? " nz" : " row");
    A.zero();
    std::vector<double> expect(static_cast<size_t>(n * J), 0.0);
    for (const Cut& c : cuts(nz)) {
      // nnz non-zeros: 2J flops and 8J+12 bytes each; a row piece also
      // reads one 16-byte pos segment per row.
      const double s = static_cast<double>(c.pos.size());
      expect_work(run_both(leaf, A, c.piece, what), 2.0 * J * s,
                  (8.0 * J + 12.0) * s + 16.0 * static_cast<double>(c.rows.size()),
                  s, what);
      for (Coord q = c.pos.lo; q <= c.pos.hi; ++q) {
        const size_t e = static_cast<size_t>(q);
        for (Coord col = 0; col < J; ++col) {
          expect[static_cast<size_t>(row_of[e] * J + col)] +=
              bvals[e] * cvals[static_cast<size_t>(crd[e] * J + col)];
        }
      }
    }
    EXPECT_EQ(A.storage().vals()->data(), expect) << what;
    EXPECT_LE(ref::max_abs_diff(A, oracle), 1e-10) << what;
  }
  expect_empty_windows(leaf, A, static_cast<Coord>(bvals.size()), n, mc.name);
}

TEST_P(MatrixLeafWindows, Sddmm) {
  IndexVar i("i"), j("j"), k("k");
  const Coord K = 6;
  Tensor A("A", {n, m}, fmt::csr());
  Tensor C("C", {n, K}, fmt::dense_matrix());
  Tensor D("D", {K, m}, fmt::dense_matrix());
  C.init_dense([](const auto& x) {
    return 1.0 + 0.1 * static_cast<double>((x[0] + x[1]) % 4);
  });
  D.init_dense([](const auto& x) {
    return 0.5 - 0.2 * static_cast<double>((x[0] * 2 + x[1]) % 3);
  });
  Statement& stmt = (A(i, j) = B(i, j) * C(i, k) * D(k, j));
  assemble_output(stmt);
  const ref::DenseTensor oracle = ref::eval(stmt);
  const std::vector<double>& cvals = C.storage().vals()->data();
  const std::vector<double>& dvals = D.storage().vals()->data();
  Leaf leaf = make_sddmm(A, B, C, D);
  for (const bool nz : {true, false}) {
    const std::string what = std::string(mc.name) + (nz ? " nz" : " row");
    A.zero();
    std::vector<double> expect(bvals.size(), 0.0);
    for (const Cut& c : cuts(nz)) {
      // Both kinds: a K-long dot product and one sparse multiply-add per
      // non-zero, no pos reads.
      const double s = static_cast<double>(c.pos.size());
      expect_work(run_both(leaf, A, c.piece, what), (2.0 * K + 2.0) * s,
                  (16.0 * K + 20.0) * s,
                  s, what);
      for (Coord q = c.pos.lo; q <= c.pos.hi; ++q) {
        const size_t e = static_cast<size_t>(q);
        double dot = 0;
        for (Coord x = 0; x < K; ++x) {
          dot += cvals[static_cast<size_t>(row_of[e] * K + x)] *
                 dvals[static_cast<size_t>(x * m + crd[e])];
        }
        expect[e] += bvals[e] * dot;
      }
    }
    EXPECT_EQ(A.storage().vals()->data(), expect) << what;
    EXPECT_LE(ref::max_abs_diff(A, oracle), 1e-10) << what;
  }
  expect_empty_windows(leaf, A, static_cast<Coord>(bvals.size()), n, mc.name);
}

INSTANTIATE_TEST_SUITE_P(Structures, MatrixLeafWindows,
                         ::testing::Range(0, 6));

class TensorLeafWindows : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    tc = tensor_cases()[static_cast<size_t>(GetParam())];
    fmt::Coo coo = tc.make();
    dims = coo.dims;
    B = Tensor("B", dims, tc.format);
    B.from_coo(std::move(coo));
    const auto& l1 = B.storage().level(1);
    fiber_of = parents_of(B.storage().level(2));
    const std::vector<Coord> row_of_fiber =
        l1.kind.is_compressed() ? parents_of(l1) : std::vector<Coord>{};
    for (const Coord f : fiber_of) {
      row_of.push_back(l1.kind.is_compressed()
                           ? row_of_fiber[static_cast<size_t>(f)]
                           : f / l1.extent);
      col_of.push_back(l1.kind.is_compressed()
                           ? Coord{(*l1.crd)[f]}
                           : f % l1.extent);
    }
    crd = B.storage().level(2).crd->data();
    bvals = B.storage().vals()->data();
  }
  std::vector<Cut> cuts(bool nz) const {
    const std::vector<Cut> c =
        cut_pieces(nz, dims[0], row_of, {fiber_of, row_of}, 200 + GetParam());
    if (nz && std::string(tc.name) == "uniform_ddc") {
      EXPECT_TRUE(borders_empty(c, fiber_of)) << tc.name;
    }
    return c;
  }

  TensorCase tc;
  std::vector<Coord> dims;
  Tensor B;
  std::vector<Coord> fiber_of, row_of, col_of;
  std::vector<int32_t> crd;
  std::vector<double> bvals;
};

TEST_P(TensorLeafWindows, Spttv) {
  IndexVar i("i"), j("j"), k("k");
  Tensor A("A", {dims[0], dims[1]}, fmt::csr());
  Tensor c("c", {dims[2]}, fmt::dense_vector());
  c.init_dense([](const auto& x) {
    return 1.0 + 0.3 * static_cast<double>(x[0] % 5);
  });
  Statement& stmt = (A(i, j) = B(i, j, k) * c(k));
  assemble_output(stmt);
  const ref::DenseTensor oracle = ref::eval(stmt);
  const std::vector<double>& cvals = c.storage().vals()->data();
  Leaf leaf = make_spttv(A, B, c);
  for (const bool nz : {true, false}) {
    const std::string what = std::string(tc.name) + (nz ? " nz" : " row");
    A.zero();
    std::vector<double> expect(A.storage().vals()->data().size(), 0.0);
    for (const Cut& cut : cuts(nz)) {
      // The leaf sums each fiber's part of the piece, then adds the sum to
      // the fiber's output entry.
      Coord fibers = 0;
      for (Coord lo = cut.pos.lo; lo <= cut.pos.hi;) {
        const Coord f = fiber_of[static_cast<size_t>(lo)];
        double sum = 0;
        Coord q = lo;
        for (; q <= cut.pos.hi && fiber_of[static_cast<size_t>(q)] == f; ++q) {
          sum += bvals[static_cast<size_t>(q)] *
                 cvals[static_cast<size_t>(crd[static_cast<size_t>(q)])];
        }
        const Coord out = locate_position(
            A.storage(), {row_of[static_cast<size_t>(lo)],
                          col_of[static_cast<size_t>(lo)]});
        ASSERT_GE(out, 0) << what;
        expect[static_cast<size_t>(out)] += sum;
        ++fibers;
        lo = q;
      }
      // 2 flops and 20 bytes per non-zero and 16 bytes per fiber (its pos
      // read in a non-zero piece, its output write in a row piece); a row
      // piece also reads one pos segment per row.
      const double s = static_cast<double>(cut.pos.size());
      expect_work(run_both(leaf, A, cut.piece, what), 2.0 * s,
                  20.0 * s + 16.0 * static_cast<double>(fibers) +
                      16.0 * static_cast<double>(cut.rows.size()),
                  s, what);
    }
    EXPECT_EQ(A.storage().vals()->data(), expect) << what;
    EXPECT_LE(ref::max_abs_diff(A, oracle), 1e-10) << what;
  }
  expect_empty_windows(leaf, A, static_cast<Coord>(bvals.size()), dims[0],
                       tc.name);
}

TEST_P(TensorLeafWindows, Spmttkrp) {
  IndexVar i("i"), j("j"), k("k"), l("l");
  const Coord L = 5;
  Tensor A("A", {dims[0], L}, fmt::dense_matrix());
  Tensor C("C", {dims[1], L}, fmt::dense_matrix());
  Tensor D("D", {dims[2], L}, fmt::dense_matrix());
  C.init_dense([](const auto& x) {
    return 0.5 + 0.25 * static_cast<double>((x[0] + 2 * x[1]) % 3);
  });
  D.init_dense([](const auto& x) {
    return 1.0 - 0.125 * static_cast<double>((2 * x[0] + x[1]) % 5);
  });
  Statement& stmt = (A(i, l) = B(i, j, k) * C(j, l) * D(k, l));
  const ref::DenseTensor oracle = ref::eval(stmt);
  const std::vector<double>& cvals = C.storage().vals()->data();
  const std::vector<double>& dvals = D.storage().vals()->data();
  const auto& l1 = B.storage().level(1);
  Leaf leaf = make_spmttkrp(A, B, C, D);
  for (const bool nz : {true, false}) {
    const std::string what = std::string(tc.name) + (nz ? " nz" : " row");
    A.zero();
    std::vector<double> expect(static_cast<size_t>(dims[0] * L), 0.0);
    for (const Cut& cut : cuts(nz)) {
      // A row piece reads the pos segment of every fiber of its rows (empty
      // ones included) and, over a Compressed middle level, of every row.
      Coord segments = 0;
      if (!l1.kind.is_compressed()) {
        segments = cut.rows.size() * l1.extent;
      } else if (!cut.rows.empty()) {
        segments = (*l1.pos)[cut.rows.hi].hi - (*l1.pos)[cut.rows.lo].lo + 1 +
                   cut.rows.size();
      }
      expect_mttkrp_work(run_both(leaf, A, cut.piece, what), L,
                         cut.pos.size(), segments, what);
      for (Coord q = cut.pos.lo; q <= cut.pos.hi; ++q) {
        const size_t e = static_cast<size_t>(q);
        for (Coord col = 0; col < L; ++col) {
          expect[static_cast<size_t>(row_of[e] * L + col)] +=
              bvals[e] * cvals[static_cast<size_t>(col_of[e] * L + col)] *
              dvals[static_cast<size_t>(crd[e] * L + col)];
        }
      }
    }
    EXPECT_EQ(A.storage().vals()->data(), expect) << what;
    EXPECT_LE(ref::max_abs_diff(A, oracle), 1e-9) << what;
  }
  expect_empty_windows(leaf, A, static_cast<Coord>(bvals.size()), dims[0],
                       tc.name);
}

INSTANTIATE_TEST_SUITE_P(Structures, TensorLeafWindows,
                         ::testing::Range(0, 4));

// Work estimates scale with the work actually performed.
TEST(WorkEstimates, ScaleWithNnz) {
  IndexVar i("i"), j("j");
  fmt::Coo small = data::uniform_matrix(40, 40, 100, 8);
  fmt::Coo large = data::uniform_matrix(40, 40, 800, 9);
  auto measure = [&](fmt::Coo coo) {
    const Coord n = coo.dims[0];
    Tensor a("a", {n}, fmt::dense_vector());
    Tensor B("B", coo.dims, fmt::csr());
    Tensor c("c", {coo.dims[1]}, fmt::dense_vector());
    B.from_coo(std::move(coo));
    c.init_dense([](const auto&) { return 1.0; });
    Leaf leaf = make_spmv_row(a, B, c);
    a.zero();
    return leaf(PieceBounds{});
  };
  const rt::WorkEstimate ws = measure(std::move(small));
  const rt::WorkEstimate wl = measure(std::move(large));
  EXPECT_GT(wl.flops, 4 * ws.flops);
  EXPECT_GT(wl.bytes, 2 * ws.bytes);
}

}  // namespace
}  // namespace spdistal::kern
