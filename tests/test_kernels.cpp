// Specialized leaf kernels vs. the dense reference oracle and the general
// co-iteration engine, on realistic synthetic structures.
#include <gtest/gtest.h>

#include "data/generators.h"
#include "kernels/assembly.h"
#include "kernels/leaf_kernels.h"
#include "tensor/dense_ref.h"

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
      row_work.push_back(leaf(p));
    }
    EXPECT_LE(ref::max_abs_diff(a, expect), 1e-12) << mc.name << " row";
    row_out = a.storage().vals()->data();
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
      work.push_back(leaf(p));
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
    leaf(p1);
    if (!p2.dist_pos->empty()) leaf(p2);
    EXPECT_LE(ref::max_abs_diff(a, expect), 1e-12) << mc.name << " nz";
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
  Leaf leaf = make_spmm_row(A, B, C);
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
  leaf(PieceBounds{});
  EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-12) << mc.name;
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
    Leaf leaf = make_sddmm_row(A, B, C, D);
    A.zero();
    leaf(PieceBounds{});
    EXPECT_LE(ref::max_abs_diff(A, expect), 1e-10) << mc.name << " row";
  }
  {
    Leaf leaf = make_sddmm_nz(A, B, C, D);
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
  Leaf leaf = make_spttv_row(A, B, c);
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

// The work both SpMTTKRP leaves charge: 4L flops and 16L+12 bytes per
// stored non-zero, plus 16 bytes per pos segment the row leaf reads.
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

  // Both leaves add a row's non-zeros in position order, one element at a
  // time, as A(i,l) += v * C(j,l) * D(k,l): replaying that order over the
  // stored entries reproduces their output bit for bit.
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
    // Two row pieces. Per piece, the row leaf reads one level-2 segment per
    // fiber (empty ones included) and, over a Compressed middle level, one
    // level-1 segment per row.
    Leaf leaf = make_spmttkrp_row(A, B, C, D);
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
    const auto owners = build_owner_maps(B, 3);
    const std::vector<Coord>& fiber_of = (*owners)[2];
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
    Leaf leaf = make_spmttkrp_nz(A, B, C, D);
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
