// Round-trip tests for MatrixMarket and FROSTT I/O.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "tensor/io.h"

namespace spdistal::io {
namespace {

using fmt::Coo;
using rt::Coord;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(MatrixMarket, RoundTrip) {
  Coo coo;
  coo.dims = {5, 7};
  coo.push({0, 0}, 1.5);
  coo.push({4, 6}, -2.25);
  coo.push({2, 3}, 3.0);
  const std::string path = temp_path("spd_test_rt.mtx");
  write_matrix_market(path, coo);
  Coo back = read_matrix_market(path);
  EXPECT_EQ(back.dims, coo.dims);
  back.sort_and_combine({0, 1});
  Coo sorted = coo;
  sorted.sort_and_combine({0, 1});
  ASSERT_EQ(back.nnz(), sorted.nnz());
  for (int64_t i = 0; i < back.nnz(); ++i) {
    EXPECT_EQ(back.coords[static_cast<size_t>(i)],
              sorted.coords[static_cast<size_t>(i)]);
    EXPECT_DOUBLE_EQ(back.vals[static_cast<size_t>(i)],
                     sorted.vals[static_cast<size_t>(i)]);
  }
  std::remove(path.c_str());
}

TEST(MatrixMarket, SymmetricAndPattern) {
  const std::string path = temp_path("spd_test_sym.mtx");
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate pattern symmetric\n";
    out << "% comment line\n";
    out << "3 3 2\n";
    out << "2 1\n";
    out << "3 3\n";
  }
  Coo coo = read_matrix_market(path);
  // (1,0) mirrored to (0,1); diagonal (2,2) not duplicated.
  EXPECT_EQ(coo.nnz(), 3);
  for (double v : coo.vals) EXPECT_DOUBLE_EQ(v, 1.0);
  std::remove(path.c_str());
}

TEST(MatrixMarket, RejectsMissingHeader) {
  const std::string path = temp_path("spd_test_bad.mtx");
  {
    std::ofstream out(path);
    out << "3 3 1\n1 1 5\n";
  }
  EXPECT_THROW(read_matrix_market(path), SpdError);
  std::remove(path.c_str());
}

TEST(Tns, RoundTrip3Tensor) {
  Coo coo;
  coo.dims = {4, 5, 6};
  coo.push({0, 0, 0}, 1.0);
  coo.push({3, 4, 5}, 2.5);
  coo.push({1, 2, 3}, -0.5);
  const std::string path = temp_path("spd_test_rt.tns");
  write_tns(path, coo);
  Coo back = read_tns(path);
  EXPECT_EQ(back.dims, coo.dims);  // inferred from max coords
  EXPECT_EQ(back.nnz(), 3);
  std::remove(path.c_str());
}

TEST(Tns, SkipsComments) {
  const std::string path = temp_path("spd_test_comments.tns");
  {
    std::ofstream out(path);
    out << "# FROSTT-style comment\n";
    out << "1 1 2.5\n";
    out << "2 2 -1\n";
  }
  Coo coo = read_tns(path);
  EXPECT_EQ(coo.order(), 2);
  EXPECT_EQ(coo.nnz(), 2);
  EXPECT_DOUBLE_EQ(coo.vals[0], 2.5);
  std::remove(path.c_str());
}

// Writes `text` to a temporary .tns file and reads it back.
Coo read_tns_text(const std::string& name, const std::string& text) {
  const std::string path = temp_path(name);
  {
    std::ofstream out(path);
    out << text;
  }
  struct Remove {
    std::string path;
    ~Remove() { std::remove(path.c_str()); }
  } remove{path};
  return read_tns(path);
}

TEST(Tns, RejectsMoreModesThanMaxDim) {
  // Six coordinates and a value: more modes than a coordinate array holds.
  EXPECT_THROW(read_tns_text("spd_test_6modes.tns", "1 2 3 4 5 6 1.5\n"),
               SpdError);
  // kMaxDim modes still read.
  const Coo coo = read_tns_text("spd_test_4modes.tns", "1 2 3 4 1.5\n");
  EXPECT_EQ(coo.order(), rt::kMaxDim);
  EXPECT_EQ(coo.coords[0][3], 3);
}

TEST(Tns, RejectsNonIntegralCoordinates) {
  // Each bad line follows a good one, so skipping it would not throw.
  for (const char* line : {"1.5 2 3.0\n", "nan 1 2\n", "1 inf 2\n",
                           "0 1 2\n", "-3 1 2\n", "1e300 1 2\n"}) {
    EXPECT_THROW(read_tns_text("spd_test_badcoord.tns",
                               std::string("1 1 1.0\n") + line),
                 SpdError)
        << line;
  }
  // Integral coordinates written with a fraction or exponent are fine.
  const Coo coo = read_tns_text("spd_test_intcoord.tns", "2.0 1e1 -0.5\n");
  EXPECT_EQ(coo.coords[0][0], 1);
  EXPECT_EQ(coo.coords[0][1], 9);
  EXPECT_EQ(coo.vals[0], -0.5);
}

}  // namespace
}  // namespace spdistal::io
