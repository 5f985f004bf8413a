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

// Writes `text` to a temporary file `name` and reads it back with `read`.
template <typename Read>
Coo read_text(const std::string& name, const std::string& text, Read read) {
  const std::string path = temp_path(name);
  {
    std::ofstream out(path);
    out << text;
  }
  struct Remove {
    std::string path;
    ~Remove() { std::remove(path.c_str()); }
  } remove{path};
  return read(path);
}

// One file per test: ctest runs the tests of this binary in parallel.
std::string mtx_name() {
  return std::string("spd_test_") +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".mtx";
}

Coo read_mtx_text(const std::string& text) {
  return read_text(mtx_name(), text, read_matrix_market);
}

// Expects reading `text` to throw SpdError naming the file and `line`.
void expect_rejected_at(const std::string& text, int line) {
  try {
    read_mtx_text(text);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const SpdError& e) {
    const std::string where = mtx_name() + ":" + std::to_string(line);
    EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
        << e.what();
  }
}

TEST(MatrixMarket, RejectsMalformedEntries) {
  // Each bad entry follows a good one, so skipping it would not throw.
  const std::string real =
      "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.5\n";
  for (const char* entry :
       {"1 2\n", "1 2 abc\n", "1 2 nan\n", "1.5 2 3\n", "x 2 3\n", "\n"}) {
    expect_rejected_at(real + entry, 4);
  }
  // A pattern entry has two indices and nothing else.
  const std::string pattern =
      "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 1\n";
  expect_rejected_at(pattern + "1\n", 4);
  const Coo coo = read_mtx_text(pattern + "3 2\n");
  EXPECT_EQ(coo.coords[1][0], 2);
  EXPECT_EQ(coo.coords[1][1], 1);
}

TEST(MatrixMarket, RejectsIndicesOutsideTheSizeLine) {
  const std::string real =
      "%%MatrixMarket matrix coordinate real general\n% comment\n3 3 2\n"
      "3 3 1.5\n";
  for (const char* entry : {"0 1 5\n", "1 0 5\n", "4 1 5\n", "1 4 5\n",
                            "-1 1 5\n"}) {
    expect_rejected_at(real + entry, 5);
  }
}

TEST(MatrixMarket, RejectsTrailingTokens) {
  const std::string header =
      "%%MatrixMarket matrix coordinate real general\n3 3 1\n";
  expect_rejected_at(header + "1 2 5 7\n", 3);
  expect_rejected_at(header + "1 2 5 %\n", 3);
  // Trailing whitespace is not a token.
  EXPECT_EQ(read_mtx_text(header + "1 2 5 \r\n").vals[0], 5.0);
}

TEST(MatrixMarket, RejectsBadSizeLines) {
  const std::string header = "%%MatrixMarket matrix coordinate real general\n";
  for (const char* sizes : {"3 3 -1\n", "0 3 1\n", "3 3\n", "3 3 1 1\n",
                            "3 x 1\n"}) {
    expect_rejected_at(header + sizes, 2);
  }
  EXPECT_EQ(read_mtx_text(header + "3 3 0\n").nnz(), 0);
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

Coo read_tns_text(const std::string& name, const std::string& text) {
  return read_text(name, text, read_tns);
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
