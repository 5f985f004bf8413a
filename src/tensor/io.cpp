#include "tensor/io.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/str_util.h"

namespace spdistal::io {

using fmt::Coo;
using rt::Coord;

namespace {
constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53
}  // namespace

Coo read_matrix_market(const std::string& path) {
  std::ifstream in(path);
  SPD_CHECK(in.good(), SpdError, "cannot open " << path);
  std::string line;
  SPD_CHECK(static_cast<bool>(std::getline(in, line)), SpdError,
            "empty MatrixMarket file " << path);
  SPD_CHECK(starts_with(line, "%%MatrixMarket"), SpdError,
            "missing MatrixMarket header in " << path);
  std::istringstream hdr(line);
  std::string tag, object, fmt_kind, field, symmetry;
  hdr >> tag >> object >> fmt_kind >> field >> symmetry;
  SPD_CHECK(fmt_kind == "coordinate", SpdError,
            "only coordinate MatrixMarket files are supported: " << path);
  const bool pattern = field == "pattern";
  const bool symmetric = symmetry == "symmetric" || symmetry == "skew-symmetric";
  const double skew = symmetry == "skew-symmetric" ? -1.0 : 1.0;

  int64_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream sizes(line);
  Coord rows = 0, cols = 0;
  int64_t entries = 0;
  std::string rest;
  SPD_CHECK((sizes >> rows >> cols >> entries) && !(sizes >> rest) &&
                rows > 0 && cols > 0 && entries >= 0,
            SpdError, path << ":" << line_no << ": bad size line '" << line
                           << "'");

  // Each entry is two indices in [1, rows] x [1, cols], then one value
  // unless the field is pattern, and nothing after.
  Coo coo;
  coo.dims = {rows, cols};
  for (int64_t e = 0; e < entries; ++e) {
    SPD_CHECK(static_cast<bool>(std::getline(in, line)), SpdError,
              "truncated MatrixMarket file " << path);
    ++line_no;
    std::istringstream ls(line);
    Coord i = 0, j = 0;
    double v = 1.0;
    SPD_CHECK((ls >> i >> j) && (pattern || (ls >> v)) && !(ls >> rest) &&
                  i >= 1 && i <= rows && j >= 1 && j <= cols,
              SpdError,
              path << ":" << line_no << ": bad entry '" << line
                   << "': expected two indices in [1, " << rows
                   << "] x [1, " << cols << "]"
                   << (pattern ? "" : " and a value"));
    coo.push({i - 1, j - 1}, v);
    if (symmetric && i != j) coo.push({j - 1, i - 1}, skew * v);
  }
  return coo;
}

void write_matrix_market(const std::string& path, const Coo& coo) {
  SPD_CHECK(coo.order() == 2, SpdError, "write_matrix_market needs a matrix");
  std::ofstream out(path);
  SPD_CHECK(out.good(), SpdError, "cannot write " << path);
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << coo.dims[0] << " " << coo.dims[1] << " " << coo.nnz() << "\n";
  for (int64_t e = 0; e < coo.nnz(); ++e) {
    out << coo.coords[static_cast<size_t>(e)][0] + 1 << " "
        << coo.coords[static_cast<size_t>(e)][1] + 1 << " "
        << coo.vals[static_cast<size_t>(e)] << "\n";
  }
}

Coo read_tns(const std::string& path) {
  std::ifstream in(path);
  SPD_CHECK(in.good(), SpdError, "cannot open " << path);
  Coo coo;
  std::string line;
  int order = -1;
  std::vector<Coord> max_coord;
  while (std::getline(in, line)) {
    line = trim(line);
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    std::vector<double> nums;
    double x;
    while (ls >> x) nums.push_back(x);
    SPD_CHECK(ls.eof(), SpdError, "malformed line in " << path << ": " << line);
    if (nums.size() < 2) continue;
    if (order < 0) order = static_cast<int>(nums.size()) - 1;
    SPD_CHECK(static_cast<int>(nums.size()) == order + 1, SpdError,
              "inconsistent arity in " << path);
    SPD_CHECK(order <= rt::kMaxDim, SpdError,
              path << " has " << order << " modes; at most " << rt::kMaxDim
                   << " are supported");
    std::array<Coord, rt::kMaxDim> c{};
    for (int d = 0; d < order; ++d) {
      // 1-based integers a double holds exactly: anything else (1.5, 0,
      // 1e300) would be a wrong or undefined cast to Coord.
      const double v = nums[static_cast<size_t>(d)];
      SPD_CHECK(v >= 1 && v <= kMaxExactInteger && std::floor(v) == v,
                SpdError,
                "coordinate " << v << " in " << path
                              << " is not an integer in [1, 2^53]");
      c[static_cast<size_t>(d)] = static_cast<Coord>(v) - 1;
    }
    if (max_coord.empty()) max_coord.assign(static_cast<size_t>(order), 0);
    for (int d = 0; d < order; ++d) {
      max_coord[static_cast<size_t>(d)] =
          std::max(max_coord[static_cast<size_t>(d)], c[static_cast<size_t>(d)]);
    }
    coo.coords.push_back(c);
    coo.vals.push_back(nums.back());
  }
  SPD_CHECK(order > 0, SpdError, "no entries in " << path);
  coo.dims.assign(max_coord.begin(), max_coord.end());
  for (auto& d : coo.dims) d += 1;
  return coo;
}

void write_tns(const std::string& path, const Coo& coo) {
  std::ofstream out(path);
  SPD_CHECK(out.good(), SpdError, "cannot write " << path);
  for (int64_t e = 0; e < coo.nnz(); ++e) {
    for (int d = 0; d < coo.order(); ++d) {
      out << coo.coords[static_cast<size_t>(e)][static_cast<size_t>(d)] + 1
          << " ";
    }
    out << coo.vals[static_cast<size_t>(e)] << "\n";
  }
}

}  // namespace spdistal::io
