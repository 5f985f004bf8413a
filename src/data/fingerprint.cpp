#include "data/fingerprint.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <unordered_map>

#include "common/str_util.h"
#include "format/storage.h"

namespace spdistal::data {

using rt::Coord;

namespace {

// Parses "name[c0,c1,...]" at `pos`, advancing past the closing ']'.
template <typename Push>
bool parse_list(const std::string& s, size_t& pos, char name, Push push) {
  if (pos >= s.size() || s[pos] != name) return false;
  ++pos;
  if (pos >= s.size() || s[pos] != '[') return false;
  ++pos;
  if (pos < s.size() && s[pos] == ']') {  // empty list
    ++pos;
    return true;
  }
  while (pos < s.size()) {
    char* end = nullptr;
    const long long v = std::strtoll(s.c_str() + pos, &end, 10);
    if (end == s.c_str() + pos) return false;
    pos = static_cast<size_t>(end - s.c_str());
    if (!push(static_cast<int64_t>(v))) return false;
    if (pos < s.size() && s[pos] == ',') {
      ++pos;
      continue;
    }
    if (pos < s.size() && s[pos] == ']') {
      ++pos;
      return true;
    }
    return false;
  }
  return false;
}

}  // namespace

std::string SparsityFingerprint::str() const {
  std::ostringstream os;
  os << "d[" << join(dims, ",") << "]";
  if (has_pattern) {
    os << ";n" << nnz << ";h[" << join(hist, ",") << "];g["
       << join(degree, ",") << "]";
  }
  return os.str();
}

std::optional<SparsityFingerprint> SparsityFingerprint::parse(
    const std::string& s) {
  SparsityFingerprint fp;
  size_t pos = 0;
  if (!parse_list(s, pos, 'd', [&](int64_t v) {
        fp.dims.push_back(static_cast<Coord>(v));
        return true;
      })) {
    return std::nullopt;
  }
  if (pos == s.size()) return fp;  // structural-only
  if (s[pos] != ';') return std::nullopt;
  ++pos;
  if (pos >= s.size() || s[pos] != 'n') return std::nullopt;
  ++pos;
  char* end = nullptr;
  fp.nnz = std::strtoll(s.c_str() + pos, &end, 10);
  if (end == s.c_str() + pos) return std::nullopt;
  pos = static_cast<size_t>(end - s.c_str());
  if (pos >= s.size() || s[pos] != ';') return std::nullopt;
  ++pos;
  size_t hi = 0;
  if (!parse_list(s, pos, 'h', [&](int64_t v) {
        if (hi >= fp.hist.size()) return false;
        fp.hist[hi++] = v;
        return true;
      }) ||
      hi != fp.hist.size()) {
    return std::nullopt;
  }
  if (pos >= s.size() || s[pos] != ';') return std::nullopt;
  ++pos;
  size_t gi = 0;
  if (!parse_list(s, pos, 'g', [&](int64_t v) {
        if (gi >= fp.degree.size()) return false;
        fp.degree[gi++] = v;
        return true;
      }) ||
      gi != fp.degree.size() || pos != s.size()) {
    return std::nullopt;
  }
  fp.has_pattern = true;
  return fp;
}

SparsityFingerprint fingerprint(const fmt::TensorStorage& st) {
  SparsityFingerprint fp;
  fp.dims = st.dims();
  if (st.format().all_dense()) return fp;
  fp.has_pattern = true;
  fp.nnz = st.nnz();
  const int top_dim = st.format().dim_of_level(0);
  const Coord extent =
      std::max<Coord>(st.dims()[static_cast<size_t>(top_dim)], 1);
  std::unordered_map<Coord, int64_t> row_degree;
  st.for_each([&](const std::array<Coord, rt::kMaxDim>& c, double) {
    const Coord top = c[static_cast<size_t>(top_dim)];
    const size_t b = static_cast<size_t>(
        top * SparsityFingerprint::kHistBuckets / extent);
    fp.hist[std::min<size_t>(b, SparsityFingerprint::kHistBuckets - 1)]++;
    row_degree[top]++;
  });
  for (const auto& [row, deg] : row_degree) {
    (void)row;
    int b = 0;
    while ((int64_t{1} << (b + 1)) <= deg &&
           b + 1 < SparsityFingerprint::kDegreeBuckets) {
      ++b;
    }
    fp.degree[static_cast<size_t>(b)]++;
  }
  return fp;
}

SparsityFingerprint dense_fingerprint(const std::vector<Coord>& dims) {
  SparsityFingerprint fp;
  fp.dims = dims;
  return fp;
}

std::string fingerprints_str(const std::vector<SparsityFingerprint>& fps) {
  std::ostringstream os;
  for (size_t i = 0; i < fps.size(); ++i) {
    if (i > 0) os << "|";
    os << fps[i].str();
  }
  return os.str();
}

std::optional<std::vector<SparsityFingerprint>> parse_fingerprints(
    const std::string& s) {
  std::vector<SparsityFingerprint> fps;
  if (s.empty()) return fps;
  size_t begin = 0;
  while (true) {
    const size_t sep = s.find('|', begin);
    const std::string part = sep == std::string::npos
                                 ? s.substr(begin)
                                 : s.substr(begin, sep - begin);
    auto fp = SparsityFingerprint::parse(part);
    if (!fp) return std::nullopt;
    fps.push_back(std::move(*fp));
    if (sep == std::string::npos) break;
    begin = sep + 1;
  }
  return fps;
}

}  // namespace spdistal::data
