#include "data/fingerprint.h"

#include <sstream>

#include "common/str_util.h"

namespace spdistal::data {

using rt::Coord;

std::string SparsityFingerprint::str() const {
  std::ostringstream os;
  os << "d[" << join(dims, ",") << "]";
  if (has_pattern) {
    os << ";n" << nnz << ";h[" << join(hist, ",") << "];g["
       << join(degree, ",") << "]";
  }
  return os.str();
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

}  // namespace spdistal::data
