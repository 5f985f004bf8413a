#include "obs/persist.h"

#include <cstdio>

namespace spdistal::obs {

bool write_text_file_atomic(const std::string& path, const std::string& doc) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  if (std::fclose(f) != 0 || !ok) return false;
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace spdistal::obs
