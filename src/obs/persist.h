// Atomic whole-file rewrites (tmp + rename) for the benchmark JSON, so a
// reader of that file never observes a torn document: each reader sees some
// complete version.
#pragma once

#include <string>

namespace spdistal::obs {

// Writes `doc` to `path` via a sibling ".tmp" file and std::rename, so the
// destination is replaced atomically or not at all.
bool write_text_file_atomic(const std::string& path, const std::string& doc);

}  // namespace spdistal::obs
