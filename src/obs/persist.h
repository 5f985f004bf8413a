// Persistence primitives for process-lifetime files (the autosched plan
// store, the benchmark JSON): whole-file reads and atomic tmp+rename
// rewrites, so concurrent writers to one shared file never observe a torn
// document — each reader sees some complete version.
#pragma once

#include <string>

namespace spdistal::obs {

// Reads the whole file into *out. Returns false (out untouched) if the file
// cannot be opened.
bool read_text_file(const std::string& path, std::string* out);

// Writes `doc` to `path` via a sibling ".tmp" file and std::rename, so the
// destination is replaced atomically or not at all.
bool write_text_file_atomic(const std::string& path, const std::string& doc);

}  // namespace spdistal::obs
