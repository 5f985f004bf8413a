// Tensor I/O: MatrixMarket (.mtx) for matrices (the SuiteSparse interchange
// format) and FROSTT (.tns) for higher-order tensors.
#pragma once

#include <string>

#include "format/storage.h"

namespace spdistal::io {

// Reads a MatrixMarket coordinate file (general/symmetric, real/pattern/
// integer). Pattern entries get value 1.0; symmetric entries are mirrored.
// A size line that is not three integers (rows, cols >= 1, count >= 0), or
// an entry that is not two indices in [1, rows] x [1, cols] followed by one
// number (none for pattern) and nothing else, throws SpdError naming the
// file and line.
fmt::Coo read_matrix_market(const std::string& path);
void write_matrix_market(const std::string& path, const fmt::Coo& coo);

// FROSTT .tns: one line per non-zero, 1-based coordinates then the value.
// The first non-comment line may declare dimensions; otherwise they are
// inferred from the data. A token that is not a number (`nan`, `inf`), a
// line with more than rt::kMaxDim coordinates, or a coordinate that is not
// an integer in [1, 2^53] throws SpdError.
fmt::Coo read_tns(const std::string& path);
void write_tns(const std::string& path, const fmt::Coo& coo);

}  // namespace spdistal::io
