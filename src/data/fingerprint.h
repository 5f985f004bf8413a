// Sparsity fingerprints: the sparsity part of a plan-cache key
// (autosched/cache.h).
//
// The rest of a key (expression, formats, machine) decides whether a cached
// recipe is replayable at all; the sparsity part — dimensions, non-zero
// count, how mass and row degrees are distributed — decides which recipe is
// fastest. A SparsityFingerprint summarizes a packed tensor's non-zero
// structure into a fixed-size sketch (dimension sizes, nnz, a 16-bucket mass
// histogram over the top storage dimension, and a log2 row-degree
// histogram). Two patterns with the same sketch share a key, and so a plan.
//
// fmt::pack computes a storage's fingerprint in the walk that assembles its
// levels, one histogram update per run of equal top coordinates, and
// carries it on the TensorStorage. The key writes each fingerprint as its
// canonical string.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/index_space.h"

namespace spdistal::data {

struct SparsityFingerprint {
  static constexpr int kHistBuckets = 16;
  static constexpr int kDegreeBuckets = 12;

  // Logical dimension sizes (always present).
  std::vector<rt::Coord> dims;
  // True when the non-zero pattern was sketched (sparse, packed input);
  // false for structural-only fingerprints (dense tensors, outputs whose
  // pattern is derived from the inputs, unpacked operands).
  bool has_pattern = false;
  int64_t nnz = 0;
  // Non-zero mass over kHistBuckets equal slices of the top storage
  // dimension: separates banded from power-law from uniform without hashing
  // every coordinate. Mass counts the values TensorStorage::for_each
  // visits, so explicit zeros of a Dense level below a sparse one count.
  std::array<int64_t, kHistBuckets> hist{};
  // Row-degree sketch: bucket b counts top-dimension coordinates whose
  // stored degree d (values visited, as above) has floor(log2(d)) == b
  // (last bucket open-ended).
  std::array<int64_t, kDegreeBuckets> degree{};

  // Canonical exact encoding, e.g. "d[4096,4096];n163840;h[...];g[...]"
  // (structural-only fingerprints encode just "d[...]"). Contains no '|'.
  std::string str() const;
};

// Structural-only fingerprint: dimensions, no pattern.
SparsityFingerprint dense_fingerprint(const std::vector<rt::Coord>& dims);

// Canonical encoding of a per-tensor fingerprint sequence ('|'-joined).
std::string fingerprints_str(const std::vector<SparsityFingerprint>& fps);

}  // namespace spdistal::data
