// Sparsity fingerprints: the sparsity half of a plan-cache key.
//
// The structural half of a key (expression, formats, machine) decides
// whether a cached recipe is replayable at all; the *sparsity* half —
// dimensions, non-zero count, how mass and row degrees are distributed —
// decides which recipe is fastest. A SparsityFingerprint summarizes a packed
// tensor's non-zero structure into a fixed-size sketch (dimension sizes,
// nnz, a 16-bucket mass histogram over the top storage dimension, and a log2
// row-degree histogram).
//
// Fingerprints are computed once at pack time (fmt::pack) and carried on the
// TensorStorage; they round-trip through a canonical string, which is how
// plan-store entries key them across processes (and how a stored entry's
// key is validated on load).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/index_space.h"

namespace spdistal::fmt {
class TensorStorage;
}

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
  // every coordinate.
  std::array<int64_t, kHistBuckets> hist{};
  // Row-degree sketch: bucket b counts top-dimension coordinates whose
  // stored degree d has floor(log2(d)) == b (last bucket open-ended).
  std::array<int64_t, kDegreeBuckets> degree{};

  // Canonical exact encoding, e.g. "d[4096,4096];n163840;h[...];g[...]"
  // (structural-only fingerprints encode just "d[...]"). Contains no '|',
  // '=', '"' or control characters, so it can be embedded in cache keys and
  // JSON values verbatim.
  std::string str() const;
  static std::optional<SparsityFingerprint> parse(const std::string& s);

  bool operator==(const SparsityFingerprint&) const = default;
};

// O(nnz) sketch of a packed storage. All-dense storages (whose "pattern" is
// the whole box) get a structural-only fingerprint.
SparsityFingerprint fingerprint(const fmt::TensorStorage& st);

// Structural-only fingerprint: dimensions, no pattern.
SparsityFingerprint dense_fingerprint(const std::vector<rt::Coord>& dims);

// Canonical encoding of a per-tensor fingerprint sequence ('|'-joined) and
// its inverse; parse returns nullopt on any malformed element.
std::string fingerprints_str(const std::vector<SparsityFingerprint>& fps);
std::optional<std::vector<SparsityFingerprint>> parse_fingerprints(
    const std::string& s);

}  // namespace spdistal::data
