// Deterministic synthetic tensor generators.
//
// Each generator mirrors the *structural class* of a Table II tensor —
// row-degree distribution, mode-length asymmetry, band structure — because
// those structures are what drive the paper's load-balance, communication,
// and memory phenomena. All generators are seeded and reproducible.
#pragma once

#include <cstdint>

#include "format/storage.h"

namespace spdistal::data {

using rt::Coord;

// Banded matrix (nlpkkt-like PDE structure; also the Figure 13 weak-scaling
// workload): `band` non-zeros centered on the diagonal of each row.
fmt::Coo banded_matrix(Coord n, int band, uint64_t seed);

// Uniform random matrix: nnz entries placed uniformly (mycielskian-like
// dense-ish synthetic structure when nnz/n is large).
fmt::Coo uniform_matrix(Coord n, Coord m, int64_t nnz, uint64_t seed);

// Power-law matrix (web crawl / social network): row degrees follow a Zipf
// law with exponent `skew`, columns drawn with preferential attachment.
// Produces the heavy row-length imbalance that separates universe and
// non-zero partitions.
fmt::Coo powerlaw_matrix(Coord n, Coord m, int64_t nnz, double skew,
                         uint64_t seed);

// Near-regular matrix (kmer-like protein graphs): every row has degree in
// [1, max_degree] (uniform), very large dimension relative to nnz.
fmt::Coo regular_matrix(Coord n, int max_degree, uint64_t seed);

// Uniform random 3-tensor (nell-2-like NLP tensors).
fmt::Coo uniform_3tensor(Coord d0, Coord d1, Coord d2, int64_t nnz,
                         uint64_t seed);

// Power-law 3-tensor (freebase-like knowledge-graph tensors): skewed slice
// sizes in the first mode.
fmt::Coo powerlaw_3tensor(Coord d0, Coord d1, Coord d2, int64_t nnz,
                          double skew, uint64_t seed);

// Patents-like 3-tensor: small, *dense* leading modes with a compressed
// inner mode (the structure that motivates the {Dense, Dense, Compressed}
// format in the paper's methodology).
fmt::Coo patents_like_3tensor(Coord d0, Coord d1, Coord d2, double fill,
                              uint64_t seed);

// Shifts coordinates of the last dimension by `shift` (mod extent): the
// Henry & Hsu et al. construction the paper uses to derive additional
// sparse inputs for multi-sparse-operand expressions (SpAdd3).
fmt::Coo shift_last_dim(const fmt::Coo& coo, Coord shift);

// Deterministic downsample to ~target_nnz non-zeros by evenly strided picks
// (phase rotated by `seed`), preserving the structural class — the proxy
// tensors the auto-scheduler prices candidate schedules on. Returns the
// input unchanged when it is already small enough.
fmt::Coo sample_coo(const fmt::Coo& coo, int64_t target_nnz, uint64_t seed);

}  // namespace spdistal::data
