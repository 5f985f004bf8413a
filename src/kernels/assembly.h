// Two-phase sparse output assembly (paper §V-B, Chou et al.).
//
// When the output tensor is sparse, SpDISTAL first executes the computation
// symbolically to discover which output coordinates can be non-zero, builds
// the output's pos/crd structure from that pattern, and only then runs the
// numeric kernel, which scatters values into the assembled pattern without
// further synchronization.
//
// Pattern rules implemented (covering the paper's kernels and the statement
// classes the co-iteration engine accepts):
//   * a term with a single sparse access whose variables cover the output's:
//     the projection of that access's stored coordinates (SpTTV, SDDMM);
//   * a term whose sparse accesses all use identical variable lists:
//     the intersection of their patterns (element-wise products);
//   * across terms: the union of term patterns (SpAdd3).
// Projected coordinates go into one coordinate list, duplicates and all, and
// fmt::pack orders and combines them while it builds the output's levels; a
// product's operands are each ordered and deduplicated first
// (Coo::sort_and_combine) so their patterns intersect as sorted lists.
// Statements that preserve the input pattern exactly (single sparse input,
// same variables, e.g. SpTTV) are detected so callers can skip re-assembly,
// matching the paper's metadata-copying fast path.
#pragma once

#include "tensor/tensor.h"

namespace spdistal::kern {

struct AssemblyResult {
  // Work performed by the symbolic phase (charged once at instantiation).
  rt::WorkEstimate symbolic_work;
  // True if the output pattern is a verbatim copy of one input's pattern
  // (the paper's §V-B "copy the coordinate metadata" case).
  bool pattern_preserved = false;
  int64_t output_nnz = 0;
};

// True if the statement's output is sparse (requires assembly before
// numeric execution).
bool needs_assembly(const Statement& stmt);

// Runs the symbolic phase and installs assembled (zero-valued) storage into
// the output tensor. No-op for dense outputs.
AssemblyResult assemble_output(Statement& stmt);

}  // namespace spdistal::kern
