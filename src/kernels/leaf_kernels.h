// Specialized leaf kernels for the six expressions of the paper's
// evaluation (§VI-A). Each maker captures the operand tensors and returns a
// leaf that evaluates one piece (row range or non-zero position range),
// accumulating into the (pre-zeroed) output and reporting measured work.
//
// All kernels are validated against the general co-iteration engine and the
// dense reference oracle in tests; the compiler selects them by pattern
// (kernel_select.h) and falls back to co-iteration otherwise.
//
// Leaves are executor-agnostic and must be safe to invoke concurrently for
// different pieces: captured tensors are read-only during a launch, shared
// precomputed state (the *_nz owner maps) is immutable after construction,
// work measurement is local to each invocation (see work.h), and output
// writes either target disjoint subsets or accumulate under a REDUCE
// privilege — which the runtime redirects into per-task scratch buffers
// folded deterministically in color order.
//
// Kernel ABI: regions are read and written through accessor objects
// (rt::RegionAccessor<T, DIM> / rt::LinearAccessor<T>) constructed at the
// top of each leaf invocation. The accessor resolves the reduction-redirect
// indirection (an atomic load + TLS walk) exactly once, so the inner loops
// are plain pointer arithmetic the compiler can vectorize; a redirected
// output accessor addresses the point's bounding-box scratch buffer
// transparently. Accessors must be constructed inside the leaf body (after
// the executor installed the task's redirects), never captured across
// invocations. Dense-row inner loops (the SpMM and SpMTTKRP leaves) take
// RegionAccessor<T, 2>::row(i, cols) once per row or fiber and index the
// returned pointer; no leaf indexes a Region per element.
#pragma once

#include <functional>

#include "kernels/coiter.h"
#include "tensor/tensor.h"

namespace spdistal::kern {

using Leaf = std::function<rt::WorkEstimate(const PieceBounds&)>;

// a(i) = B(i,j) * c(j), B = {Dense, Compressed}. Row range pieces: the
// rows are the piece's `dist_pos` when set (a position split at the Dense
// row level, whose positions are rows) and its `dist_coords` otherwise.
// With `col_var`, stored columns outside the piece's bound for that
// variable are skipped (the inner universe axis of a non-zero x universe
// grid).
Leaf make_spmv_row(Tensor a, Tensor B, Tensor c,
                   std::optional<uint32_t> col_var = std::nullopt);
// Same computation over stored position ranges of B's last level (fused
// i,j). B may be CSR or COO ({Compressed!u, Singleton}; rows read from the
// root crd). `col_var` as in make_spmv_row.
Leaf make_spmv_nz(Tensor a, Tensor B, Tensor c,
                  std::optional<uint32_t> col_var = std::nullopt);

// A(i,j) = B(i,k) * C(k,j), A/C dense matrices, B = {Dense, Compressed}.
// With `col_var`, the dense j loop clamps to the piece's bound for that
// variable (the axis-1 tile of a 2-D grid distribution).
Leaf make_spmm_row(Tensor A, Tensor B, Tensor C,
                   std::optional<uint32_t> col_var = std::nullopt);
// Non-zero variant (fused i,k over B): the load-balanced GPU schedule that
// replicates C (§VI-A2). `col_var` as in make_spmm_row.
Leaf make_spmm_nz(Tensor A, Tensor B, Tensor C,
                  std::optional<uint32_t> col_var = std::nullopt);

// A(i,j) = B(i,j) + C(i,j) + D(i,j), all {Dense, Compressed}; A assembled.
// Single-pass three-way union merge per row (the fused kernel whose absence
// costs PETSc/Trilinos 11.8x/38.5x in the paper).
Leaf make_spadd3_row(Tensor A, Tensor B, Tensor C, Tensor D);

// A(i,j) = B(i,j) * C(i,k) * D(k,j), B sparse, C/D dense, A assembled with
// B's pattern (positions align 1:1). With `col_var`, only B's stored columns
// inside the piece's bound for that variable are evaluated (axis-1 tile of
// a 2-D grid distribution).
Leaf make_sddmm_row(Tensor A, Tensor B, Tensor C, Tensor D,
                    std::optional<uint32_t> col_var = std::nullopt);
Leaf make_sddmm_nz(Tensor A, Tensor B, Tensor C, Tensor D,
                   std::optional<uint32_t> col_var = std::nullopt);

// A(i,j) = B(i,j,k) * c(k), B = {Dense, Compressed, Compressed} or
// {Dense, Dense, Compressed}; A = {Dense, Compressed} assembled.
Leaf make_spttv_row(Tensor A, Tensor B, Tensor c);
// Non-zero variant over B's innermost positions (fully fused i,j,k): the
// statically load-balanced GPU schedule of §VI-A2.
Leaf make_spttv_nz(Tensor A, Tensor B, Tensor c);

// A(i,l) = B(i,j,k) * C(j,l) * D(k,l), B as in SpTTV, A/C/D dense. Row
// range pieces; both leaves walk B fiber by fiber, streaming D's rows into
// A's row i with C's row j held for the fiber.
Leaf make_spmttkrp_row(Tensor A, Tensor B, Tensor C, Tensor D);
// Non-zero variant over B's innermost positions (fully fused i,j,k); a
// piece boundary may fall inside a fiber.
Leaf make_spmttkrp_nz(Tensor A, Tensor B, Tensor C, Tensor D);

// Owner maps for non-zero iteration: owners[l][q] = parent position of
// position q at level l (Dense levels use division, so their entry stays
// empty). Shared by the *_nz kernels.
std::shared_ptr<std::vector<std::vector<rt::Coord>>> build_owner_maps(
    const Tensor& B, int levels);

}  // namespace spdistal::kern
