// Specialized leaf kernels for the six expressions of the paper's
// evaluation (§VI-A). Each maker captures the operand tensors and returns a
// leaf that evaluates one piece, accumulating into the (pre-zeroed) output
// and reporting measured work.
//
// One leaf per kernel family: a piece is a window over B's last-level
// positions (see Window below). A row piece takes its rows' whole segments;
// a non-zero piece binary-searches `pos` for the rows and fibers that store
// its first and last position and clamps the two edge segments, so both
// piece kinds run the same row-walk inner loops. Only the work each leaf
// charges depends on the kind, because it models the schedule's generated
// code: a row loop reads one pos segment per row, a non-zero loop does not.
// SpMV keeps two leaves. Its non-zero leaf looks up each position's owner
// row without a branch. At the leaf it is not the faster one: a windowed
// row walk took 85 us against BM_SpmvNz's 115 us (4-core host, Release).
// It stays because that walk read e2ebench spmv_nz_fetch iter_rel higher
// in 6 of 6 alternating pairs, for a reason not yet found.
//
// All kernels are validated against the general co-iteration engine and the
// dense reference oracle in tests; the compiler selects them by pattern
// (kernel_select.h) and falls back to co-iteration otherwise.
//
// Leaves are executor-agnostic and must be safe to invoke concurrently for
// different pieces: captured tensors are read-only during a launch, shared
// precomputed state (spmv_nz's owner map) is immutable after construction,
// work measurement is local to each invocation (see work.h), and output
// writes either target disjoint subsets or accumulate under a REDUCE
// privilege — which the runtime redirects into per-task scratch buffers
// folded deterministically in color order.
//
// Kernel ABI: regions are read and written through rt::RegionAccessor
// objects constructed at the top of each leaf invocation. The accessor
// resolves the reduction-redirect indirection (an atomic load + TLS walk)
// exactly once; a redirected output accessor addresses the point's
// bounding-box scratch buffer transparently. Every leaf body is written
// once over a touch-recording tag and compiled twice (make_leaf): verify-
// mode point tasks run it with recording accessors, which test a touch sink
// on every element access, and every other invocation runs it with plain
// accessors, so its inner loops are plain pointer arithmetic the compiler
// can keep in registers and vectorize. Accessors must be constructed inside
// the leaf body (after the executor installed the task's redirects), never
// captured across invocations. Dense-row inner loops (the SpMM and SpMTTKRP
// leaves) take RegionAccessor<T, 2>::row(i, cols) once per row or fiber and
// index the returned pointer; no leaf indexes a Region per element.
#pragma once

#include <algorithm>
#include <functional>
#include <type_traits>

#include "kernels/coiter.h"
#include "tensor/tensor.h"

namespace spdistal::kern {

using Leaf = std::function<rt::WorkEstimate(const PieceBounds&)>;

// The leaf that runs `body(piece, rec)` on each piece it is handed, `rec`
// being std::true_type on a thread that records touches and std::false_type
// otherwise (rt::with_touch_recording). The body declares its accessors as
// rt::RegionAccessor<T, DIM, rec>, so it compiles once with recording
// accessors and once with plain ones.
template <typename Body>
Leaf make_leaf(Body body) {
  return [body](const PieceBounds& piece) mutable {
    return rt::with_touch_recording(
        [&](auto rec) -> rt::WorkEstimate { return body(piece, rec); });
  };
}

// Marks a leaf body (the lambda handed to make_leaf, after `mutable`): with
// GCC each of its two instantiations stays one function of its own, neither
// inlined into the leaf's std::function invoker nor cloned, so where it
// lands does not hang on inlining and bench/layout_offsets.py can find and
// check it. Clang takes GNU attributes only before `mutable`, where GCC
// rejects them, so it gets none.
#if defined(__GNUC__) && !defined(__clang__)
#define SPD_LEAF_BODY __attribute__((noipa))
#else
#define SPD_LEAF_BODY
#endif

// The first of `pos`'s `n` parents whose segment ends at or after child
// position `q`: the parent storing q. Pack writes an empty segment as
// {q, q - 1}, q being where the next stored child goes, so segment ends
// never decrease and an empty parent is never returned for a stored q.
template <bool kRecord>
rt::Coord owner_of(const rt::RegionAccessor<rt::PosRange, 1, kRecord>& pos,
                   rt::Coord n, rt::Coord q);

// What one piece covers of a {Dense, Compressed} matrix or a
// {Dense, Compressed|Dense, Compressed} 3-tensor B. A row piece takes its
// rows (`dist_coords`, or all, clamped to B's rows) with their whole
// segments: `fibers` and `pos` span every position. A non-zero piece covers
// its `dist_pos` window of the last level, clamped to the positions that
// level stores; its fibers (level-1 positions of a 3-tensor) and rows run
// from the one storing the window's first position to the one storing its
// last, and clamp() trims the two edge segments to the window. `rec` picks
// the accessors the constructor reads pos through, as in make_leaf.
struct Window {
  bool nz = false;
  rt::Rect1 rows;
  rt::Rect1 fibers;
  rt::Rect1 pos;

  template <bool kRecord>
  Window(const PieceBounds& piece, const fmt::TensorStorage& B,
         std::bool_constant<kRecord> rec);

  // The part of `seg` inside `to`.
  static rt::Rect1 clamp(rt::PosRange seg, rt::Rect1 to) {
    return rt::Rect1{std::max(seg.lo, to.lo), std::min(seg.hi, to.hi)};
  }
};

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
// Row pieces are the Senanayake et al. schedule; non-zero pieces (fused i,k)
// the load-balanced GPU schedule that replicates C (§VI-A2). With
// `col_var`, the dense j loop clamps to the piece's bound for that variable
// (the axis-1 tile of a 2-D grid distribution).
Leaf make_spmm(Tensor A, Tensor B, Tensor C,
               std::optional<uint32_t> col_var = std::nullopt);

// A(i,j) = B(i,j) + C(i,j) + D(i,j), all {Dense, Compressed}; A assembled.
// Single-pass three-way union merge per row (the fused kernel whose absence
// costs PETSc/Trilinos 11.8x/38.5x in the paper).
Leaf make_spadd3_row(Tensor A, Tensor B, Tensor C, Tensor D);

// A(i,j) = B(i,j) * C(i,k) * D(k,j), B sparse, C/D dense, A assembled with
// B's pattern (positions align 1:1). With `col_var`, only B's stored columns
// inside the piece's bound for that variable are evaluated (axis-1 tile of
// a 2-D grid distribution).
Leaf make_sddmm(Tensor A, Tensor B, Tensor C, Tensor D,
                std::optional<uint32_t> col_var = std::nullopt);

// A(i,j) = B(i,j,k) * c(k), B = {Dense, Compressed, Compressed} or
// {Dense, Dense, Compressed}; A = {Dense, Compressed} assembled. Non-zero
// pieces (fully fused i,j,k) are the statically load-balanced GPU schedule
// of §VI-A2.
Leaf make_spttv(Tensor A, Tensor B, Tensor c);

// A(i,l) = B(i,j,k) * C(j,l) * D(k,l), B as in SpTTV, A/C/D dense. The leaf
// walks B fiber by fiber, streaming D's rows into A's row i with C's row j
// held for the fiber; a non-zero piece's boundary may fall inside a fiber.
Leaf make_spmttkrp(Tensor A, Tensor B, Tensor C, Tensor D);

}  // namespace spdistal::kern
