// Leaf kernel selection: pattern-matches the statement against the
// specialized kernels (SpMV, SpMM, SpAdd3, SDDMM, SpTTV, SpMTTKRP — the
// kernels of the paper's evaluation) and falls back to the general
// co-iteration engine for everything else.
#pragma once

#include <functional>
#include <string>

#include "kernels/coiter.h"
#include "runtime/simulator.h"
#include "tensor/tensor.h"

namespace spdistal::comp {

struct SelectedLeaf {
  std::function<rt::WorkEstimate(const kern::PieceBounds&)> fn;
  std::string name;  // e.g. "spmv_row", "coiter"
};

// One maker per kernel family: the SpMM, SDDMM, SpTTV and SpMTTKRP leaves
// treat every piece as a window over B's last-level positions, so a row
// split and a non-zero split run the same leaf (leaf_kernels.h). Only SpMV
// keeps a separate non-zero leaf, whose branch-free per-position owner
// lookup measures faster than a windowed row walk. `position_space` names
// the launch `<family>_nz` instead of `<family>_row` and, for SpMV, picks
// that leaf. For position-space selection, `split_tensor`/`split_level`
// name the tensor and storage level whose positions the distributed loop
// iterates. The leaves assume the split sits at the tensor's *last* level;
// mid-tree splits (e.g. fusing only the first two modes of a CSF 3-tensor)
// select the general co-iteration engine instead, with a loop order that
// puts the split tensor's fused variables outermost.
//
// `dist_vars` names the distributed source variable per grid axis (empty or
// size 1 for a 1-D distribution). With a multi-axis grid, only kernels that
// can honor the inner axis's coordinate block are selected (SpMM / SDDMM
// with the output column variable on axis 1); everything else falls back to
// the co-iteration engine, which clamps every variable to its piece bound.
SelectedLeaf select_leaf(const Statement& stmt, bool position_space,
                         const std::string& split_tensor = "",
                         int split_level = -1,
                         const std::vector<tin::IndexVar>& dist_vars = {});

}  // namespace spdistal::comp
