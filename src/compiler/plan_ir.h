// Partition-plan IR.
//
// SpDISTAL's code generator (paper Figure 9a) emits partitioning code like
// Figure 9b: colorings, bounds entries, partition_by_bounds, image,
// preimage, copies, and finally a distributed loop. In this reproduction the
// generated program is recorded as a first-class operation trace: each level
// function (Table I) appends the operations it "generates" while the plan
// executes against the runtime. The trace is printable as Figure 9b-style
// pseudo-code and is what structural compiler tests assert on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace spdistal::comp {

enum class PlanOpKind {
  // Initial level partitioning (Table I, init/create/finalize groups).
  MakeUniverseColoring,     // coloring of coordinate bounds per color
  MakeNonZeroColoring,      // coloring of position bounds per color
  PartitionByBounds,        // direct partition of a dense space
  PartitionByValueRanges,   // bucket crd entries by coordinate value
  // Dependent partitioning (derived partitions).
  Image,                    // crd partition from pos partition
  Preimage,                 // pos partition from crd partition
  CopyPartition,            // re-parent an aligned partition (vals <- crd)
  ExpandDense,              // parent-position partition -> dense positions
  CollapseDense,            // dense positions -> parent-position partition
  // Execution.
  SetPlacement,             // install a data distribution
  DistributedFor,           // distributed loop over an index variable
  LeafKernel,               // per-point leaf computation
};

struct PlanOp {
  PlanOpKind kind;
  // Pretty-printed statement, e.g.
  //   "B2_crd_part = image(B2_pos_part, B[1].pos)".
  std::string text;
};

class PlanTrace {
 public:
  void append(PlanOpKind kind, std::string text) {
    ops_.push_back(PlanOp{kind, std::move(text)});
  }

  const std::vector<PlanOp>& ops() const { return ops_; }
  std::vector<PlanOpKind> kinds() const;
  // Number of ops of a given kind.
  int count(PlanOpKind kind) const;
  // Full pretty-printed plan.
  std::string str() const;

 private:
  std::vector<PlanOp> ops_;
};

}  // namespace spdistal::comp
