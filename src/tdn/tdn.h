// Tensor distribution notation (paper §II-B "Data Distribution" and §V-C).
//
// A TDN statement names each tensor dimension and each machine dimension;
// shared names partition the tensor dimension across the machine dimension.
// SpDISTAL's extensions over DISTAL:
//   * non-zero partitions: ~x splits the stored non-zeros of x equally;
//   * coordinate fusion: fuse({x,y} -> f) collapses dimensions so that ~f
//     equally splits the non-zeros of the flattened prefix (Figure 5c).
// Dimensions sharing no name with a machine dimension are unconstrained; a
// tensor sharing *no* names at all is replicated onto every processor
// (Figure 1's ReplDense).
//
// A statement takes effect in two steps. It first resolves to what it asks
// of a tensor: replication, dense tiles (fmt::dense_tiles), or a
// coordinate-tree spec (fmt::TreeSpec: level, universe or non-zero,
// per-color bounds). A spec is then built by fmt::TreeBuilder, the builder
// lowering uses for the launch's partitions. materialize() returns the
// result with a color -> memory mapping; distribute_tensor() installs it as
// the region placements of the tensor's storage. Within one instantiate,
// placement shares the launch's builder, so a statement that resolves to a
// tree the launch already built installs that tree instead of building it
// again.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "compiler/plan_ir.h"
#include "format/level_format.h"
#include "runtime/machine.h"
#include "runtime/runtime.h"
#include "tin/tin.h"

namespace spdistal::tdn {

// Distribution variables share the identity mechanics of index variables.
using DistVar = tin::IndexVar;

class Distribution {
 public:
  Distribution() = default;
  // tensor_vars name the tensor's logical dimensions in order; machine_vars
  // name the machine grid's dimensions in order.
  Distribution(std::vector<DistVar> tensor_vars,
               std::vector<DistVar> machine_vars);

  // Coordinate fusion: collapse `from` (consecutive leading storage
  // dimensions) into the new variable `to`.
  Distribution& fuse(std::vector<DistVar> from, DistVar to);
  // Marks `v` for non-zero (~) partitioning.
  Distribution& nonzero(const DistVar& v);

  const std::vector<DistVar>& tensor_vars() const { return tensor_vars_; }
  const std::vector<DistVar>& machine_vars() const { return machine_vars_; }
  struct Fusion {
    std::vector<DistVar> from;
    DistVar to;
  };
  const std::vector<Fusion>& fusions() const { return fusions_; }
  bool is_nonzero(const DistVar& v) const {
    return nonzero_.count(v.id()) > 0;
  }

  std::string str(const std::string& tensor_name) const;

 private:
  std::vector<DistVar> tensor_vars_;
  std::vector<DistVar> machine_vars_;
  std::vector<Fusion> fusions_;
  std::set<uint32_t> nonzero_;
};

// Parses statements like
//   "B(x, y) -> M(x)"                  row-wise universe partition
//   "c(x) -> M(y)"                     replicated (no shared names)
//   "v(x) -> M(~x)"                    non-zero partition
//   "B(x, y) fuse(x, y -> f) -> M(~f)" fused non-zero partition
Distribution parse_tdn(const std::string& stmt);

// A materialized distribution: the tensor partition and where each color
// lives. `replicated` means every processor holds the whole tensor. A dense
// tensor's partition has only vals_part.
struct Materialized {
  fmt::TensorPartition partition;
  std::vector<rt::Mem> mems;
  bool replicated = false;
};

Materialized materialize(comp::PlanTrace& trace,
                         const fmt::TensorStorage& storage,
                         const Distribution& dist, const rt::Machine& machine);

// Installs the placement for every region of `storage` into the runtime
// (the one-time data distribution the paper performs before timing): each
// region gets its share of the tree through TensorPartition::regions. A
// tree comes from `builder`, which returns the tree it already built when
// the spec matches; the first overload builds with a builder of its own.
void distribute_tensor(comp::PlanTrace& trace, rt::Runtime& runtime,
                       const fmt::TensorStorage& storage,
                       const Distribution& dist, const rt::Machine& machine);
void distribute_tensor(fmt::TreeBuilder& builder, rt::Runtime& runtime,
                       const fmt::TensorStorage& storage,
                       const Distribution& dist, const rt::Machine& machine);

}  // namespace spdistal::tdn
