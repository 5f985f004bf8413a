// The scheduling language (paper §II-C): loop transformations recorded as an
// ordered command list, combining TACO's sparse iteration-space
// transformations (divide/fuse + the position-space divide_pos) with
// DISTAL's distributed commands (distribute/communicate). Lowering reads
// every command except communicate(), which stays as the paper's Figure 1
// spelling: CompiledKernel::compile checks that its tensors are bound, and
// lowering derives every transfer from the partitions.
//
// The compiler consumes a Schedule to decide (a) which index variables are
// distributed and over how many pieces each — repeated distribute() commands
// form an ordered tuple mapping the loop nest onto a multi-dimensional
// machine grid (Grid(x, y)) — (b) whether the distributed loops iterate
// coordinates (universe partitions) or non-zero positions (non-zero
// partitions, from the pos-split variant), and (c) how leaves are
// parallelized (the leaf cost model's thread count).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tin/tin.h"

namespace spdistal::sched {

using tin::IndexVar;

enum class ParallelUnit { CPUThread, GPUThread, GPUWarp };

const char* parallel_unit_name(ParallelUnit u);
// Inverse of parallel_unit_name; nullopt for unknown names (e.g. a plan
// store written by a newer build).
std::optional<ParallelUnit> parse_parallel_unit(const std::string& name);

enum class CommandKind {
  Divide,       // divide(i, io, ii, pieces): i -> pieces equal coordinate blocks
  DividePos,    // position-space divide: equal blocks of *non-zeros* of a tensor
  Fuse,         // fuse(i, j, f): collapse two loops (coordinate fusion)
  Distribute,   // distribute(io): run iterations on different processors
  Communicate,  // communicate({tensors}, io): granularity of data movement
  Parallelize,  // parallelize(ii, unit): intra-leaf parallelism
};

struct Command {
  CommandKind kind;
  std::vector<IndexVar> vars;     // command-specific variable operands
  std::vector<std::string> tensors;  // Communicate / DividePos target
  int pieces = 0;                 // Divide / DividePos
  ParallelUnit unit = ParallelUnit::CPUThread;
};

class Schedule {
 public:
  Schedule& divide(IndexVar i, IndexVar outer, IndexVar inner, int pieces);
  // The non-zero variant of divide (Senanayake et al.): strip-mines the
  // positions of `tensor`'s non-zeros along fused variable `i`.
  Schedule& divide_pos(IndexVar i, IndexVar outer, IndexVar inner, int pieces,
                       const std::string& tensor);
  Schedule& fuse(IndexVar i, IndexVar j, IndexVar fused);
  Schedule& distribute(IndexVar v);
  Schedule& communicate(std::vector<std::string> tensors, IndexVar v);
  Schedule& parallelize(IndexVar v, ParallelUnit unit);

  const std::vector<Command>& commands() const { return commands_; }

  // --- queries used by lowering ---------------------------------------------

  // All variables named by distribute() commands, in command order. Each is
  // one axis of the distributed piece grid: two distribute() commands map the
  // loop nest onto a Machine(Grid(x, y)), matching the paper's 2-D SpMM /
  // SDDMM schedules. Empty if the schedule never distributes.
  std::vector<IndexVar> distributed_vars() const;
  // The original variable whose divide/divide_pos produced distributed
  // variable `dv` (e.g. `i` for divide(i, io, ii, p) + distribute(io)).
  IndexVar distributed_source(const IndexVar& dv) const;
  // Pieces of the divide/divide_pos that produced distributed variable `dv`.
  int distributed_pieces(const IndexVar& dv) const;
  // True if distributed variable `dv` came from divide_pos. Only axis 0 of
  // a multi-axis grid may be position-space (the non-zero blocks drive the
  // loop); further axes must be universe divides.
  bool distributed_is_position_space(const IndexVar& dv) const;

  // --- single-axis convenience API (delegates to distribution axis 0) --------

  // The first variable named by distribute(), if any.
  std::optional<IndexVar> distributed_var() const;
  // True if the first distributed variable came from divide_pos (position
  // space). Position-space distribution is single-axis: lowering rejects
  // schedules mixing divide_pos with additional distribute() commands.
  bool distributed_is_position_space() const;
  // Tensor targeted by the position-space divide.
  std::string position_split_tensor() const;
  // Variables fused into `v` (transitively flattened), empty if none.
  std::vector<IndexVar> fused_sources(const IndexVar& v) const;
  // Leaf parallelization unit & implied hardware thread count.
  std::optional<ParallelUnit> leaf_parallel_unit() const;

  std::string str() const;

 private:
  // The divide/divide_pos command whose outer result is `v`, else nullptr.
  const Command* producer_of(const IndexVar& v) const;

  std::vector<Command> commands_;
};

}  // namespace spdistal::sched
