// Lowering scheduled TIN statements to distributed execution plans — the
// code generation algorithm of Figure 9a.
//
// compile() analyzes a statement + schedule against a machine: which index
// variable is distributed, over how many pieces, coordinate-value vs
// coordinate-position iteration (universe vs non-zero partitions), leaf
// parallelism, and legality (e.g. union co-iteration is incompatible with
// position-space distribution, as the paper notes for SpAdd3).
//
// instantiate() executes the "generated" partitioning code against a
// Runtime: initial level partitions via the Table I level functions, full
// coordinate-tree derivation, placements for tensor distribution statements,
// sparse output assembly (§V-B), and finally constructs the distributed loop
// (an IndexLaunch whose leaves run the selected kernel). Every partitioning
// operation is recorded in a PlanTrace — the printable Figure 9b program.
// Placements ride the launch's partitions: the launch's coordinate trees
// and the TDN placements go through one fmt::TreeBuilder, so a statement
// that resolves to a tree the launch built installs it, and the trace
// records each partitioning op once.
#pragma once

#include <memory>
#include <optional>

#include "compiler/plan_ir.h"
#include "format/level_format.h"
#include "kernels/coiter.h"
#include "runtime/runtime.h"
#include "sched/schedule.h"
#include "tensor/tensor.h"

namespace spdistal::comp {

// A leaf kernel: evaluates one piece, returns measured work.
using LeafFn = std::function<rt::WorkEstimate(const kern::PieceBounds&)>;

class Instance;

class CompiledKernel {
 public:
  // Uses the schedule recorded on the statement's output tensor.
  static CompiledKernel compile(const Statement& stmt,
                                const rt::Machine& machine);
  static CompiledKernel compile(const Statement& stmt,
                                const sched::Schedule& schedule,
                                const rt::Machine& machine);

  // Builds partitions and placements against `runtime` and returns a
  // runnable instance. May throw OutOfMemoryError (surfaced as DNC).
  // Partition construction is pure host-side work and overlaps launches
  // still draining on the runtime; only output assembly and the final
  // placement installation synchronize with them.
  //
  // The Instance holds the shared_ptr, so it can never outlive (and then
  // dangle on) the runtime whose placements and task graph it references —
  // declaration order at the call site stops mattering.
  std::unique_ptr<Instance> instantiate(
      std::shared_ptr<rt::Runtime> runtime) const;
  // Non-owning convenience for stack/member runtimes: the caller guarantees
  // `runtime` outlives the returned Instance.
  std::unique_ptr<Instance> instantiate(rt::Runtime& runtime) const;

  // --- analysis results (inspectable, used by tests) -------------------------
  // Total pieces: the product of the per-axis piece counts.
  int pieces() const { return pieces_; }
  // Per-axis piece counts of the distributed grid ((px) for a 1-D
  // distribution, (px, py) for two distribute() commands, ...).
  const std::vector<int>& grid_pieces() const { return grid_pieces_; }
  bool position_space() const { return position_space_; }
  const std::string& split_tensor() const { return split_tensor_; }
  int split_level() const { return split_level_; }
  const tin::IndexVar& dist_source_var() const { return dist_source_var_; }
  // Source variables per grid axis (axis 0 == dist_source_var()).
  const std::vector<tin::IndexVar>& dist_source_vars() const {
    return dist_source_vars_;
  }
  int leaf_threads() const { return leaf_threads_; }
  const std::string& leaf_kernel_name() const { return leaf_name_; }

 private:
  friend class Instance;
  Statement stmt_;
  sched::Schedule schedule_;
  rt::Machine machine_;
  int pieces_ = 1;
  std::vector<int> grid_pieces_{1};  // per-axis piece counts
  bool position_space_ = false;
  std::string split_tensor_;   // position-space only
  int split_level_ = 0;        // position-space only
  tin::IndexVar dist_source_var_;  // axis-0 divided variable (or fused var)
  std::vector<tin::IndexVar> dist_source_vars_;  // one per grid axis
  std::vector<tin::IndexVar> fused_sources_;
  int leaf_threads_ = 1;
  LeafFn leaf_;
  std::string leaf_name_;
};

// An instantiated kernel: owns partitions, the reusable distributed launch,
// and the plan trace. run() executes timed iterations; the first prepares
// the launch (Runtime::prepare) and every later one replays that plan.
class Instance {
 public:
  // Launch bodies enqueued by run/run_async reference this Instance's piece
  // bounds: destruction drains any still-in-flight launches first
  // (swallowing deferred errors — synchronize with wait()/flush() to
  // observe them).
  ~Instance();

  // Executes `iters` iterations of the distributed loop (no barriers between
  // iterations — Legion-style deferred execution) and waits for the last
  // one, so the output is readable on return.
  void run(int iters = 1);

  // Deferred variant: enqueues the iterations and returns the last launch's
  // completion future without joining, so back-to-back instances with
  // disjoint requirements overlap on the worker pool. Deferred errors
  // (e.g. simulated OOM) surface at wait()/flush().
  exec::Future run_async(int iters = 1);

  const PlanTrace& trace() const { return trace_; }
  rt::SimReport report() const { return runtime_->report(); }
  rt::Runtime& runtime() { return *runtime_; }
  int pieces() const { return launch_.domain; }
  // The distributed launch run() executes, its partitions owned here.
  const rt::IndexLaunch& launch() const { return launch_; }

 private:
  friend class CompiledKernel;
  // Owning (or, via the reference overload of instantiate, non-owning
  // null-deleter) handle: keeps the runtime alive for the Instance's
  // lifetime, including the destructor's drain of in-flight launches.
  std::shared_ptr<rt::Runtime> runtime_;
  const CompiledKernel* kernel_ = nullptr;
  PlanTrace trace_;
  // Owned partitions referenced by launch_.reqs (stable addresses).
  std::vector<std::unique_ptr<rt::Partition>> parts_;
  rt::IndexLaunch launch_;
  // launch_ prepared on the first run_async.
  std::shared_ptr<const rt::PreparedLaunch> prepared_;
  std::vector<kern::PieceBounds> piece_bounds_;
  Tensor output_;
};

}  // namespace spdistal::comp
