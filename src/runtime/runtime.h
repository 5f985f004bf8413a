// The Runtime facade: region management, data placement, index task
// launches with region requirements, and inferred communication — the
// SpDISTAL-visible surface of the Legion-like substrate.
//
// Placement model: every region carries a set of *instances*, (memory,
// subset) pairs naming which parts of the region are valid where. Tensor
// distribution statements install an initial placement; at compute time each
// point task's read requirements are diffed against the placements and only
// the missing bytes travel (the runtime "infers what data to communicate and
// the source and destination of transfers", paper §II-C). Instances persist
// across launches, so steady-state iterations of a kernel — what the paper
// times — incur only the communication its algorithm fundamentally needs.
//
// Execution model: execute() is a *deferred* enqueue (Legion's non-blocking
// pipeline, §II-C). Point-task bodies run for real — concurrently, on the
// exec::WorkerPool, under dependence edges derived from region requirement
// privileges — while the simulated cost accounting (fetches, task costs,
// write-back, reduction combines) replays in exact submission order inside
// per-launch retirement tasks chained one after another. The SimReport is
// therefore bit-identical for any worker count, including the serial
// fallback (SPDISTAL_EXEC_THREADS=1). Overlapping REDUCE point tasks
// accumulate into private scratch buffers folded in color order at
// retirement, so numerical results are also bit-identical across worker
// counts. flush() (or Future::wait()) is the synchronization boundary;
// reading region data or the report before it is a race.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/dep_graph.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "runtime/index_space.h"
#include "runtime/machine.h"
#include "runtime/memory.h"
#include "runtime/network.h"
#include "runtime/partition.h"
#include "runtime/region.h"
#include "runtime/simulator.h"

namespace spdistal::rt {

enum class Privilege { RO, WO, RW, REDUCE };

// One region requirement of an index launch. With a partition, point p
// accesses partition.subset(p); without, the whole region. The partition is
// borrowed and must stay alive for the duration of the prepare() call (its
// subsets are captured in the plan; it is not consulted afterwards).
struct RegionReq {
  std::shared_ptr<RegionBase> region;
  const Partition* partition = nullptr;  // borrowed; see above
  Privilege priv = Privilege::RO;
};

// Handed to each point task body.
class TaskContext {
 public:
  // `subsets` is the point's row of per-requirement subsets, captured when
  // the launch was prepared.
  TaskContext(int color, Proc proc, const std::vector<IndexSubset>& subsets)
      : color_(color), proc_(proc), subsets_(subsets) {}

  int color() const { return color_; }
  const Proc& proc() const { return proc_; }
  // The subset of requirement `req` this point accesses.
  const IndexSubset& subset(size_t req) const;

 private:
  int color_;
  Proc proc_;
  const std::vector<IndexSubset>& subsets_;
};

struct IndexLaunch {
  std::string name;
  int domain = 1;  // number of points (colors)
  // Shape of the launch domain as a grid, row-major (empty = 1-D {domain}).
  // When its rank matches the machine grid's, points map onto processors
  // axis-by-axis (with per-axis wrap for overdecomposition) so neighbors
  // along the innermost axis share nodes where the hardware allows.
  std::vector<int> domain_shape;
  std::vector<RegionReq> reqs;
  // Hardware threads the leaf exploits on a CPU (parallelize(_, CPUThread)
  // grants the node's cores; an unparallelized leaf gets 1). Ignored on GPU.
  int leaf_threads = 1;
  // Point task body; runs for real, returns measured work. May execute on
  // any worker thread; bodies only touch their requirements' regions.
  std::function<WorkEstimate(const TaskContext&)> body;
};

// --- Retire scripts ----------------------------------------------------------
// What a launch's retire derives from its plan alone, computed once by
// build_plan and replayed by every retire of the plan. Exposed so that tests
// can check them against the subset walks they replace.

// The runs that fold a scratch covering `box` (already clipped to `bounds`)
// into a region with `bounds` over `subset`: each rect clipped to `bounds`,
// in the subset's order, row by row in row-major order, a run merged into
// the previous one where it continues it in both the region and the
// scratch. Every clipped rect must lie inside `box`.
std::vector<FoldRun> fold_script(const RectN& bounds, const RectN& box,
                                 const IndexSubset& subset);

// The write-back of one written requirement onto the placement that
// drop_placement has just emptied.
struct WriteBackScript {
  struct Writer {
    int point = 0;
    Mem mem;
    // Bytes this point newly makes valid in `mem` (not yet valid there from
    // an earlier writer); the retire allocates them in color order.
    double fresh_bytes = 0;
  };
  std::vector<Writer> writers;  // points with a non-empty subset, color order
  // Per memory, ascending: the union of its writers' subsets, which becomes
  // the memory's valid set (shared with the placement, never copied).
  std::vector<std::pair<Mem, std::shared_ptr<const IndexSubset>>> valid;
};
// `subsets[p][r]` is point p's subset of the requirement, `mems[p]` the
// memory it writes to, `elem_size` the region's element size.
WriteBackScript write_back_script(
    const std::vector<std::vector<IndexSubset>>& subsets, size_t r,
    const std::vector<Mem>& mems, size_t elem_size);

// A launch that Runtime::prepare analysed once, for Runtime::execute to
// replay: the launch (partition pointers cleared) and its plan. Opaque; only
// the Runtime that prepared it may execute it.
struct PreparedLaunch;

// A host-side access of run_host_task (whole-region granularity).
struct HostAccess {
  std::shared_ptr<RegionBase> region;
  Privilege priv = Privilege::RW;
};

// Aggregate simulation results, reported by benchmark harnesses.
struct SimReport {
  double sim_time = 0;           // makespan, seconds
  double inter_node_bytes = 0;
  double intra_node_bytes = 0;
  int64_t messages = 0;
  int64_t tasks = 0;
  double imbalance = 1.0;        // max/mean processor busy time
  double peak_sysmem = 0;
  double peak_fbmem = 0;
  // Plan reuse over the runtime's lifetime (not zeroed by reset_timing — a
  // hit rate, not a clock). A miss is a prepare(), which captures subsets
  // and runs every O(P^2) overlap scan; a hit is an execute() of a prepared
  // launch that an earlier execute() already ran.
  int64_t plan_hits = 0;
  int64_t plan_misses = 0;
  // Always 0: no plan is evicted. Kept because deleting the field moves the
  // code e2ebench links (its cold copies of SimReport land ahead of main).
  int64_t plan_evictions = 0;
  // Per-kernel breakdown keyed by launch name: leaf point tasks only
  // (reduction combines and host tasks are excluded). Accounted in the
  // serialized retirement replay, so bit-identical across worker counts.
  // Zeroed by reset_timing alongside clocks.
  obs::KernelTable kernels;

  // This report minus `base` for the additive fields (sim_time, traffic,
  // messages, tasks, plan counters, per-kernel rows present in both).
  // Level-like fields (imbalance, peaks) keep this report's values. Lets
  // callers isolate a phase: report().diff(before).
  SimReport diff(const SimReport& base) const;
};

class Runtime {
 public:
  // `exec_threads` < 0 draws execution contexts from the process-wide
  // worker pool ($SPDISTAL_EXEC_THREADS); an explicit count creates a
  // private pool (1 = strictly serial, no worker threads).
  explicit Runtime(Machine machine, int exec_threads = -1);
  ~Runtime();

  const Machine& machine() const { return machine_; }
  Simulator& sim() { return sim_; }
  Network& net() { return net_; }
  MemorySystem& mems() { return mems_; }
  exec::Executor& executor() { return *ex_; }

  template <typename T>
  RegionRef<T> create_region(IndexSpace space, std::string name) {
    return make_region<T>(space, std::move(name));
  }

  // --- Data distribution ----------------------------------------------------

  // Installs the placement named by a tensor distribution statement: color c
  // of `part` becomes valid in `mems[c]`. Replaces prior placement. Traffic
  // for the initial distribution is charged (it is a one-time setup cost;
  // benchmarks reset timing afterwards, matching the paper's warm trials).
  // Drains in-flight launches first.
  void set_placement(RegionBase& region, const Partition& part,
                     const std::vector<Mem>& mems);

  // Valid everywhere: one instance per node's system memory (ReplDense).
  void replicate_sys(RegionBase& region);

  // Whole region valid in a single memory (freshly loaded data).
  void place_whole(RegionBase& region, Mem mem);

  // Drops all instances (e.g. host rewrote the data out-of-band).
  void invalidate(RegionBase& region);

  // --- Execution -------------------------------------------------------------

  // Runs the launch analysis once and returns the prepared launch, which
  // execute() replays any number of times: per-point subset capture, the
  // per-requirement O(P^2) overlap classification, privatization
  // decisions, intra-launch conflict edges, scratch-buffer shapes and the
  // retire's scripts (reduction combines, scratch folds, write-backs). The
  // plan depends only on the launch's structure — the analysis fields hold
  // *results*, never accounting state — so every execution of it is
  // bit-identical to a fresh prepare. The partitions are read here and
  // never again; the prepared launch keeps the regions and the body alive.
  // Its mutable state is the residency memo and the spare reduction
  // scratches. The memo holds, per (point, read requirement), the placement
  // epoch at which a retire left that subset valid in the point's memory.
  // Only the serialized retire chain reads or writes it; a slot that still
  // equals its region's epoch lets the retire skip fetch, which would find
  // nothing missing. A privatized point takes its scratch from the spares
  // and the retire puts it back, so repeated executions reuse the buffers.
  std::shared_ptr<const PreparedLaunch> prepare(const IndexLaunch& launch);

  // Enqueues a prepared launch: point bodies run concurrently on the worker
  // pool under dependence edges derived from the requirements; the
  // simulated costs (communication inference, task pricing, write-back)
  // are accounted in exact submission order when the launch retires.
  // Returns a Future for the launch's retirement; errors (e.g. simulated
  // OutOfMemoryError) surface at the next wait()/flush(). Throws SpdError
  // for a launch another Runtime prepared: its residency slots hold that
  // runtime's placement epochs.
  exec::Future execute(const std::shared_ptr<const PreparedLaunch>& prepared);
  // One-shot: prepares `launch` and executes it once (the cold path tests
  // compare prepared launches against).
  exec::Future execute(const IndexLaunch& launch) {
    return execute(prepare(launch));
  }

  // Verification mode. When on, every execute() runs the dependence-race
  // auditor over the prepared plan, leaf tasks record touched bounds for
  // the privilege checker, and read-only operands are fingerprinted across
  // the launch. Taken from the process-wide verify::enabled() at
  // construction, so arm the switch before constructing the runtime.
  bool verify() const { return verify_; }

  // Fault injection for the verify fault-injection tests: drains in-flight
  // launches, then corrupts the prepared launch's plan in place. Returns
  // false when there is no edge to corrupt.
  enum class PlanFault {
    DropConflictEdge,  // delete one planned happens-before edge (a race)
    AddSpuriousEdge,   // add an unjustified edge (lost parallelism)
    StaleResidency,    // stamp every residency slot with the current
                       // epochs, whatever is valid (drains first)
  };
  bool inject_plan_fault(const std::shared_ptr<const PreparedLaunch>& prepared,
                         PlanFault fault);

  // Enqueues a host-side callback ordered against launches through
  // whole-region accesses (e.g. zeroing an output between iterations). No
  // simulated cost is charged.
  exec::Future run_host_task(std::string name,
                             std::vector<HostAccess> accesses,
                             std::function<void()> fn);

  // Drains every enqueued task; re-throws the first deferred error.
  void flush();

  // Bulk-synchronous barrier (used by MPI-style baselines; SpDISTAL's
  // Legion-like deferred execution never calls this between launches).
  void barrier();

  // Explicitly charges a data transfer (baselines with hand-rolled comm).
  // Drains in-flight launches first.
  void charge_transfer(const Mem& src, const Mem& dst, double bytes);

  // Zeroes clocks/traffic for steady-state measurement; placements persist.
  void reset_timing();

  // Drains in-flight launches, then reports.
  SimReport report() const;

  // Observability attachment. On by default: the simulator and network feed
  // the global trace recorder, and each retired launch feeds its kernel's
  // row. Scratch runtimes used for proxy simulations (autosched
  // cost model) must detach — they run concurrently, and their events
  // would break the simulated track's bit-identity and pollute process
  // metrics.
  void set_observability(bool on);

  // Maps launch point `p` onto the machine grid, honoring the launch's
  // domain shape: point (x, y) of a 2-D launch runs on grid processor
  // (x mod gx, y mod gy), keeping row-neighbors on the same node; a launch
  // whose shape does not match the grid's rank maps by a flat modulo.
  Proc proc_for_point(int p, const IndexLaunch& launch) const;

 private:
  struct PlacementInfo {
    // Valid subsets per memory and bytes allocated there for this region.
    // Valid sets shrink only in drop_placement (set_placement,
    // replicate_sys, place_whole, invalidate and the write-back all go
    // through it); everything else only unites into them. A valid set is
    // immutable and may be shared (the write-back installs its plan's
    // unions): growing one swaps in a new set.
    std::map<Mem, std::shared_ptr<const IndexSubset>> valid;
    std::map<Mem, double> alloc_bytes;
    // Simulated time at which the instance in a memory becomes usable.
    std::map<Mem, double> ready;
    // Set by drop_placement from the runtime-wide placement_epoch_, so a
    // LaunchPlan residency slot equal to it proves no valid set of this
    // region lost a point since the slot was stamped. Never 0: a slot of 0
    // means "not known resident".
    uint64_t epoch = 1;
  };

  friend struct PreparedLaunch;
  // The launch analysis prepare() runs (shared by every execution of the
  // prepared launch; immutable once built except for the retire chain's
  // residency memo and the spare scratches).
  struct LaunchPlan;
  // Everything one deferred launch needs after submission: the prepared
  // launch (keeps regions, body and plan alive), per-point work
  // measurements, and reduction scratch buffers.
  struct LaunchRecord;

  // The full launch analysis.
  std::shared_ptr<const LaunchPlan> build_plan(const IndexLaunch& launch);

  // Replays the launch's simulated cost accounting (fetches, task pricing,
  // write-back, reduction combines) — called from retirement tasks, which
  // the retire chain serializes in submission order.
  void account_launch(LaunchRecord& rec);

  // Ensures `subset` of `region` is valid in `mem` by `ready_time`;
  // returns the time all data has arrived. Leaves a non-empty `subset`
  // valid in `mem`; when `subset \ valid[mem]` is already empty it moves
  // nothing and returns max(ready_time, ready[mem]), which is what a
  // residency-memo hit in account_launch uses instead of calling it.
  double fetch(RegionBase& region, const IndexSubset& subset, const Mem& mem,
               double ready_time);

  // Whole-region instance bookkeeping (no flush; safe inside retirement
  // tasks).
  void install_whole(RegionBase& region, Mem mem);

  // Releases every instance of `region` and stamps it with a new placement
  // epoch: the one place a valid set loses points.
  void drop_placement(RegionBase& region);
  PlacementInfo& placement(const RegionBase& region) {
    return placements_[region.id()];  // creates lazily for foreign regions
  }

  Machine machine_;
  Simulator sim_;
  Network net_;
  MemorySystem mems_;
  std::map<RegionId, PlacementInfo> placements_;
  uint64_t placement_epoch_ = 1;  // the last epoch drop_placement handed out
  bool verify_ = false;
  int64_t plan_hits_ = 0;
  int64_t plan_misses_ = 0;
  bool observed_ = false;
  // Per-launch-name leaf-task stats (SimReport::kernels). Plain data:
  // updated only from the serialized retirement chain.
  obs::KernelTable kernel_rows_;
  std::shared_ptr<exec::WorkerPool> pool_;
  // Declared after all state the retirement tasks touch, so the destructor
  // drains in-flight tasks while that state is still alive. Mutable: const
  // observers (report) drain first.
  mutable std::unique_ptr<exec::Executor> ex_;
  std::unique_ptr<exec::DepTracker> tracker_;
  exec::TaskId last_retire_ = 0;
};

}  // namespace spdistal::rt
