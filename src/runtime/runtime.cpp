#include "runtime/runtime.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <set>

#include "common/error.h"
#include "common/str_util.h"
#include "obs/obs.h"
#include "runtime/touch_log.h"
#include "verify/privilege_check.h"
#include "verify/race_audit.h"
#include "verify/verify.h"

namespace spdistal::rt {

SimReport SimReport::diff(const SimReport& base) const {
  SimReport d = *this;
  d.sim_time -= base.sim_time;
  d.inter_node_bytes -= base.inter_node_bytes;
  d.intra_node_bytes -= base.intra_node_bytes;
  d.messages -= base.messages;
  d.tasks -= base.tasks;
  d.plan_hits -= base.plan_hits;
  d.plan_misses -= base.plan_misses;
  d.plan_evictions -= base.plan_evictions;
  // imbalance / peak memory are levels, not totals: keep this report's.
  for (const auto& [name, stats] : base.kernels) {
    auto it = d.kernels.find(name);
    if (it != d.kernels.end()) it->second = it->second - stats;
  }
  return d;
}

namespace {

exec::AccessMode to_mode(Privilege p) {
  switch (p) {
    case Privilege::RO: return exec::AccessMode::Read;
    case Privilege::WO: return exec::AccessMode::Write;
    case Privilege::RW: return exec::AccessMode::ReadWrite;
    case Privilege::REDUCE: return exec::AccessMode::Reduce;
  }
  return exec::AccessMode::ReadWrite;
}

}  // namespace

const IndexSubset& TaskContext::subset(size_t req) const {
  SPDISTAL_DCHECK(req < subsets_.size(),
                  "req index " << req << " out of range ("
                              << subsets_.size() << " requirements)");
  return subsets_[req];
}

std::vector<FoldRun> fold_script(const RectN& bounds, const RectN& box,
                                 const IndexSubset& subset) {
  std::vector<FoldRun> runs;
  for (const RectN& rect : subset.rects()) {
    const RectN r = rect.intersect(bounds);
    if (r.empty()) continue;
    SPD_ASSERT(box.contains(r), "fold_script: subset rect "
                                    << r.str() << " escapes scratch box "
                                    << box.str());
    // Row-major odometer over the rectangle; the innermost dimension is
    // contiguous in both the region and the scratch box.
    const int64_t len = r.hi[r.dim - 1] - r.lo[r.dim - 1] + 1;
    std::array<Coord, kMaxDim> p{};
    for (int d = 0; d < r.dim; ++d) p[static_cast<size_t>(d)] = r.lo[d];
    while (true) {
      const int64_t dst = linearize(bounds, p);
      const int64_t src = linearize(box, p);
      if (!runs.empty() && runs.back().dst + runs.back().len == dst &&
          runs.back().src + runs.back().len == src) {
        runs.back().len += len;
      } else {
        runs.push_back(FoldRun{dst, src, len});
      }
      int d = r.dim - 2;
      for (; d >= 0; --d) {
        if (++p[static_cast<size_t>(d)] <= r.hi[d]) break;
        p[static_cast<size_t>(d)] = r.lo[d];
      }
      if (d < 0) break;
    }
  }
  return runs;
}

WriteBackScript write_back_script(
    const std::vector<std::vector<IndexSubset>>& subsets, size_t r,
    const std::vector<Mem>& mems, size_t elem_size) {
  WriteBackScript wb;
  std::map<Mem, IndexSubset> valid;
  const double elem = static_cast<double>(elem_size);
  for (size_t p = 0; p < subsets.size(); ++p) {
    const IndexSubset& s = subsets[p][r];
    if (s.empty()) continue;
    const auto it = valid.find(mems[p]);
    const int64_t fresh =
        it == valid.end() ? s.volume() : s.subtract(it->second).volume();
    wb.writers.push_back(WriteBackScript::Writer{
        static_cast<int>(p), mems[p], static_cast<double>(fresh) * elem});
    if (it == valid.end()) {
      valid.emplace(mems[p], s);
    } else {
      it->second = it->second.unite(s);
    }
  }
  wb.valid.reserve(valid.size());
  for (auto& [mem, u] : valid) {
    wb.valid.emplace_back(mem,
                          std::make_shared<const IndexSubset>(std::move(u)));
  }
  return wb;
}

// The launch analysis Runtime::prepare runs once: everything an execution
// derives from the launch's structure (subsets, partitions, privileges) and
// nothing it derives from accounting state. The analysis fields are
// immutable once built and shared by every execution of the prepared
// launch, so repeated and one-shot executions are bit-identical by
// construction; the residency memo and the spare scratches at the end are
// the plan's only mutable state.
struct Runtime::LaunchPlan {
  std::vector<Proc> procs;  // per point
  // [point] -> per-requirement subset row.
  std::vector<std::vector<IndexSubset>> subsets;
  // Whether each requirement carried a partition (the borrowed Partition*
  // itself is not retained — it need not outlive prepare()).
  std::vector<bool> partitioned;
  // Per-requirement overlap classification and privatization decision.
  std::vector<bool> req_overlapping;
  std::vector<bool> privatized;
  // Bounding box of each privatized point subset — the scratch buffer's
  // shape (scratch_box[r] is empty when requirement r is not privatized).
  std::vector<std::vector<RectN>> scratch_box;
  // Intra-launch conflict edges: point q waits on point p (q > p).
  std::vector<std::pair<int, int>> conflict_edges;
  // Retirement replay script for partitioned REDUCE requirements: the
  // ordered pairwise-overlap combines account_launch charges (same
  // iteration order as the cold O(P^2) scan, so accounting replays
  // identically from the plan).
  struct ReducePair {
    int p = 0;
    int q = 0;
    IndexSubset overlap;
  };
  std::vector<std::vector<ReducePair>> reduce_pairs;  // per requirement
  // Fold script per privatized requirement (empty otherwise): point p's
  // scratch folds by replaying runs[begin[p], begin[p + 1]).
  struct FoldScript {
    std::vector<FoldRun> runs;
    std::vector<size_t> begin;
  };
  std::vector<FoldScript> fold;
  // Write-back script per written requirement (empty for RO ones).
  std::vector<WriteBackScript> write_back;
  // Dependence-analysis access descriptors per point, plus the requirement
  // indices recorded under the point task (direct) vs the launch's
  // retirement/fold task (privatized) — an index split, so each subset is
  // stored once.
  std::vector<std::vector<exec::RegionAccess>> accesses;
  std::vector<size_t> direct_reqs;
  std::vector<size_t> folded_reqs;
  // Residency memo, [point * R + requirement]: the placement epoch of the
  // requirement's region when a retire's fetch last left the point's
  // subset valid in the point's memory (0 = never). Owned by the retire
  // chain, which serializes every read and write; point tasks and the
  // enqueue path never touch it.
  mutable std::vector<uint64_t> resident;

  // Reduction scratch buffers, [requirement][point]; only privatized
  // requirements have a row.
  using ScratchSet = std::vector<std::vector<std::shared_ptr<ScratchHeader>>>;
  ScratchSet empty_scratch() const {
    ScratchSet set(privatized.size());
    for (size_t r : folded_reqs) set[r].resize(procs.size());
    return set;
  }
  // One spare buffer per slot, kept across launches: a point takes its
  // slots' spares when it runs (allocating where a slot has none) and its
  // launch's retire puts the buffers back after the fold, keeping one per
  // slot. A warm launch whose predecessor retired before its points ran
  // reuses that launch's buffers, and two in-flight launches never share
  // one.
  void take_spares(ScratchSet& set, size_t p) const {
    std::lock_guard<std::mutex> lk(spare_mu);
    for (size_t r : folded_reqs) set[r][p] = std::move(spare[r][p]);
  }
  void put_spares(ScratchSet& set) const {
    std::lock_guard<std::mutex> lk(spare_mu);
    for (size_t r : folded_reqs) {
      for (size_t p = 0; p < set[r].size(); ++p) {
        if (spare[r][p] == nullptr) spare[r][p] = std::move(set[r][p]);
      }
    }
  }
  mutable std::mutex spare_mu;
  mutable ScratchSet spare;
};

struct PreparedLaunch {
  IndexLaunch launch;  // partition pointers cleared: the plan holds subsets
  std::shared_ptr<const Runtime::LaunchPlan> plan;
  // Whose placement epochs the plan's residency slots hold.
  const Runtime* runtime = nullptr;
  // Set by the first execute(); each later one counts as a plan hit.
  mutable bool executed = false;
};

// Everything one deferred launch needs after submission. Point tasks fill
// work[]; the retirement task folds reduction scratches and replays the
// simulated cost accounting.
struct Runtime::LaunchRecord {
  // Keeps the launch's regions, body and plan alive.
  std::shared_ptr<const PreparedLaunch> prepared;
  std::vector<WorkEstimate> work;  // per point
  // Tracing decisions taken once at submission (in submission order, so
  // they are deterministic across worker counts): whether this launch's
  // spans are recorded (a capture was live), and the base of its flow-id
  // block (2 ids per point: even = sim chain, odd = measured chain; 0 =
  // none).
  bool traced = false;
  uint64_t flow_base = 0;
  // Verify mode: points check their touches, retire audits residency hits.
  bool verify = false;
  // Reduction privatization, per requirement: scratch[r][p] is point p's
  // private accumulator (empty when the requirement is not privatized),
  // taken from the plan's spares by the point and put back by the retire.
  LaunchPlan::ScratchSet scratch;

  // Verify mode only: read-only operand fingerprinting across the launch.
  // A prehash task (ordered before every point) fills `before`; retirement
  // re-hashes after account_launch and raises write-under-RO on mismatch.
  struct VerifyState {
    std::vector<size_t> hash_reqs;          // RO requirement indices
    std::vector<IndexSubset> hash_subsets;  // union over points, per entry
    std::vector<uint64_t> before;
  };
  std::unique_ptr<VerifyState> vstate;
};

Runtime::Runtime(Machine machine, int exec_threads)
    : machine_(std::move(machine)),
      sim_(machine_),
      net_(machine_.config()),
      mems_(machine_),
      pool_(exec_threads < 0 ? exec::WorkerPool::shared()
                             : exec::WorkerPool::create(exec_threads)),
      ex_(std::make_unique<exec::Executor>(pool_)),
      tracker_(std::make_unique<exec::DepTracker>(*ex_)) {
  set_observability(true);
  verify_ = verify::enabled();
}

bool Runtime::inject_plan_fault(
    const std::shared_ptr<const PreparedLaunch>& prepared, PlanFault fault) {
  flush();  // in-flight retires read the plan; they own its residency memo
  // Deliberately break the prepared launch's plan so the verify
  // fault-injection tests can prove the verifiers catch it. The const_cast
  // is confined to this test hook; no production path mutates a plan's
  // analysis fields.
  auto plan = std::const_pointer_cast<LaunchPlan>(prepared->plan);
  switch (fault) {
    case PlanFault::DropConflictEdge:
      if (plan->conflict_edges.empty()) return false;
      plan->conflict_edges.pop_back();
      return true;
    case PlanFault::AddSpuriousEdge: {
      const int P = static_cast<int>(plan->procs.size());
      if (P < 2) return false;
      std::set<std::pair<int, int>> have(plan->conflict_edges.begin(),
                                         plan->conflict_edges.end());
      for (int q = 1; q < P; ++q) {
        for (int p = 0; p < q; ++p) {
          if (have.count({p, q}) == 0) {
            plan->conflict_edges.push_back({p, q});
            return true;
          }
        }
      }
      return false;
    }
    case PlanFault::StaleResidency: {
      const auto& reqs = prepared->launch.reqs;
      for (size_t i = 0; i < plan->resident.size(); ++i) {
        plan->resident[i] = placement(*reqs[i % reqs.size()].region).epoch;
      }
      return true;
    }
  }
  return false;
}

void Runtime::set_observability(bool on) {
  observed_ = on;
  sim_.set_trace(on ? &obs::TraceRecorder::global() : nullptr);
  net_.set_trace(on ? &obs::TraceRecorder::global() : nullptr);
}

Runtime::~Runtime() {
  // Executor destruction drains in-flight tasks (which touch sim/network/
  // placement state) before the rest of the runtime goes away.
  tracker_.reset();
  ex_.reset();
}

Proc Runtime::proc_for_point(int p, const IndexLaunch& launch) const {
  const Grid& g = machine_.grid();
  const auto& shape = launch.domain_shape;
  if (static_cast<int>(shape.size()) != g.ndims() || g.ndims() <= 1) {
    return machine_.proc(p % machine_.num_procs());
  }
  // Row-major decomposition of the point, wrapped per grid axis.
  std::vector<int> pt(shape.size());
  int rest = p;
  for (int a = static_cast<int>(shape.size()) - 1; a >= 0; --a) {
    const int extent = std::max(1, shape[static_cast<size_t>(a)]);
    pt[static_cast<size_t>(a)] = (rest % extent) % g.dim(a);
    rest /= extent;
  }
  return machine_.proc_at(pt);
}

void Runtime::drop_placement(RegionBase& region) {
  PlacementInfo& pl = placement(region);
  for (const auto& [mem, bytes] : pl.alloc_bytes) {
    mems_.pool(mem).release(bytes);
  }
  pl.valid.clear();
  pl.alloc_bytes.clear();
  pl.ready.clear();
  pl.epoch = ++placement_epoch_;
}

void Runtime::set_placement(RegionBase& region, const Partition& part,
                            const std::vector<Mem>& mems) {
  SPD_ASSERT(static_cast<int>(mems.size()) == part.num_colors(),
             "set_placement: one memory per color required");
  flush();
  drop_placement(region);
  PlacementInfo& pl = placement(region);
  const Mem root = Mem{0, MemKind::SYS, 0};
  const double elem = static_cast<double>(region.elem_size());
  for (int c = 0; c < part.num_colors(); ++c) {
    const IndexSubset& s = part.subset(c);
    if (s.empty()) continue;
    const Mem& m = mems[static_cast<size_t>(c)];
    const double bytes = static_cast<double>(s.volume()) * elem;
    // Newly valid bytes only (colors may overlap within one memory).
    const auto it = pl.valid.find(m);
    const bool had = it != pl.valid.end();
    IndexSubset fresh = had ? s.subtract(*it->second) : s;
    const double fresh_bytes = static_cast<double>(fresh.volume()) * elem;
    if (fresh_bytes > 0) {
      mems_.pool(m).allocate(fresh_bytes, region.name());
      pl.alloc_bytes[m] += fresh_bytes;
    }
    auto grown = std::make_shared<const IndexSubset>(
        had ? it->second->unite(s) : s);
    pl.valid[m] = std::move(grown);
    // One-time scatter from the root node where data was loaded.
    const double done = net_.transfer(root, m, bytes, 0.0);
    double& rdy = pl.ready[m];
    rdy = std::max(rdy, done);
  }
}

void Runtime::replicate_sys(RegionBase& region) {
  flush();
  drop_placement(region);
  PlacementInfo& pl = placement(region);
  const double bytes = static_cast<double>(region.size_bytes());
  const Mem root = Mem{0, MemKind::SYS, 0};
  std::vector<int> nodes;
  for (int n = 0; n < machine_.config().nodes; ++n) nodes.push_back(n);
  const double done = net_.broadcast(root, nodes, bytes, 0.0);
  const auto whole =
      std::make_shared<const IndexSubset>(region.space().as_subset());
  for (int n = 0; n < machine_.config().nodes; ++n) {
    const Mem m = machine_.sys_mem(n);
    mems_.pool(m).allocate(bytes, region.name());
    pl.alloc_bytes[m] += bytes;
    pl.valid[m] = whole;
    pl.ready[m] = (n == 0) ? 0.0 : done;
  }
}

void Runtime::place_whole(RegionBase& region, Mem mem) {
  flush();
  drop_placement(region);
  install_whole(region, mem);
}

// Whole-region instance bookkeeping shared by place_whole and the virgin-
// region path of fetch (which runs inside retirement tasks and therefore
// must not flush).
void Runtime::install_whole(RegionBase& region, Mem mem) {
  PlacementInfo& pl = placement(region);
  const double bytes = static_cast<double>(region.size_bytes());
  mems_.pool(mem).allocate(bytes, region.name());
  pl.alloc_bytes[mem] = bytes;
  pl.valid[mem] =
      std::make_shared<const IndexSubset>(region.space().as_subset());
  pl.ready[mem] = 0.0;
}

void Runtime::invalidate(RegionBase& region) {
  flush();
  drop_placement(region);
}

double Runtime::fetch(RegionBase& region, const IndexSubset& subset,
                      const Mem& mem, double ready_time) {
  if (subset.empty()) return ready_time;
  PlacementInfo& pl = placement(region);
  if (pl.valid.empty()) {
    // Virgin region: data considered loaded at the root node.
    install_whole(region, Mem{0, MemKind::SYS, 0});
  }
  double arrival = ready_time;
  IndexSubset missing;
  if (auto it = pl.valid.find(mem); it != pl.valid.end()) {
    missing = subset.subtract(*it->second);
    arrival = std::max(arrival, pl.ready[mem]);
    if (missing.empty()) return arrival;
  } else {
    missing = subset;
  }
  const double elem = static_cast<double>(region.elem_size());
  // Pull missing pieces, preferring same-node sources (NVLink) over the
  // network.
  for (int pass = 0; pass < 2 && !missing.empty(); ++pass) {
    for (auto& [src, valid_src] : pl.valid) {
      if (src == mem) continue;
      const bool same_node = src.node == mem.node;
      if ((pass == 0) != same_node) continue;
      IndexSubset part = missing.intersect(*valid_src);
      if (part.empty()) continue;
      const double bytes = static_cast<double>(part.volume()) * elem;
      const double t =
          net_.transfer(src, mem, bytes, std::max(ready_time, pl.ready[src]));
      arrival = std::max(arrival, t);
      mems_.pool(mem).allocate(bytes, region.name());
      pl.alloc_bytes[mem] += bytes;
      missing = missing.subtract(part);
      if (missing.empty()) break;
    }
  }
  if (!missing.empty()) {
    // No placed instance covers this part (e.g. pos entries of empty rows
    // after a non-zero data distribution). The root node's original
    // instance backs such data, as Legion sources from the logical region's
    // initial copy.
    const Mem root{0, MemKind::SYS, 0};
    const double bytes = static_cast<double>(missing.volume()) * elem;
    const double t = net_.transfer(root, mem, bytes, ready_time);
    arrival = std::max(arrival, t);
    if (!(mem == root)) {
      mems_.pool(mem).allocate(bytes, region.name());
      pl.alloc_bytes[mem] += bytes;
    }
  }
  const auto it = pl.valid.find(mem);
  auto grown = std::make_shared<const IndexSubset>(
      it != pl.valid.end() ? it->second->unite(subset) : subset);
  pl.valid[mem] = std::move(grown);
  double& rdy = pl.ready[mem];
  rdy = std::max(rdy, arrival);
  return arrival;
}

// The full launch analysis, run once per prepare(). Everything computed
// here depends only on the launch's structure (subsets, partitions,
// privileges, domain shape) — never on placements, clocks, or region data —
// which is what makes the resulting plan safely reusable across executions.
std::shared_ptr<const Runtime::LaunchPlan> Runtime::build_plan(
    const IndexLaunch& launch) {
  auto plan = std::make_shared<LaunchPlan>();
  const int P = launch.domain;
  const size_t R = launch.reqs.size();
  plan->procs.resize(static_cast<size_t>(P));
  plan->subsets.resize(static_cast<size_t>(P));
  for (int p = 0; p < P; ++p) {
    plan->procs[static_cast<size_t>(p)] = proc_for_point(p, launch);
    auto& subs = plan->subsets[static_cast<size_t>(p)];
    subs.reserve(R);
    for (const RegionReq& req : launch.reqs) {
      subs.push_back(req.partition ? req.partition->subset(p)
                                   : req.region->space().as_subset());
    }
  }
  plan->partitioned.reserve(R);
  for (const RegionReq& req : launch.reqs) {
    plan->partitioned.push_back(req.partition != nullptr);
  }

  // Per-requirement pairwise disjointness of the point subsets (computed
  // once, with early exit; RO requirements never need it). Drives both the
  // REDUCE privatization decision and the intra-launch conflict analysis.
  plan->req_overlapping.assign(R, false);
  for (size_t r = 0; r < R; ++r) {
    if (launch.reqs[r].priv == Privilege::RO || P <= 1) continue;
    bool overlapping = false;
    for (int q = 1; q < P && !overlapping; ++q) {
      for (int p = 0; p < q && !overlapping; ++p) {
        overlapping = plan->subsets[static_cast<size_t>(p)][r].overlaps(
            plan->subsets[static_cast<size_t>(q)][r]);
      }
    }
    plan->req_overlapping[r] = overlapping;
  }

  // Privatize REDUCE requirements whose point subsets overlap: each point
  // accumulates into its own zeroed scratch shaped like the bounding box of
  // its subset; the retirement task folds the scratches in color order
  // (deterministic regardless of worker count). A region named by more than
  // one requirement is never privatized — the redirect is region-wide per
  // task, so it would hijack the sibling requirement's accesses into the
  // scratch; such reductions fall back to color-order serialization below.
  plan->privatized.assign(R, false);
  plan->scratch_box.resize(R);
  std::map<RegionId, int> region_reqs;
  for (size_t r = 0; r < R; ++r) ++region_reqs[launch.reqs[r].region->id()];
  for (size_t r = 0; r < R; ++r) {
    if (launch.reqs[r].priv != Privilege::REDUCE ||
        !plan->req_overlapping[r]) {
      continue;
    }
    if (region_reqs[launch.reqs[r].region->id()] > 1) continue;
    if (!launch.reqs[r].region->can_privatize()) continue;
    plan->privatized[r] = true;
    auto& boxes = plan->scratch_box[r];
    boxes.resize(static_cast<size_t>(P));
    for (int p = 0; p < P; ++p) {
      const IndexSubset& s = plan->subsets[static_cast<size_t>(p)][r];
      if (s.empty()) {
        RectN empty;  // lo > hi in every dimension
        empty.dim = launch.reqs[r].region->space().dim();
        boxes[static_cast<size_t>(p)] = empty;
      } else {
        boxes[static_cast<size_t>(p)] = s.bounds();
      }
    }
  }

  // Accesses per point, as dependence analysis sees them; the privatization
  // split is per requirement, so it is recorded once as index lists.
  plan->accesses.resize(static_cast<size_t>(P));
  for (int p = 0; p < P; ++p) {
    auto& acc = plan->accesses[static_cast<size_t>(p)];
    acc.reserve(R);
    for (size_t r = 0; r < R; ++r) {
      acc.push_back(exec::RegionAccess{
          launch.reqs[r].region->id(),
          plan->subsets[static_cast<size_t>(p)][r],
          to_mode(launch.reqs[r].priv), plan->privatized[r]});
    }
  }
  for (size_t r = 0; r < R; ++r) {
    (plan->privatized[r] ? plan->folded_reqs : plan->direct_reqs).push_back(r);
  }
  plan->resident.assign(static_cast<size_t>(P) * R, 0);

  // Intra-launch conflict edges by pairwise privilege analysis in color
  // order (WO/RW serialize per overlapping subset; RO/RO and privatized
  // REDUCE/REDUCE commute). Same-requirement conflicts exist only for
  // non-RO requirements with overlapping, non-privatized point subsets;
  // cross-requirement conflicts only when two requirements name the same
  // region. Both are rare, so the pairwise point loop usually has nothing
  // to test.
  std::vector<size_t> same_req;
  for (size_t r = 0; r < R; ++r) {
    if (plan->req_overlapping[r] && !plan->privatized[r]) {
      same_req.push_back(r);
    }
  }
  std::vector<std::pair<size_t, size_t>> cross_req;
  for (size_t r = 0; r < R; ++r) {
    for (size_t s = r + 1; s < R; ++s) {
      if (launch.reqs[r].region->id() == launch.reqs[s].region->id()) {
        cross_req.push_back({r, s});
      }
    }
  }
  if (!same_req.empty() || !cross_req.empty()) {
    auto conflicts = [&](int p, size_t rp, int q, size_t rq) {
      const auto& ap = plan->accesses[static_cast<size_t>(p)][rp];
      const auto& aq = plan->accesses[static_cast<size_t>(q)][rq];
      return exec::modes_conflict(ap.mode, ap.privatized, aq.mode,
                                  aq.privatized) &&
             ap.subset.overlaps(aq.subset);
    };
    for (int q = 1; q < P; ++q) {
      for (int p = 0; p < q; ++p) {
        bool conflict = false;
        for (size_t r : same_req) {
          if ((conflict = conflicts(p, r, q, r))) break;
        }
        for (size_t k = 0; k < cross_req.size() && !conflict; ++k) {
          const auto& [r, s] = cross_req[k];
          conflict = conflicts(p, r, q, s) || conflicts(p, s, q, r);
        }
        if (conflict) plan->conflict_edges.push_back({p, q});
      }
    }
  }

  // Retirement replay script: the ordered pairwise-overlap combines of
  // partitioned REDUCE requirements, captured in the exact iteration order
  // the cold accounting scan used, so account_launch replays identically.
  plan->reduce_pairs.resize(R);
  for (size_t r = 0; r < R; ++r) {
    if (launch.reqs[r].priv != Privilege::REDUCE || !plan->partitioned[r]) {
      continue;
    }
    for (int q = 1; q < P; ++q) {
      for (int p = 0; p < q; ++p) {
        IndexSubset ov = plan->subsets[static_cast<size_t>(p)][r].intersect(
            plan->subsets[static_cast<size_t>(q)][r]);
        if (ov.empty()) continue;
        plan->reduce_pairs[r].push_back(
            LaunchPlan::ReducePair{p, q, std::move(ov)});
      }
    }
  }

  // The rest of the retire that depends on the plan alone: how each
  // privatized point's scratch folds (runs over the region bounds and the
  // box make_scratch clips), and what each write-back leaves valid where.
  plan->spare = plan->empty_scratch();
  plan->fold.resize(R);
  for (size_t r : plan->folded_reqs) {
    const RectN& bounds = launch.reqs[r].region->space().bounds();
    LaunchPlan::FoldScript& fold = plan->fold[r];
    fold.begin.reserve(static_cast<size_t>(P) + 1);
    for (int p = 0; p < P; ++p) {
      fold.begin.push_back(fold.runs.size());
      const RectN box =
          plan->scratch_box[r][static_cast<size_t>(p)].intersect(bounds);
      const std::vector<FoldRun> runs = fold_script(
          bounds, box, plan->subsets[static_cast<size_t>(p)][r]);
      fold.runs.insert(fold.runs.end(), runs.begin(), runs.end());
    }
    fold.begin.push_back(fold.runs.size());
  }
  std::vector<Mem> mems(static_cast<size_t>(P));
  for (int p = 0; p < P; ++p) {
    mems[static_cast<size_t>(p)] =
        machine_.proc_mem(plan->procs[static_cast<size_t>(p)]);
  }
  plan->write_back.resize(R);
  for (size_t r = 0; r < R; ++r) {
    if (launch.reqs[r].priv == Privilege::RO) continue;
    plan->write_back[r] = write_back_script(
        plan->subsets, r, mems, launch.reqs[r].region->elem_size());
  }
  return plan;
}

std::shared_ptr<const PreparedLaunch> Runtime::prepare(
    const IndexLaunch& launch) {
  SPDISTAL_CHECK(launch.domain >= 1, "empty launch domain");
  SPDISTAL_CHECK(launch.body, "launch without body");
  auto prepared = std::make_shared<PreparedLaunch>();
  {
    const bool traced = obs::TraceRecorder::global().active() && observed_;
    obs::Span plan_span("runtime",
                        traced ? std::string("plan_build") : std::string());
    prepared->plan = build_plan(launch);
  }
  prepared->launch = launch;
  // Subsets are captured in the plan; the borrowed partition pointers need
  // not outlive this call.
  for (RegionReq& req : prepared->launch.reqs) req.partition = nullptr;
  prepared->runtime = this;
  ++plan_misses_;
  return prepared;
}

exec::Future Runtime::execute(
    const std::shared_ptr<const PreparedLaunch>& prepared) {
  SPD_CHECK(prepared->runtime == this, SpdError,
            "execute: launch `" << prepared->launch.name
                                << "` was prepared by another Runtime");
  const IndexLaunch& launch = prepared->launch;
  const std::shared_ptr<const LaunchPlan>& plan = prepared->plan;
  if (prepared->executed) {
    ++plan_hits_;
  } else {
    prepared->executed = true;
  }
  // Whether this launch's spans and flow events are recorded is decided
  // here, on the submitting thread, so it is deterministic in submission
  // order regardless of worker count.
  obs::TraceRecorder& trec = obs::TraceRecorder::global();
  const bool traced = trec.active() && observed_;
  // Tasks are named only while a capture is live: the executor records a
  // span for a named task only.
  const bool named = trec.active();
  // Host-timeline span for the enqueue (name only built when recording).
  obs::Span enqueue_span(
      "runtime", traced ? "enqueue " + launch.name : std::string());
  const int P = launch.domain;
  const size_t R = launch.reqs.size();

  // Mint a flow-id block for this launch and start every arrow inside the
  // enqueue span: id base+2p links the enqueue to point p's simulated span,
  // id base+2p+1 links it to point p's measured wall-clock span.
  uint64_t flow_base = 0;
  if (traced) {
    flow_base = trec.alloc_flow_ids(static_cast<uint64_t>(2 * P));
    for (int p = 0; p < P; ++p) {
      const uint64_t base = flow_base + 2 * static_cast<uint64_t>(p);
      trec.host_flow('s', base, "launch", launch.name);
      trec.host_flow('s', base + 1, "launch", launch.name);
    }
  }

  // Dependence-race audit (verify mode): diff the plan's conflict edges
  // against the brute-force oracle. Throws VerifyError at the enqueue site
  // on a race.
  if (verify_) {
    verify::AuditInput in;
    in.launch_name = launch.name;
    in.points = P;
    in.reqs.reserve(R);
    for (size_t r = 0; r < R; ++r) {
      in.reqs.push_back(verify::ReqView{
          launch.reqs[r].region->id(), launch.reqs[r].region->name(),
          to_mode(launch.reqs[r].priv), plan->privatized[r]});
    }
    in.subsets = &plan->subsets;
    in.edges = &plan->conflict_edges;
    verify::audit_launch(in);
  }

  auto rec = std::make_shared<LaunchRecord>();
  rec->prepared = prepared;
  rec->work.resize(static_cast<size_t>(P));
  if (!plan->folded_reqs.empty()) rec->scratch = plan->empty_scratch();
  rec->traced = traced;
  rec->flow_base = flow_base;
  rec->verify = verify_;
  for (size_t r : plan->folded_reqs) {
    launch.reqs[r].region->begin_redirect_epoch();
  }

  // Read-only operand fingerprinting (verify mode): RO requirements whose
  // region the launch never writes get hashed before any point runs and
  // re-hashed at retirement; a changed fingerprint is a write under RO.
  exec::TaskId prehash = 0;
  if (verify_) {
    auto vs = std::make_unique<LaunchRecord::VerifyState>();
    for (size_t r = 0; r < R; ++r) {
      if (launch.reqs[r].priv != Privilege::RO) continue;
      bool written_elsewhere = false;
      for (size_t s = 0; s < R; ++s) {
        written_elsewhere |= s != r && launch.reqs[s].priv != Privilege::RO &&
                             launch.reqs[s].region->id() ==
                                 launch.reqs[r].region->id();
      }
      if (written_elsewhere) continue;
      IndexSubset u(launch.reqs[r].region->space().dim());
      for (int p = 0; p < P; ++p) {
        for (const RectN& rect :
             plan->subsets[static_cast<size_t>(p)][r].rects()) {
          u.add(rect);
        }
      }
      u.normalize();
      vs->hash_reqs.push_back(r);
      vs->hash_subsets.push_back(std::move(u));
    }
    if (!vs->hash_reqs.empty()) {
      vs->before.resize(vs->hash_reqs.size());
      rec->vstate = std::move(vs);
      prehash = ex_->create(
          named ? launch.name + ":verify_prehash" : std::string(), [rec] {
            auto& st = *rec->vstate;
            for (size_t i = 0; i < st.hash_reqs.size(); ++i) {
              st.before[i] = rec->prepared->launch.reqs[st.hash_reqs[i]]
                                 .region->content_hash(st.hash_subsets[i]);
            }
          });
    }
  }

  // Mint the point tasks and the retirement task.
  std::vector<exec::TaskId> ids(static_cast<size_t>(P));
  for (int p = 0; p < P; ++p) {
    ids[static_cast<size_t>(p)] = ex_->create(
        named ? strprintf("%s[%d]", launch.name.c_str(), p) : std::string(),
        [this, rec, p] {
          // Take this point's reduction scratches from the plan's spares
          // and zero them, allocating where there is none (per-point work;
          // doing it here parallelizes it), and install the redirects for
          // the body's duration. Each task only touches its own scratch
          // slot; the retirement task reads the slots after every point
          // completed (ordered by its edges).
          const IndexLaunch& launch = rec->prepared->launch;
          const LaunchPlan& plan = *rec->prepared->plan;
          std::vector<RegionBase::Redirect> rds;
          if (!plan.folded_reqs.empty()) {
            plan.take_spares(rec->scratch, static_cast<size_t>(p));
          }
          for (size_t r : plan.folded_reqs) {
            RegionBase& region = *launch.reqs[r].region;
            std::shared_ptr<ScratchHeader>& scratch =
                rec->scratch[r][static_cast<size_t>(p)];
            if (scratch == nullptr) {
              scratch = region.make_scratch(
                  plan.scratch_box[r][static_cast<size_t>(p)]);
            } else if (scratch->base != nullptr) {
              // Privatized element types are arithmetic: all-zero bytes
              // are the zero make_scratch fills with.
              std::memset(scratch->base, 0,
                          static_cast<size_t>(scratch->box.volume()) *
                              region.elem_size());
            }
            rds.push_back(RegionBase::Redirect{region.id(), scratch.get()});
          }
          RegionBase::ScopedRedirects guard(rds.data(), rds.size());
          const std::vector<IndexSubset>& row =
              plan.subsets[static_cast<size_t>(p)];
          TaskContext ctx(p, plan.procs[static_cast<size_t>(p)], row);
          // A traced launch times each leaf for the measured trace track.
          // The timer brackets only the body (scratch allocation and verify
          // post-checks are runtime overhead, not kernel time).
          const double wall0 = rec->traced ? obs::wall_us() : 0.0;
          double wall1 = 0.0;
          if (!rec->verify) {
            rec->work[static_cast<size_t>(p)] = launch.body(ctx);
            if (rec->traced) wall1 = obs::wall_us();
          } else {
            // Verify mode: declare the point's subsets, so that every
            // coordinate the body touches is tested against them as it
            // happens, then report what escaped.
            TouchLog tlog;
            for (size_t r = 0; r < row.size(); ++r) {
              const RegionReq& req = launch.reqs[r];
              tlog.declare(req.region->id(), req.region->name(), row[r],
                           req.priv != Privilege::WO);
            }
            {
              ScopedTouchLog tguard(&tlog);
              rec->work[static_cast<size_t>(p)] = launch.body(ctx);
              if (rec->traced) wall1 = obs::wall_us();
            }
            verify::check_task_touches(
                strprintf("%s[%d]", launch.name.c_str(), p), tlog);
          }
          if (rec->traced && obs::TraceRecorder::global().active()) {
            const WorkEstimate& w = rec->work[static_cast<size_t>(p)];
            obs::TraceRecorder& trec = obs::TraceRecorder::global();
            trec.meas_leaf(
                launch.name, p, wall0, wall1 - wall0,
                obs::SpanArgs{
                    .kind = obs::SpanArgs::kLeaf,
                    .bytes = w.bytes,
                    .nnz = w.nnz,
                    .flops = w.flops,
                    .sim_s = sim_.task_duration(ctx.proc(), w,
                                                launch.leaf_threads)});
            trec.meas_flow_end(
                rec->flow_base + 2 * static_cast<uint64_t>(p) + 1, "launch",
                launch.name, p, wall0);
          }
        });
  }
  const exec::TaskId retire = ex_->create(
      named ? launch.name + ":retire" : std::string(), [this, rec] {
        // Fold privatized reductions in color order by replaying the
        // plan's runs, close their redirect epochs, put the scratches back
        // as the plan's spares, then replay the simulated cost accounting.
        const IndexLaunch& launch = rec->prepared->launch;
        const LaunchPlan& plan = *rec->prepared->plan;
        for (size_t r : plan.folded_reqs) {
          RegionBase& region = *launch.reqs[r].region;
          const LaunchPlan::FoldScript& fold = plan.fold[r];
          for (size_t p = 0; p < plan.procs.size(); ++p) {
            // A point that failed before allocating (e.g. scratch
            // bad_alloc, surfaced as a deferred error) leaves a null slot.
            const auto& scratch = rec->scratch[r][p];
            if (scratch == nullptr) continue;
            region.fold_runs(
                scratch.get(),
                std::span<const FoldRun>(fold.runs).subspan(
                    fold.begin[p], fold.begin[p + 1] - fold.begin[p]));
          }
          region.end_redirect_epoch();
        }
        if (!plan.folded_reqs.empty()) plan.put_spares(rec->scratch);
        account_launch(*rec);
        if (rec->vstate != nullptr) {
          // Re-fingerprint the RO operands now that every point retired; a
          // change means some leaf wrote data it only held read privileges
          // on. Throws — surfaced as a deferred error at wait()/flush().
          const auto& st = *rec->vstate;
          for (size_t i = 0; i < st.hash_reqs.size(); ++i) {
            RegionBase& region = *launch.reqs[st.hash_reqs[i]].region;
            if (region.content_hash(st.hash_subsets[i]) != st.before[i]) {
              verify::report_ro_write(launch.name, region.name());
            }
          }
        }
      });

  // Cross-launch edges from the requirement history (necessarily computed
  // per execution — the history is live state); intra-launch edges replayed
  // from the plan.
  for (int p = 0; p < P; ++p) {
    for (exec::TaskId d :
         tracker_->deps_for(plan->accesses[static_cast<size_t>(p)])) {
      ex_->add_dep(ids[static_cast<size_t>(p)], d);
    }
    ex_->add_dep(retire, ids[static_cast<size_t>(p)]);
  }
  if (prehash != 0) {
    // The prehash reads what the points read: order it after the same
    // prior writers, before every point, and record its read under the
    // retirement task so later writers wait for the post-launch re-hash.
    std::vector<exec::RegionAccess> hash_acc;
    const auto& st = *rec->vstate;
    for (size_t i = 0; i < st.hash_reqs.size(); ++i) {
      hash_acc.push_back(exec::RegionAccess{
          launch.reqs[st.hash_reqs[i]].region->id(), st.hash_subsets[i],
          exec::AccessMode::Read, false});
    }
    for (exec::TaskId d : tracker_->deps_for(hash_acc)) {
      ex_->add_dep(prehash, d);
    }
    for (int p = 0; p < P; ++p) {
      ex_->add_dep(ids[static_cast<size_t>(p)], prehash);
    }
    tracker_->record(retire, hash_acc);
  }
  for (const auto& [p, q] : plan->conflict_edges) {
    ex_->add_dep(ids[static_cast<size_t>(q)], ids[static_cast<size_t>(p)]);
  }
  // The retire chain totally orders cost accounting in submission order —
  // what makes the SimReport bit-identical to the serial schedule.
  ex_->add_dep(retire, last_retire_);
  last_retire_ = retire;

  // Record the accesses: later conflicting tasks wait on the point that
  // produced the data, or on the retirement (fold) for privatized
  // reductions. The history shares the plan's subsets.
  for (int p = 0; p < P; ++p) {
    if (!plan->direct_reqs.empty()) {
      tracker_->record(ids[static_cast<size_t>(p)],
                       plan->accesses[static_cast<size_t>(p)],
                       plan->direct_reqs, plan);
    }
    if (!plan->folded_reqs.empty()) {
      tracker_->record(retire, plan->accesses[static_cast<size_t>(p)],
                       plan->folded_reqs, plan);
    }
  }

  if (prehash != 0) ex_->commit(prehash);
  for (int p = 0; p < P; ++p) ex_->commit(ids[static_cast<size_t>(p)]);
  ex_->commit(retire);
  return ex_->future(retire);
}

exec::Future Runtime::run_host_task(std::string name,
                                    std::vector<HostAccess> accesses,
                                    std::function<void()> fn) {
  std::vector<exec::RegionAccess> acc;
  acc.reserve(accesses.size());
  for (const HostAccess& a : accesses) {
    acc.push_back(exec::RegionAccess{a.region->id(),
                                     a.region->space().as_subset(),
                                     to_mode(a.priv), false});
  }
  const exec::TaskId id = ex_->create(std::move(name), std::move(fn));
  for (exec::TaskId d : tracker_->deps_for(acc)) ex_->add_dep(id, d);
  tracker_->record(id, acc);
  ex_->commit(id);
  return ex_->future(id);
}

void Runtime::flush() { ex_->flush(); }

void Runtime::barrier() {
  flush();
  sim_.barrier();
}

void Runtime::account_launch(LaunchRecord& rec) {
  const IndexLaunch& launch = rec.prepared->launch;
  const LaunchPlan& plan = *rec.prepared->plan;
  struct PointResult {
    Proc proc;
    double completion = 0;
  };
  std::vector<PointResult> points(static_cast<size_t>(launch.domain));

  // Sim-track labels are built only while a capture is live and the launch
  // was traced; the per-kernel row accumulates whenever this runtime is
  // observed.
  const bool tracing =
      sim_.trace() != nullptr && sim_.trace()->active() && rec.traced;
  obs::KernelStats* row = observed_ ? &kernel_rows_[launch.name] : nullptr;
  std::string pt_name;

  const size_t R = launch.reqs.size();
  for (int p = 0; p < launch.domain; ++p) {
    const Proc proc = plan.procs[static_cast<size_t>(p)];
    const Mem target = machine_.proc_mem(proc);
    double data_ready = 0;
    for (size_t r = 0; r < R; ++r) {
      const RegionReq& req = launch.reqs[r];
      const IndexSubset& s = plan.subsets[static_cast<size_t>(p)][r];
      switch (req.priv) {
        case Privilege::RO:
        case Privilege::RW: {
          // Residency memo: while the slot equals the region's epoch,
          // nothing has dropped a point of `s` from `target` since a fetch
          // left it valid there, so fetch would find `s \ valid` empty and
          // return max(0, ready[target]).
          PlacementInfo& pl = placement(*req.region);
          uint64_t& slot = plan.resident[static_cast<size_t>(p) * R + r];
          if (slot != pl.epoch) {
            data_ready =
                std::max(data_ready, fetch(*req.region, s, target, 0.0));
            if (!s.empty()) slot = pl.epoch;
            break;
          }
          if (rec.verify) {
            const auto it = pl.valid.find(target);
            const IndexSubset missing =
                it == pl.valid.end() ? s : s.subtract(*it->second);
            if (!missing.empty()) {
              verify::report_stale_residency(launch.name, p,
                                             req.region->name(), missing);
            }
          }
          data_ready = std::max(data_ready, std::max(0.0, pl.ready[target]));
          break;
        }
        case Privilege::WO:
        case Privilege::REDUCE: {
          // Output instance in the target memory; no data motion inbound.
          // Allocation deferred to the write-back pass below (which knows
          // what is already resident).
          break;
        }
      }
    }
    const WorkEstimate& work = rec.work[static_cast<size_t>(p)];
    const char* nm = launch.name.c_str();
    if (tracing) {
      pt_name = strprintf("%s[%d]", launch.name.c_str(), p);
      nm = pt_name.c_str();
    }
    const uint64_t flow =
        tracing ? rec.flow_base + 2 * static_cast<uint64_t>(p) : 0;
    const double done =
        sim_.run_task(proc, work, launch.leaf_threads, data_ready, nm, flow);
    if (row != nullptr) {
      row->tasks += 1;
      row->flops += work.flops;
      row->bytes += work.bytes;
      row->busy_s += machine_.config().task_overhead_s +
                     sim_.task_duration(proc, work, launch.leaf_threads);
    }
    points[static_cast<size_t>(p)] = PointResult{proc, done};
  }

  // Write-back pass: writes re-home the region to the writers' memories.
  // The placement is empty after the drop, so what each writer newly makes
  // valid, and the valid sets that result, come from the plan's script:
  // allocate in color order, take the ready maxima, install the unions.
  for (size_t r = 0; r < R; ++r) {
    const RegionReq& req = launch.reqs[r];
    if (req.priv == Privilege::RO) continue;
    RegionBase& region = *req.region;
    drop_placement(region);
    PlacementInfo& pl = placement(region);
    const double elem = static_cast<double>(region.elem_size());
    const WriteBackScript& wb = plan.write_back[r];
    for (const WriteBackScript::Writer& w : wb.writers) {
      if (w.fresh_bytes > 0) {
        mems_.pool(w.mem).allocate(w.fresh_bytes, region.name());
        pl.alloc_bytes[w.mem] += w.fresh_bytes;
      }
      double& rdy = pl.ready[w.mem];
      rdy = std::max(rdy, points[static_cast<size_t>(w.point)].completion);
    }
    for (const auto& [mem, u] : wb.valid) {
      pl.valid.emplace_hint(pl.valid.end(), mem, u);
    }
    // Partial results on overlapping subsets are combined at the
    // lowest-colored owner: transfer + add for each pairwise overlap,
    // replayed from the plan's precomputed script (same pairs, same order
    // as the cold O(P^2) scan).
    const std::string combine_name =
        tracing ? launch.name + ":combine" : std::string();
    for (const auto& pair : plan.reduce_pairs[r]) {
      const Proc owner = points[static_cast<size_t>(pair.p)].proc;
      const Proc src = points[static_cast<size_t>(pair.q)].proc;
      const double bytes =
          static_cast<double>(pair.overlap.volume()) * elem;
      const double t = net_.transfer(
          machine_.proc_mem(src), machine_.proc_mem(owner), bytes,
          points[static_cast<size_t>(pair.q)].completion);
      WorkEstimate combine;
      combine.flops = static_cast<double>(pair.overlap.volume());
      combine.bytes = 2 * bytes;
      sim_.run_task(owner, combine, launch.leaf_threads, t,
                    tracing ? combine_name.c_str() : nullptr);
    }
  }
}

void Runtime::charge_transfer(const Mem& src, const Mem& dst, double bytes) {
  flush();
  const Proc src_cpu{src.node, ProcKind::CPU, 0};
  const Proc dst_cpu{dst.node, ProcKind::CPU, 0};
  const double t = net_.transfer(src, dst, bytes, sim_.clock(src_cpu));
  sim_.set_clock(dst_cpu, std::max(sim_.clock(dst_cpu), t));
}

void Runtime::reset_timing() {
  flush();
  sim_.reset();
  net_.reset_stats();
  net_.reset_clocks();
  kernel_rows_.clear();
  for (auto& [id, pl] : placements_) {
    for (auto& [mem, rdy] : pl.ready) rdy = 0.0;
  }
}

SimReport Runtime::report() const {
  ex_->flush();
  SimReport rep;
  rep.sim_time = sim_.now_max();
  rep.inter_node_bytes = net_.stats().inter_node_bytes;
  rep.intra_node_bytes = net_.stats().intra_node_bytes;
  rep.messages = net_.stats().messages;
  rep.tasks = sim_.tasks_run();
  rep.imbalance = sim_.imbalance();
  rep.peak_sysmem = mems_.peak(MemKind::SYS);
  rep.peak_fbmem = mems_.peak(MemKind::FB);
  rep.plan_hits = plan_hits_;
  rep.plan_misses = plan_misses_;
  rep.kernels = kernel_rows_;
  return rep;
}

}  // namespace spdistal::rt
