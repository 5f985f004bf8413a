// Tests for the deferred task-graph executor: worker pool + task graph
// mechanics, dependence analysis rules, determinism of the parallel
// execution (bit-identical outputs and SimReports for any worker count),
// and a randomized dependence stress test (run under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <thread>

#include "common/rng.h"
#include "compiler/lower.h"
#include "data/generators.h"
#include "exec/dep_graph.h"
#include "exec/executor.h"
#include "tensor/dense_ref.h"
#include "tensor/tensor.h"

namespace spdistal {
namespace {

using comp::CompiledKernel;
using rt::Coord;

rt::Machine cpu_machine(int nodes, rt::Grid grid) {
  rt::MachineConfig cfg;
  cfg.nodes = nodes;
  return rt::Machine(cfg, grid, rt::ProcKind::CPU);
}

// --- executor mechanics -------------------------------------------------------

TEST(Executor, IndependentTasksAllRetire) {
  exec::Executor ex(exec::WorkerPool::create(4));
  std::atomic<int> done{0};
  std::vector<exec::TaskId> ids;
  for (int k = 0; k < 64; ++k) {
    ids.push_back(ex.submit("t", [&done] { ++done; }));
  }
  ex.flush();
  EXPECT_EQ(done.load(), 64);
  for (exec::TaskId id : ids) EXPECT_TRUE(ex.done(id));
  EXPECT_EQ(ex.stats().retired, 64u);
}

TEST(Executor, DependenceChainRunsInOrder) {
  exec::Executor ex(exec::WorkerPool::create(4));
  std::vector<int> order;
  exec::TaskId prev = 0;
  for (int k = 0; k < 16; ++k) {
    prev = ex.submit("chain", [&order, k] { order.push_back(k); },
                     prev == 0 ? std::vector<exec::TaskId>{}
                               : std::vector<exec::TaskId>{prev});
  }
  ex.wait(prev);
  ASSERT_EQ(order.size(), 16u);
  for (int k = 0; k < 16; ++k) EXPECT_EQ(order[static_cast<size_t>(k)], k);
}

TEST(Executor, SerialPoolRunsEverythingOnWaiter) {
  // One context => no worker threads: tasks run inside flush() on the
  // calling thread, in dependence order.
  exec::Executor ex(exec::WorkerPool::create(1));
  const auto submitter = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on;
  ex.submit("serial", [&] { ran_on.push_back(std::this_thread::get_id()); });
  ex.flush();
  ASSERT_EQ(ran_on.size(), 1u);
  EXPECT_EQ(ran_on[0], submitter);
}

TEST(Executor, DeferredErrorSurfacesAtFlush) {
  exec::Executor ex(exec::WorkerPool::create(2));
  ex.submit("boom", [] { throw OutOfMemoryError("simulated"); });
  EXPECT_THROW(ex.flush(), OutOfMemoryError);
  // The error is consumed; the executor stays usable.
  std::atomic<int> done{0};
  ex.submit("ok", [&done] { ++done; });
  ex.flush();
  EXPECT_EQ(done.load(), 1);
}

TEST(Executor, NestedWaitHelpsInsteadOfDeadlocking) {
  // A task that itself submits work and waits for it must make progress on
  // a single-context pool (the waiting task helps execute).
  auto pool = exec::WorkerPool::create(1);
  exec::Executor ex(pool);
  std::atomic<int> inner_done{0};
  ex.submit("outer", [&] {
    exec::Executor nested(pool);
    nested.submit("inner", [&inner_done] { ++inner_done; });
    nested.flush();
  });
  ex.flush();
  EXPECT_EQ(inner_done.load(), 1);
}

// --- dependence rules ---------------------------------------------------------

TEST(DepTracker, PrivilegeConflictMatrix) {
  using exec::AccessMode;
  // Read/Read and privatized Reduce/Reduce commute; everything else
  // serializes.
  EXPECT_FALSE(exec::modes_conflict(AccessMode::Read, false,
                                    AccessMode::Read, false));
  EXPECT_TRUE(exec::modes_conflict(AccessMode::Read, false,
                                   AccessMode::Write, false));
  EXPECT_TRUE(exec::modes_conflict(AccessMode::Write, false,
                                   AccessMode::Write, false));
  EXPECT_TRUE(exec::modes_conflict(AccessMode::Write, false,
                                   AccessMode::Reduce, false));
  EXPECT_FALSE(exec::modes_conflict(AccessMode::Reduce, true,
                                    AccessMode::Reduce, true));
  // A privatized epoch and a direct-write reduction racing on the same
  // elements would be order-dependent: they serialize.
  EXPECT_TRUE(exec::modes_conflict(AccessMode::Reduce, true,
                                   AccessMode::Reduce, false));
  EXPECT_TRUE(exec::modes_conflict(AccessMode::Reduce, false,
                                   AccessMode::Reduce, false));
}

TEST(DepTracker, EdgesFollowOverlapAndPrivilege) {
  exec::Executor ex(exec::WorkerPool::create(1));
  exec::DepTracker tracker(ex);
  auto acc = [](uint32_t region, Coord lo, Coord hi, exec::AccessMode m) {
    return std::vector<exec::RegionAccess>{
        {region, rt::IndexSubset(rt::RectN::make1(lo, hi)), m, false}};
  };
  const exec::TaskId w = ex.submit("w", nullptr);
  tracker.record(w, acc(7, 0, 99, exec::AccessMode::Write));

  // Overlapping read after write: one edge. Disjoint region: none.
  EXPECT_EQ(tracker.deps_for(acc(7, 50, 60, exec::AccessMode::Read)),
            std::vector<exec::TaskId>{w});
  EXPECT_TRUE(tracker.deps_for(acc(8, 50, 60, exec::AccessMode::Read)).empty());

  const exec::TaskId r1 = ex.submit("r1", nullptr);
  tracker.record(r1, acc(7, 0, 49, exec::AccessMode::Read));
  // Read/read commute: a second reader only waits on the writer.
  EXPECT_EQ(tracker.deps_for(acc(7, 0, 99, exec::AccessMode::Read)),
            std::vector<exec::TaskId>{w});
  // A later write waits on both the writer and the reader.
  const auto deps = tracker.deps_for(acc(7, 0, 99, exec::AccessMode::Write));
  EXPECT_EQ(deps.size(), 2u);
}

TEST(DepTracker, FullCoverWriteCompactsHistory) {
  exec::Executor ex(exec::WorkerPool::create(1));
  exec::DepTracker tracker(ex);
  rt::IndexSubset full(rt::RectN::make1(0, 99));
  for (int k = 0; k < 20; ++k) {
    tracker.record(ex.submit("r", nullptr),
                   {{3, rt::IndexSubset(rt::RectN::make1(k, k + 4)),
                     exec::AccessMode::Read, false}});
  }
  EXPECT_EQ(tracker.history_size(), 20u);
  tracker.record(ex.submit("w", nullptr),
                 {{3, full, exec::AccessMode::Write, false}});
  // The dominating write supersedes every reader it covers.
  EXPECT_EQ(tracker.history_size(), 1u);
  ex.flush();
}

TEST(DepTracker, HistoryCollapseKeepsExactUnionAndOrdering) {
  exec::Executor ex(exec::WorkerPool::create(1));
  exec::DepTracker tracker(ex);
  // Reader k covers [20k, 20k+3], [20k+8, 20k+9] and [20k+15, 20k+21]; the
  // last piece runs into reader k+1's first. Points 20k+4..7 and
  // 20k+10..14 stay uncovered. The serial pool runs nothing before flush,
  // so the 129th record collapses all of them behind one sync task.
  constexpr int kReaders = 129;
  std::vector<exec::TaskId> readers;
  for (int k = 0; k < kReaders; ++k) {
    rt::IndexSubset s(1);
    s.add(rt::RectN::make1(20 * k + 15, 20 * k + 21));
    s.add(rt::RectN::make1(20 * k, 20 * k + 3));
    s.add(rt::RectN::make1(20 * k + 8, 20 * k + 9));
    s.normalize();
    readers.push_back(ex.submit("r", nullptr));
    tracker.record(readers.back(), {{3, s, exec::AccessMode::Read, false}});
  }
  EXPECT_EQ(tracker.history_size(), 1u);
  auto write_at = [&](Coord p) {
    return tracker.deps_for({{3, rt::IndexSubset(rt::RectN::make1(p, p)),
                              exec::AccessMode::Write, false}});
  };
  const std::vector<exec::TaskId> sync = write_at(20 * 64 + 2);
  ASSERT_EQ(sync.size(), 1u);
  EXPECT_GT(sync[0], readers.back()) << "edge must go to the dep-sync task";
  for (int k = 0; k < kReaders; ++k) {
    for (Coord p = 20 * k; p < 20 * k + 20; ++p) {
      const Coord q = p - 20 * k;
      const bool covered = q <= 3 || q == 8 || q == 9 || q >= 15;
      EXPECT_EQ(write_at(p), covered ? sync : std::vector<exec::TaskId>{})
          << "point " << p;
    }
  }
  // The last reader's tail reaches two points past its block, no further.
  EXPECT_EQ(write_at(20 * kReaders + 1), sync);
  EXPECT_TRUE(write_at(20 * kReaders + 2).empty());
  ex.flush();
}

TEST(DepTracker, OversizedHistoryDropsRetiredEntriesFirst) {
  exec::Executor ex(exec::WorkerPool::create(1));
  exec::DepTracker tracker(ex);
  const std::vector<exec::RegionAccess> read{
      {3, rt::IndexSubset(rt::RectN::make1(0, 9)), exec::AccessMode::Read,
       false}};
  // Readers that never retire (the serial pool runs nothing before flush)
  // overflow the history, which collapses behind one sync task.
  for (int k = 0; k < 129; ++k) tracker.record(ex.submit("r", nullptr), read);
  EXPECT_EQ(tracker.history_size(), 1u);
  ex.flush();
  // Readers that retire before the next one is recorded are dropped when
  // the history overflows: no sync task is created.
  const uint64_t created = ex.stats().created;
  for (int k = 0; k < 300; ++k) {
    tracker.record(ex.submit("r", nullptr), read);
    ex.flush();
  }
  EXPECT_EQ(ex.stats().created, created + 300);
  EXPECT_LE(tracker.history_size(), 129u);
  // A live reader is still ordered before a later writer.
  const exec::TaskId live = ex.submit("r", nullptr);
  tracker.record(live, read);
  const std::vector<exec::RegionAccess> write{
      {3, rt::IndexSubset(rt::RectN::make1(5, 5)), exec::AccessMode::Write,
       false}};
  const auto deps = tracker.deps_for(write);
  EXPECT_NE(std::find(deps.begin(), deps.end(), live), deps.end());
  ex.flush();
}

TEST(DepTracker, HistorySharesOwnedSubsets) {
  exec::Executor ex(exec::WorkerPool::create(1));
  exec::DepTracker tracker(ex);
  auto owned = std::make_shared<const std::vector<exec::RegionAccess>>(
      std::vector<exec::RegionAccess>{
          {3, rt::IndexSubset(rt::RectN::make1(0, 9)), exec::AccessMode::Read,
           false}});
  tracker.record(ex.submit("r", nullptr), *owned, owned);
  // The entry refers to the owner's subset rather than a copy.
  EXPECT_EQ(owned.use_count(), 2);
  EXPECT_EQ(tracker
                .deps_for({{3, rt::IndexSubset(rt::RectN::make1(5, 5)),
                            exec::AccessMode::Write, false}})
                .size(),
            1u);
  // A covering write supersedes the entry and releases the owner.
  tracker.record(ex.submit("w", nullptr),
                 {{3, rt::IndexSubset(rt::RectN::make1(0, 99)),
                   exec::AccessMode::Write, false}});
  EXPECT_EQ(owned.use_count(), 1);
  ex.flush();
}

// A read-after-write conflict *between two requirements* of one launch on
// the same region must serialize in color order, even though the reading
// access itself is RO (regression: the pairwise analysis once skipped Read
// accesses of the later point entirely).
TEST(DepTracker, CrossRequirementReadAfterWriteIsOrdered) {
  const rt::Machine m = cpu_machine(2, rt::Grid(2));
  rt::Runtime rt(m, 4);
  auto reg = rt.create_region<double>(rt::IndexSpace(8), "raw");
  reg->fill(0.0);
  // req0 (RO): point 1 reads element 0. req1 (WO): point 0 writes element
  // 0, point 1 writes element 1 — point 1 must wait for point 0.
  std::vector<rt::IndexSubset> ro_subs(2, rt::IndexSubset(1));
  ro_subs[1].add(rt::RectN::make1(0, 0));
  ro_subs[1].normalize();
  std::vector<rt::IndexSubset> wo_subs(2, rt::IndexSubset(1));
  wo_subs[0].add(rt::RectN::make1(0, 0));
  wo_subs[0].normalize();
  wo_subs[1].add(rt::RectN::make1(1, 1));
  wo_subs[1].normalize();
  rt::Partition ro(reg->space(), std::move(ro_subs));
  rt::Partition wo(reg->space(), std::move(wo_subs));
  rt::IndexLaunch launch;
  launch.name = "raw";
  launch.domain = 2;
  launch.reqs = {rt::RegionReq{reg, &ro, rt::Privilege::RO},
                 rt::RegionReq{reg, &wo, rt::Privilege::WO}};
  launch.body = [reg](const rt::TaskContext& ctx) {
    if (ctx.color() == 0) {
      // Give an unordered point 1 every chance to read stale data first.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      (*reg)[0] = 42.0;
    } else {
      (*reg)[1] = (*reg)[0];
    }
    return rt::WorkEstimate{1, 8};
  };
  rt.execute(launch);
  rt.flush();
  EXPECT_DOUBLE_EQ((*reg)[1], 42.0);
}

// --- determinism: parallel == serial, bit for bit -----------------------------

uint64_t bits(double x) { return std::bit_cast<uint64_t>(x); }

void expect_report_identical(const rt::SimReport& a, const rt::SimReport& b,
                             const std::string& what) {
  EXPECT_EQ(bits(a.sim_time), bits(b.sim_time)) << what;
  EXPECT_EQ(bits(a.inter_node_bytes), bits(b.inter_node_bytes)) << what;
  EXPECT_EQ(bits(a.intra_node_bytes), bits(b.intra_node_bytes)) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.tasks, b.tasks) << what;
  EXPECT_EQ(bits(a.imbalance), bits(b.imbalance)) << what;
  EXPECT_EQ(bits(a.peak_sysmem), bits(b.peak_sysmem)) << what;
  EXPECT_EQ(bits(a.peak_fbmem), bits(b.peak_fbmem)) << what;
}

struct ProgramRun {
  std::vector<double> out_vals;
  rt::SimReport report;
};

// Builds the program fresh, runs `iters` iterations on a machine with the
// given executor contexts, and returns output values + report.
template <typename Builder>
ProgramRun run_program(const Builder& build, const rt::Machine& m,
                       int threads, int iters) {
  auto [out, stmt] = build();
  rt::Runtime runtime(m, threads);
  auto inst = CompiledKernel::compile(*stmt, m).instantiate(runtime);
  inst->run(iters);
  ProgramRun r;
  r.out_vals = out.storage().vals()->data();
  r.report = inst->report();
  // Sanity: the parallel path must still match the dense oracle.
  EXPECT_LE(ref::max_abs_diff(out, ref::eval(*stmt)), 1e-10);
  return r;
}

template <typename Builder>
void expect_bit_identical(const Builder& build, const rt::Machine& m,
                          const std::string& what, int iters = 2) {
  const ProgramRun serial = run_program(build, m, 1, iters);
  const ProgramRun parallel = run_program(build, m, 4, iters);
  ASSERT_EQ(serial.out_vals.size(), parallel.out_vals.size()) << what;
  EXPECT_EQ(std::memcmp(serial.out_vals.data(), parallel.out_vals.data(),
                        serial.out_vals.size() * sizeof(double)),
            0)
      << what << ": output values differ between 1 and 4 contexts";
  expect_report_identical(serial.report, parallel.report, what);
}

// SpMV over a non-zero split: piece boundaries straddle rows, so the output
// merges under reduction privileges (privatized scratch + color-order fold).
TEST(ExecDeterminism, SpmvNzReductionBitIdentical) {
  auto build = [] {
    IndexVar i("i"), j("j"), f("f"), fo("fo"), fi("fi");
    Tensor a("a", {96}, fmt::dense_vector());
    Tensor B("B", {96, 96}, fmt::csr(),
             tdn::parse_tdn("B(x, y) fuse(x, y -> g) -> M(~g)"));
    Tensor c("c", {96}, fmt::dense_vector(), tdn::parse_tdn("c(x) -> M(q)"));
    B.from_coo(data::powerlaw_matrix(96, 96, 700, 1.2, 11));
    c.init_dense([](const auto& x) {
      return 1.0 + 0.01 * static_cast<double>(x[0] % 13);
    });
    Statement* stmt = &(a(i) = B(i, j) * c(j));
    a.schedule().fuse(i, j, f).divide_pos(f, fo, fi, 4, "B").distribute(fo);
    return std::make_pair(a, stmt);
  };
  expect_bit_identical(build, cpu_machine(4, rt::Grid(4)), "spmv_nz");
}

// 2-D SpMM distributing (i, k): the k axis does not index the output, so
// row tiles of A fold across the reduction axis every iteration.
TEST(ExecDeterminism, Spmm2dRowAxisFoldBitIdentical) {
  auto build = [] {
    IndexVar i("i"), j("j"), k("k"), io("io"), ii("ii"), ko("ko"), ki("ki");
    Tensor A("A", {64, 24}, fmt::dense_matrix());
    Tensor B("B", {64, 64}, fmt::csr());
    Tensor C("C", {64, 24}, fmt::dense_matrix());
    B.from_coo(data::powerlaw_matrix(64, 64, 500, 1.3, 17));
    C.init_dense([](const auto& x) {
      return 0.25 + 0.01 * static_cast<double>((x[0] * 3 + x[1]) % 29);
    });
    Statement* stmt = &(A(i, j) = B(i, k) * C(k, j));
    A.schedule()
        .divide(i, io, ii, 2)
        .divide(k, ko, ki, 2)
        .distribute(io)
        .distribute(ko);
    return std::make_pair(A, stmt);
  };
  expect_bit_identical(build, cpu_machine(4, rt::Grid(2, 2)),
                       "spmm 2-D (i, k) grid");
}

// 2-D SpMV distributing the reduction variable j: coiter leaf + overlapping
// output pieces merged by reduction.
TEST(ExecDeterminism, Spmv2dReductionAxisBitIdentical) {
  auto build = [] {
    IndexVar i("i"), j("j"), io("io"), ii("ii"), jo("jo"), ji("ji");
    Tensor a("a", {72}, fmt::dense_vector());
    Tensor B("B", {72, 72}, fmt::csr());
    Tensor c("c", {72}, fmt::dense_vector());
    B.from_coo(data::powerlaw_matrix(72, 72, 500, 1.2, 24));
    c.init_dense([](const auto& x) {
      return 1.0 + 0.5 * static_cast<double>(x[0] % 3);
    });
    Statement* stmt = &(a(i) = B(i, j) * c(j));
    a.schedule()
        .divide(i, io, ii, 2)
        .divide(j, jo, ji, 2)
        .distribute(io)
        .distribute(jo);
    return std::make_pair(a, stmt);
  };
  expect_bit_identical(build, cpu_machine(4, rt::Grid(2, 2)),
                       "spmv 2-D reduction axis");
}

// SpTTV over a fully fused non-zero split: sparse output with overlapping
// row partitions (reduction on assembled CSR vals).
TEST(ExecDeterminism, SpttvNzReductionBitIdentical) {
  auto build = [] {
    IndexVar i("i"), j("j"), k("k"), f("f"), g("g"), fo("fo"), fi("fi");
    Tensor A("A", {24, 20}, fmt::csr());
    Tensor B("B", {24, 20, 16}, fmt::csf3(),
             tdn::parse_tdn(
                 "B(x, y, z) fuse(x, y -> g) fuse(g, z -> h) -> M(~h)"));
    Tensor c("c", {16}, fmt::dense_vector(), tdn::parse_tdn("c(x) -> M(q)"));
    B.from_coo(data::powerlaw_3tensor(24, 20, 16, 600, 1.1, 5));
    c.init_dense([](const auto& x) {
      return 1.0 + 0.01 * static_cast<double>(x[0] % 7);
    });
    Statement* stmt = &(A(i, j) = B(i, j, k) * c(k));
    A.schedule()
        .fuse(i, j, f)
        .fuse(f, k, g)
        .divide_pos(g, fo, fi, 4, "B")
        .distribute(fo);
    return std::make_pair(A, stmt);
  };
  expect_bit_identical(build, cpu_machine(4, rt::Grid(4)), "spttv_nz");
}

// --- randomized dependence stress (run under TSan in CI) ----------------------

struct StressResult {
  std::vector<std::vector<double>> regions;
  rt::SimReport report;
};

constexpr Coord kStressSize = 160;

std::vector<rt::RegionRef<double>> stress_regions(rt::Runtime& rt) {
  std::vector<rt::RegionRef<double>> regions;
  for (int k = 0; k < 4; ++k) {
    regions.push_back(rt.create_region<double>(
        rt::IndexSpace(kStressSize), "stress" + std::to_string(k)));
    regions.back()->fill(0.0);
  }
  return regions;
}

// A launch of 1-4 points with 1-2 requirements, each on a random region
// under a random privilege, with random, possibly overlapping, possibly
// empty per-point intervals. `parts` keeps the partitions alive.
rt::IndexLaunch random_launch(
    Rng& rng, std::string name,
    const std::vector<rt::RegionRef<double>>& regions,
    std::vector<std::unique_ptr<rt::Partition>>& parts) {
  rt::IndexLaunch launch;
  launch.name = std::move(name);
  launch.domain = 1 + static_cast<int>(rng.next_below(4));
  const int nreqs = 1 + static_cast<int>(rng.next_below(2));
  std::vector<rt::Privilege> privs;
  for (int r = 0; r < nreqs; ++r) {
    const auto& region = regions[rng.next_below(regions.size())];
    const rt::Privilege priv = static_cast<rt::Privilege>(rng.next_below(4));
    std::vector<rt::IndexSubset> subs;
    for (int c = 0; c < launch.domain; ++c) {
      rt::IndexSubset s(1);
      const int rects = static_cast<int>(rng.next_below(3));
      for (int x = 0; x < rects; ++x) {
        const Coord lo = static_cast<Coord>(rng.next_below(kStressSize));
        const Coord hi =
            std::min<Coord>(kStressSize - 1,
                            lo + static_cast<Coord>(rng.next_below(40)));
        s.add(rt::RectN::make1(lo, hi));
      }
      s.normalize();
      subs.push_back(std::move(s));
    }
    parts.push_back(
        std::make_unique<rt::Partition>(region->space(), std::move(subs)));
    launch.reqs.push_back(rt::RegionReq{region, parts.back().get(), priv});
    privs.push_back(priv);
  }
  const uint64_t salt = rng.next_u64() % 1000;
  // The body captures its region handles by value and touches each
  // requirement's subset with privilege-appropriate operations.
  std::vector<rt::RegionRef<double>> regs;
  for (const auto& req : launch.reqs) {
    regs.push_back(std::static_pointer_cast<rt::Region<double>>(req.region));
  }
  launch.body = [privs, salt, regs](const rt::TaskContext& ctx) {
    for (size_t r = 0; r < privs.size(); ++r) {
      const rt::IndexSubset s = ctx.subset(r);
      rt::Region<double>& region = *regs[r];
      for (const auto& rect : s.rects()) {
        for (Coord i = rect.lo[0]; i <= rect.hi[0]; ++i) {
          const double v =
              static_cast<double>((salt + static_cast<uint64_t>(i)) % 17) +
              0.5 * ctx.color();
          switch (privs[r]) {
            case rt::Privilege::RO: {
              volatile double sink = region[i];
              (void)sink;
              break;
            }
            case rt::Privilege::WO:
              region[i] = v;
              break;
            case rt::Privilege::RW:
              region[i] = region[i] * 0.5 + v;
              break;
            case rt::Privilege::REDUCE:
              region[i] += v;
              break;
          }
        }
      }
    }
    return rt::WorkEstimate{100, 800};
  };
  return launch;
}

StressResult stress_result(rt::Runtime& rt,
                           const std::vector<rt::RegionRef<double>>& regions) {
  rt.flush();
  StressResult res;
  for (const auto& r : regions) res.regions.push_back(r->data());
  res.report = rt.report();
  return res;
}

void expect_stress_identical(const StressResult& a, const StressResult& b,
                             const std::string& what) {
  ASSERT_EQ(a.regions.size(), b.regions.size()) << what;
  for (size_t k = 0; k < a.regions.size(); ++k) {
    ASSERT_EQ(a.regions[k].size(), b.regions[k].size()) << what;
    EXPECT_EQ(std::memcmp(a.regions[k].data(), b.regions[k].data(),
                          a.regions[k].size() * sizeof(double)),
              0)
        << what << ": region " << k << " diverged";
  }
  expect_report_identical(a.report, b.report, what);
}

StressResult run_stress(int threads) {
  const rt::Machine m = cpu_machine(2, rt::Grid(2));
  rt::Runtime rt(m, threads);
  const std::vector<rt::RegionRef<double>> regions = stress_regions(rt);
  // Partitions referenced by in-flight launches must survive submission
  // only (subsets are captured), but keep them alive for clarity.
  std::vector<std::unique_ptr<rt::Partition>> parts;
  Rng rng(0xD15EA5E);
  for (int launch_no = 0; launch_no < 100; ++launch_no) {
    rt.execute(random_launch(rng, "stress" + std::to_string(launch_no),
                             regions, parts));
  }
  return stress_result(rt, regions);
}

TEST(ExecStress, RandomLaunchSequenceBitIdenticalAcrossThreadCounts) {
  expect_stress_identical(run_stress(1), run_stress(4), "stress");
}

// A seeded 200-step sequence over a fixed pool of launches, interleaved
// with the placement calls that drop valid sets. Each pool launch is either
// prepared once, so every re-execution replays its plan and residency memo,
// or executed one-shot, on a fresh plan every time.
StressResult run_reuse_stress(int threads, bool prepared_once) {
  const rt::Machine m = cpu_machine(2, rt::Grid(2));
  rt::Runtime rt(m, threads);
  const std::vector<rt::RegionRef<double>> regions = stress_regions(rt);
  std::vector<std::unique_ptr<rt::Partition>> parts;
  Rng rng(0x5EED5);
  // At least 6 launches, drawn until the pool holds all four privileges.
  std::vector<rt::IndexLaunch> pool;
  std::set<rt::Privilege> privs;
  while (pool.size() < 6 || privs.size() < 4) {
    pool.push_back(random_launch(rng, "reuse" + std::to_string(pool.size()),
                                 regions, parts));
    for (const auto& req : pool.back().reqs) privs.insert(req.priv);
  }
  std::vector<std::shared_ptr<const rt::PreparedLaunch>> prepared;
  if (prepared_once) {
    for (const rt::IndexLaunch& launch : pool) {
      prepared.push_back(rt.prepare(launch));
    }
  }
  const int nodes = m.config().nodes;
  for (int step = 0; step < 200; ++step) {
    if (rng.next_below(4) != 0) {
      const size_t k = rng.next_below(pool.size());
      if (prepared_once) {
        rt.execute(prepared[k]);
      } else {
        rt.execute(pool[k]);
      }
      continue;
    }
    rt::RegionBase& region = *regions[rng.next_below(regions.size())];
    switch (rng.next_below(4)) {
      case 0:
        rt.invalidate(region);
        break;
      case 1: {
        const int pieces = 1 + static_cast<int>(rng.next_below(4));
        const rt::Partition part = rt::partition_equal(region.space(), pieces);
        std::vector<rt::Mem> mems;
        for (int c = 0; c < pieces; ++c) {
          mems.push_back(m.sys_mem(static_cast<int>(rng.next_below(nodes))));
        }
        rt.set_placement(region, part, mems);
        break;
      }
      case 2:
        rt.replicate_sys(region);
        break;
      default:
        rt.place_whole(region,
                       m.sys_mem(static_cast<int>(rng.next_below(nodes))));
        break;
    }
  }
  return stress_result(rt, regions);
}

TEST(ExecStress, ReusedPlansWithPlacementChurnBitIdentical) {
  const StressResult base = run_reuse_stress(1, true);
  EXPECT_GT(base.report.plan_hits, 0);
  for (int threads : {1, 4}) {
    for (bool prepared_once : {true, false}) {
      if (threads == 1 && prepared_once) continue;
      expect_stress_identical(
          base, run_reuse_stress(threads, prepared_once),
          "reuse @" + std::to_string(threads) + " ctx, " +
              (prepared_once ? "prepared once" : "one-shot"));
    }
  }
}

// Back-to-back launches with disjoint requirements share the pool without
// interfering; futures resolve independently.
TEST(ExecPipeline, DisjointLaunchesOverlapAndResolve) {
  const rt::Machine m = cpu_machine(2, rt::Grid(2));
  rt::Runtime rt(m, 4);
  auto ra = rt.create_region<double>(rt::IndexSpace(100), "pa");
  auto rb = rt.create_region<double>(rt::IndexSpace(100), "pb");
  rt::Partition pa = rt::partition_equal(ra->space(), 2);
  rt::Partition pb = rt::partition_equal(rb->space(), 2);
  auto make = [&](rt::RegionRef<double> reg, rt::Partition* part,
                  double value) {
    rt::IndexLaunch launch;
    launch.name = "disjoint";
    launch.domain = 2;
    launch.reqs = {rt::RegionReq{reg, part, rt::Privilege::WO}};
    launch.body = [reg, value](const rt::TaskContext& ctx) {
      const rt::IndexSubset s = ctx.subset(0);
      for (const auto& rect : s.rects()) {
        for (Coord i = rect.lo[0]; i <= rect.hi[0]; ++i) (*reg)[i] = value;
      }
      return rt::WorkEstimate{10, 80};
    };
    return launch;
  };
  const rt::IndexLaunch la = make(ra, &pa, 1.0);
  const rt::IndexLaunch lb = make(rb, &pb, 2.0);
  exec::Future fa = rt.execute(la);
  exec::Future fb = rt.execute(lb);
  fb.wait();
  fa.wait();
  EXPECT_DOUBLE_EQ((*ra)[0], 1.0);
  EXPECT_DOUBLE_EQ((*rb)[99], 2.0);
  // No cross edges between the disjoint launches beyond the retire chain:
  // both ran; the report accounts both.
  EXPECT_EQ(rt.report().tasks, 4);
}

}  // namespace
}  // namespace spdistal
