// Tests for the Runtime's LaunchPlan memo: steady-state executes walk a
// cached plan (no subset capture, no O(P^2) overlap scans) and must be
// bit-identical — output values and SimReport — to the cold path, for any
// executor thread count. Any change of launch identity (repartitioning,
// swapping a region's backing storage) must produce a fresh plan, never a
// stale hit.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <functional>

#include "compiler/lower.h"
#include "data/generators.h"
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

uint64_t bits(double x) { return std::bit_cast<uint64_t>(x); }

// Bit-identity of the simulated fields. Plan hit/miss counters are compared
// by the callers that expect them to match — warm and cold runs differ in
// them by construction.
void expect_sim_identical(const rt::SimReport& a, const rt::SimReport& b,
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

// Builds the program fresh and runs `iters` iterations with the plan memo
// on (warm: iterations 2..n hit the cache) or off (every enqueue cold).
template <typename Builder>
ProgramRun run_program(const Builder& build, const rt::Machine& m,
                       int threads, int iters, bool memo) {
  auto [out, stmt] = build();
  rt::Runtime runtime(m, threads);
  runtime.set_plan_memo(memo);
  auto inst = CompiledKernel::compile(*stmt, m).instantiate(runtime);
  inst->run(iters);
  ProgramRun r;
  r.out_vals = out.storage().vals()->data();
  r.report = inst->report();
  EXPECT_LE(ref::max_abs_diff(out, ref::eval(*stmt)), 1e-10);
  return r;
}

void expect_bit_identical_runs(const ProgramRun& a, const ProgramRun& b,
                               const std::string& what) {
  ASSERT_EQ(a.out_vals.size(), b.out_vals.size()) << what;
  EXPECT_EQ(std::memcmp(a.out_vals.data(), b.out_vals.data(),
                        a.out_vals.size() * sizeof(double)),
            0)
      << what << ": output values differ";
  expect_sim_identical(a.report, b.report, what);
}

// Warm (memoized) executions must be indistinguishable from cold ones under
// every executor configuration the CI matrix runs.
template <typename Builder>
void expect_warm_matches_cold(const Builder& build, const rt::Machine& m,
                              const std::string& what) {
  ProgramRun first_warm;
  bool have_first = false;
  for (int threads : {1, 4}) {
    const std::string cfg = what + " @" + std::to_string(threads) + " ctx";
    const ProgramRun warm = run_program(build, m, threads, 4, true);
    const ProgramRun cold = run_program(build, m, threads, 4, false);
    // The warm run re-enqueued the same launch: 1 miss, then hits. The cold
    // run never consulted the cache.
    EXPECT_GT(warm.report.plan_hits, 0) << cfg;
    EXPECT_EQ(cold.report.plan_hits, 0) << cfg;
    expect_bit_identical_runs(warm, cold, cfg + " warm vs cold");
    // And across thread counts (both warm).
    if (!have_first) {
      first_warm = warm;
      have_first = true;
    } else {
      expect_bit_identical_runs(first_warm, warm, what + " 1 vs 4 ctx warm");
    }
  }
}

// --- every reduction-bearing kernel, warm vs cold -----------------------------

// SpMV over a non-zero split: overlapping output pieces privatize into
// bounding-box scratches folded in color order.
TEST(LaunchPlan, SpmvNzWarmMatchesCold) {
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
  expect_warm_matches_cold(build, cpu_machine(4, rt::Grid(4)), "spmv_nz");
}

// 2-D SpMM distributing (i, k): row tiles of A fold across the reduction
// axis every iteration.
TEST(LaunchPlan, Spmm2dRowAxisFoldWarmMatchesCold) {
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
  expect_warm_matches_cold(build, cpu_machine(4, rt::Grid(2, 2)),
                           "spmm 2-D (i, k) grid");
}

// 2-D SpMV distributing the reduction variable j: co-iteration leaf with a
// 2-D dense scratch box (exercises the linear-accessor translation).
TEST(LaunchPlan, Spmv2dReductionAxisWarmMatchesCold) {
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
  expect_warm_matches_cold(build, cpu_machine(4, rt::Grid(2, 2)),
                           "spmv 2-D reduction axis");
}

// SpTTV over a fully fused non-zero split: sparse output (assembled CSR
// vals) reduced across overlapping row partitions.
TEST(LaunchPlan, SpttvNzWarmMatchesCold) {
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
    A.schedule().fuse(i, j, f).fuse(f, k, g).divide_pos(g, fo, fi, 4, "B")
        .distribute(fo);
    return std::make_pair(A, stmt);
  };
  expect_warm_matches_cold(build, cpu_machine(4, rt::Grid(4)), "spttv_nz");
}

// --- residency memo: warm retires skip fetch only while nothing dropped ------

// The e2ebench spmv_nz_fetch shape at test scale: SpMV split by non-zeros
// over 4 nodes with c block-distributed, so the first iteration moves each
// piece's scattered column footprint and later ones find it resident.
std::pair<Tensor, Statement*> block_c_spmv_nz() {
  IndexVar i("i"), j("j"), f("f"), fo("fo"), fi("fi");
  Tensor a("a", {96}, fmt::dense_vector());
  Tensor B("B", {96, 96}, fmt::csr(),
           tdn::parse_tdn("B(x, y) fuse(x, y -> g) -> M(~g)"));
  Tensor c("c", {96}, fmt::dense_vector(), tdn::parse_tdn("c(x) -> M(x)"));
  B.from_coo(data::powerlaw_matrix(96, 96, 700, 1.2, 11));
  c.init_dense([](const auto& x) {
    return 1.0 + 0.01 * static_cast<double>(x[0] % 13);
  });
  Statement* stmt = &(a(i) = B(i, j) * c(j));
  a.schedule().fuse(i, j, f).divide_pos(f, fo, fi, 4, "B").distribute(fo);
  return std::make_pair(a, stmt);
}

TEST(LaunchPlan, BlockDistributedFetchWarmMatchesCold) {
  expect_warm_matches_cold(block_c_spmv_nz, cpu_machine(4, rt::Grid(4)),
                           "spmv_nz block-distributed c");
}

double moved_bytes(const rt::SimReport& r) {
  return r.inter_node_bytes + r.intra_node_bytes;
}

// Every call that can drop a valid point of c bumps c's placement epoch, so
// the next warm retire runs fetch again. Each iteration's report diff must
// match the memo-off run's bit for bit, and each change but replicate_sys
// (which leaves c valid everywhere) must move more bytes than a steady
// iteration, whose only traffic is the reduction combines.
TEST(LaunchPlan, PlacementChangesForceRefetch) {
  using Change =
      std::function<void(rt::Runtime&, const rt::RegionRef<double>&)>;
  const std::vector<std::pair<std::string, Change>> changes = {
      {"invalidate",
       [](rt::Runtime& rt, const rt::RegionRef<double>& c) {
         rt.invalidate(*c);
       }},
      {"set_placement",
       [](rt::Runtime& rt, const rt::RegionRef<double>& c) {
         // c's blocks on the nodes in reverse order.
         const rt::Partition part = rt::partition_equal(c->space(), 4);
         std::vector<rt::Mem> mems;
         for (int n = 3; n >= 0; --n) mems.push_back(rt.machine().sys_mem(n));
         rt.set_placement(*c, part, mems);
       }},
      {"place_whole",
       [](rt::Runtime& rt, const rt::RegionRef<double>& c) {
         rt.place_whole(*c, rt.machine().sys_mem(3));
       }},
      {"replicate_sys",
       [](rt::Runtime& rt, const rt::RegionRef<double>& c) {
         rt.replicate_sys(*c);
       }},
      {"write",
       [](rt::Runtime& rt, const rt::RegionRef<double>& c) {
         // Rewrites c's values in two halves; the write-back re-homes c to
         // the writers' memories.
         const rt::Partition part = rt::partition_equal(c->space(), 2);
         rt::IndexLaunch launch;
         launch.name = "write c";
         launch.domain = 2;
         launch.reqs = {rt::RegionReq{c, &part, rt::Privilege::WO}};
         launch.body = [c](const rt::TaskContext& ctx) {
           const rt::IndexSubset s = ctx.subset(0);
           for (const auto& rect : s.rects()) {
             for (Coord x = rect.lo[0]; x <= rect.hi[0]; ++x) {
               (*c)[x] = 1.0 + 0.01 * static_cast<double>(x % 13);
             }
           }
           return rt::WorkEstimate{48, 384};
         };
         rt.execute(launch);
       }},
  };
  const rt::Machine m = cpu_machine(4, rt::Grid(4));
  // Per-iteration report diffs: first, steady, then (changed, steady) per
  // change; plus the final output values.
  auto run_sequence = [&](int threads, bool memo) {
    auto [out, stmt] = block_c_spmv_nz();
    rt::Runtime runtime(m, threads);
    runtime.set_plan_memo(memo);
    auto inst = CompiledKernel::compile(*stmt, m).instantiate(runtime);
    const rt::RegionRef<double> c = stmt->tensor("c").storage().vals();
    std::vector<rt::SimReport> diffs;
    auto iterate = [&] {
      const rt::SimReport before = runtime.report();
      inst->run(1);
      diffs.push_back(runtime.report().diff(before));
    };
    iterate();
    iterate();
    for (const auto& [name, change] : changes) {
      change(runtime, c);
      iterate();
      iterate();
    }
    EXPECT_LE(ref::max_abs_diff(out, ref::eval(*stmt)), 1e-10);
    return std::make_pair(diffs, out.storage().vals()->data());
  };
  for (int threads : {1, 4}) {
    const std::string cfg = " @" + std::to_string(threads) + " ctx";
    const auto [warm, warm_out] = run_sequence(threads, true);
    const auto [cold, cold_out] = run_sequence(threads, false);
    ASSERT_EQ(warm.size(), 2 + 2 * changes.size());
    ASSERT_EQ(cold.size(), warm.size());
    ASSERT_EQ(warm_out.size(), cold_out.size());
    EXPECT_EQ(std::memcmp(warm_out.data(), cold_out.data(),
                          warm_out.size() * sizeof(double)),
              0)
        << "output values differ" << cfg;
    const std::vector<std::string> labels = [&] {
      std::vector<std::string> l = {"first", "steady"};
      for (const auto& [name, change] : changes) {
        l.push_back(name);
        l.push_back("steady after " + name);
      }
      return l;
    }();
    for (size_t k = 0; k < warm.size(); ++k) {
      expect_sim_identical(warm[k], cold[k], labels[k] + cfg);
      // Only the first iteration builds the warm run's plan.
      EXPECT_EQ(warm[k].plan_misses, k == 0 ? 1 : 0) << labels[k] + cfg;
    }
    const double steady = moved_bytes(warm[1]);
    EXPECT_GT(moved_bytes(warm[0]), steady) << "first" << cfg;
    for (size_t k = 0; k < changes.size(); ++k) {
      const std::string& name = changes[k].first;
      const double changed = moved_bytes(warm[2 + 2 * k]);
      if (name == "replicate_sys") {
        EXPECT_EQ(bits(changed), bits(steady)) << name << cfg;
      } else {
        EXPECT_GT(changed, steady) << name << cfg;
      }
      // The first retire after a change re-arms the memo.
      EXPECT_EQ(bits(moved_bytes(warm[3 + 2 * k])), bits(steady))
          << "steady after " << name << cfg;
    }
  }
}

// --- invalidation: launch identity changes must build fresh plans -------------

// A 2-point overlapping REDUCE launch over `part`; each point adds 1.0 to
// every element of its subset.
rt::IndexLaunch reduce_launch(rt::RegionRef<double> r,
                              const rt::Partition* part) {
  rt::IndexLaunch launch;
  launch.name = "reduce";
  launch.domain = part->num_colors();
  launch.reqs = {rt::RegionReq{r, part, rt::Privilege::REDUCE}};
  launch.body = [r](const rt::TaskContext& ctx) {
    const rt::IndexSubset s = ctx.subset(0);
    for (const auto& rect : s.rects()) {
      for (Coord i = rect.lo[0]; i <= rect.hi[0]; ++i) (*r)[i] += 1.0;
    }
    return rt::WorkEstimate{10, 80};
  };
  return launch;
}

TEST(LaunchPlan, SteadyStateHitsAndCounters) {
  rt::Runtime rt(cpu_machine(2, rt::Grid(2)), 1);
  auto r = rt.create_region<double>(rt::IndexSpace(100), "acc");
  r->fill(0.0);
  rt::Partition p = rt::partition_by_bounds(
      r->space(), {rt::RectN::make1(0, 60), rt::RectN::make1(40, 99)});
  const rt::IndexLaunch launch = reduce_launch(r, &p);
  for (int it = 0; it < 5; ++it) rt.execute(launch);
  rt.flush();
  const rt::SimReport rep = rt.report();
  EXPECT_EQ(rep.plan_misses, 1);
  EXPECT_EQ(rep.plan_hits, 4);
  // Overlap [40, 60] saw both points, 5 times each.
  EXPECT_DOUBLE_EQ((*r)[50], 10.0);
  EXPECT_DOUBLE_EQ((*r)[0], 5.0);
  EXPECT_DOUBLE_EQ((*r)[99], 5.0);
}

TEST(LaunchPlan, RepartitionBuildsFreshPlan) {
  auto run_sequence = [](bool memo) {
    rt::Runtime rt(cpu_machine(2, rt::Grid(2)), 1);
    rt.set_plan_memo(memo);
    auto r = rt.create_region<double>(rt::IndexSpace(120), "acc");
    r->fill(0.0);
    rt::Partition p1 = rt::partition_by_bounds(
        r->space(), {rt::RectN::make1(0, 70), rt::RectN::make1(50, 119)});
    const rt::IndexLaunch l1 = reduce_launch(r, &p1);
    for (int it = 0; it < 3; ++it) rt.execute(l1);
    // Repartition: new Partition object => new uid => fresh plan, new
    // overlap classification and combine script.
    rt::Partition p2 = rt::partition_by_bounds(
        r->space(), {rt::RectN::make1(0, 59), rt::RectN::make1(60, 119)});
    const rt::IndexLaunch l2 = reduce_launch(r, &p2);
    for (int it = 0; it < 2; ++it) rt.execute(l2);
    rt.flush();
    return std::make_pair(r->data(), rt.report());
  };
  const auto [vals_memo, rep_memo] = run_sequence(true);
  const auto [vals_cold, rep_cold] = run_sequence(false);
  EXPECT_EQ(rep_memo.plan_misses, 2);  // one per distinct partition
  EXPECT_EQ(rep_memo.plan_hits, 3);
  EXPECT_EQ(rep_cold.plan_hits, 0);
  EXPECT_EQ(vals_memo, vals_cold);
  expect_sim_identical(rep_memo, rep_cold, "repartition memo vs cold");
  // p1 overlaps on [50, 70] (x3); p2 is disjoint (x2).
  EXPECT_DOUBLE_EQ(vals_memo[60], 3.0 * 2.0 + 2.0);
  EXPECT_DOUBLE_EQ(vals_memo[0], 5.0);
}

TEST(LaunchPlan, SwapBackingStorageBuildsFreshPlan) {
  auto run_sequence = [](bool memo) {
    rt::Runtime rt(cpu_machine(2, rt::Grid(2)), 1);
    rt.set_plan_memo(memo);
    auto r1 = rt.create_region<double>(rt::IndexSpace(80), "acc1");
    r1->fill(0.0);
    rt::Partition p = rt::partition_by_bounds(
        r1->space(), {rt::RectN::make1(0, 49), rt::RectN::make1(30, 79)});
    for (int it = 0; it < 3; ++it) rt.execute(reduce_launch(r1, &p));
    // Swap the launch's backing storage: a fresh region (new RegionId) with
    // the same shape must not hit r1's plan.
    auto r2 = rt.create_region<double>(rt::IndexSpace(80), "acc2");
    r2->fill(0.0);
    for (int it = 0; it < 2; ++it) rt.execute(reduce_launch(r2, &p));
    rt.flush();
    auto vals = r1->data();
    vals.insert(vals.end(), r2->data().begin(), r2->data().end());
    return std::make_pair(vals, rt.report());
  };
  const auto [vals_memo, rep_memo] = run_sequence(true);
  const auto [vals_cold, rep_cold] = run_sequence(false);
  EXPECT_EQ(rep_memo.plan_misses, 2);  // one per backing region
  EXPECT_EQ(rep_memo.plan_hits, 3);
  EXPECT_EQ(vals_memo, vals_cold);
  expect_sim_identical(rep_memo, rep_cold, "storage swap memo vs cold");
  // Both regions reduced over the same overlapping partition.
  EXPECT_DOUBLE_EQ(vals_memo[40], 6.0);        // r1: overlap x3 launches
  EXPECT_DOUBLE_EQ(vals_memo[80 + 40], 4.0);   // r2: overlap x2 launches
}

TEST(LaunchPlan, ExplicitInvalidationForcesRebuild) {
  rt::Runtime rt(cpu_machine(2, rt::Grid(2)), 1);
  auto r = rt.create_region<double>(rt::IndexSpace(64), "acc");
  r->fill(0.0);
  rt::Partition p = rt::partition_by_bounds(
      r->space(), {rt::RectN::make1(0, 39), rt::RectN::make1(24, 63)});
  const rt::IndexLaunch launch = reduce_launch(r, &p);
  rt.execute(launch);
  rt.execute(launch);
  rt.flush();
  EXPECT_EQ(rt.report().plan_hits, 1);
  rt.invalidate_plans();
  rt.execute(launch);
  rt.flush();
  const rt::SimReport rep = rt.report();
  EXPECT_EQ(rep.plan_hits, 1);
  EXPECT_EQ(rep.plan_misses, 2);
}

// --- LRU eviction --------------------------------------------------------------

// The plan cache is capacity-bounded with true LRU eviction: churning
// through more launch identities than the capacity evicts only the coldest
// plans, recently-used identities stay warm, and SimReport surfaces the
// eviction count next to hits/misses.
TEST(LaunchPlan, LruEvictsColdestPlanOnly) {
  constexpr int kCapacity = 256;  // Runtime::kPlanCapacity
  rt::Runtime rt(cpu_machine(2, rt::Grid(2)), 1);
  auto r = rt.create_region<double>(rt::IndexSpace(200), "acc");
  r->fill(0.0);
  auto fresh_partition = [&](Coord mid) {
    return rt::partition_by_bounds(
        r->space(),
        {rt::RectN::make1(0, mid), rt::RectN::make1(mid - 10, 199)});
  };
  // Two identities; refresh A so B becomes the LRU.
  rt::Partition pa = fresh_partition(100);
  rt::Partition pb = fresh_partition(120);
  rt.execute(reduce_launch(r, &pa));
  rt.execute(reduce_launch(r, &pb));
  rt.execute(reduce_launch(r, &pa));
  rt.flush();
  EXPECT_EQ(rt.report().plan_misses, 2);
  EXPECT_EQ(rt.report().plan_hits, 1);
  EXPECT_EQ(rt.report().plan_evictions, 0);
  // Churn kCapacity - 1 fresh identities: exactly one insert overflows the
  // capacity, evicting the LRU (B) — never clearing the whole cache.
  for (int k = 0; k < kCapacity - 1; ++k) {
    rt::Partition p = fresh_partition(30 + (k % 140));
    rt.execute(reduce_launch(r, &p));
    rt.flush();
  }
  rt::SimReport rep = rt.report();
  EXPECT_EQ(rep.plan_misses, 2 + kCapacity - 1);
  EXPECT_EQ(rep.plan_evictions, 1);
  // A survived the churn (it was refreshed before), B did not.
  rt.execute(reduce_launch(r, &pa));
  rt.flush();
  EXPECT_EQ(rt.report().plan_hits, 2);
  rt.execute(reduce_launch(r, &pb));
  rt.flush();
  rep = rt.report();
  EXPECT_EQ(rep.plan_hits, 2);
  EXPECT_EQ(rep.plan_misses, 2 + kCapacity);
  // Re-inserting B at capacity evicted the then-coldest entry.
  EXPECT_EQ(rep.plan_evictions, 2);
}

TEST(LaunchPlan, LruHitRefreshesRecency) {
  constexpr int kCapacity = 256;
  rt::Runtime rt(cpu_machine(2, rt::Grid(2)), 1);
  auto r = rt.create_region<double>(rt::IndexSpace(200), "acc");
  r->fill(0.0);
  rt::Partition pa = rt::partition_by_bounds(
      r->space(), {rt::RectN::make1(0, 99), rt::RectN::make1(90, 199)});
  rt.execute(reduce_launch(r, &pa));
  rt.flush();
  // Keep touching A while churning enough fresh identities to evict an
  // untouched entry many times over: A must never be evicted.
  for (int k = 0; k < kCapacity + 40; ++k) {
    rt::Partition p = rt::partition_by_bounds(
        r->space(),
        {rt::RectN::make1(0, 20 + (k % 150)), rt::RectN::make1(10, 199)});
    rt.execute(reduce_launch(r, &p));
    rt.execute(reduce_launch(r, &pa));
    rt.flush();
  }
  const rt::SimReport rep = rt.report();
  EXPECT_EQ(rep.plan_misses, 1 + kCapacity + 40);
  EXPECT_EQ(rep.plan_hits, kCapacity + 40);  // every A re-execution hit
  EXPECT_GT(rep.plan_evictions, 0);
}

// --- bounding-box scratches ---------------------------------------------------

// make_scratch sizes the buffer to the requested box, not the region, and
// fold_scratch translates between box-relative and region-relative layouts.
TEST(LaunchPlan, ScratchCoversBoundingBoxOnly) {
  rt::Region<double> r(rt::IndexSpace(1000), "big");
  r.fill(0.0);
  const rt::RectN box = rt::RectN::make1(900, 909);
  auto scratch = r.make_scratch(box);
  ASSERT_NE(scratch, nullptr);
  EXPECT_EQ(scratch->box, box);
  // Write through the box-relative layout, as a redirected accessor would.
  double* base = static_cast<double*>(scratch->base);
  for (int k = 0; k < 10; ++k) base[k] = 1.0 + k;
  rt::IndexSubset subset(rt::RectN::make1(902, 904));
  r.fold_scratch(scratch.get(), subset);
  EXPECT_DOUBLE_EQ(r[901], 0.0);  // outside the folded subset
  EXPECT_DOUBLE_EQ(r[902], 3.0);
  EXPECT_DOUBLE_EQ(r[903], 4.0);
  EXPECT_DOUBLE_EQ(r[904], 5.0);
  EXPECT_DOUBLE_EQ(r[905], 0.0);
}

// A 2-D region's scratch box: fold translates row strides between the
// scratch tile and the full matrix.
TEST(LaunchPlan, ScratchFoldTranslates2dStrides) {
  rt::Region<double> r(rt::IndexSpace(rt::RectN::make2(0, 9, 0, 9)), "mat");
  r.fill(0.0);
  const rt::RectN box = rt::RectN::make2(4, 7, 2, 5);  // 4x4 tile
  auto scratch = r.make_scratch(box);
  ASSERT_NE(scratch, nullptr);
  double* base = static_cast<double*>(scratch->base);
  for (int k = 0; k < 16; ++k) base[k] = static_cast<double>(k);
  rt::IndexSubset subset(box);
  r.fold_scratch(scratch.get(), subset);
  // Element (i, j) of the tile holds (i - 4) * 4 + (j - 2).
  EXPECT_DOUBLE_EQ(r.at2(4, 2), 0.0);
  EXPECT_DOUBLE_EQ(r.at2(4, 5), 3.0);
  EXPECT_DOUBLE_EQ(r.at2(5, 2), 4.0);
  EXPECT_DOUBLE_EQ(r.at2(7, 5), 15.0);
  EXPECT_DOUBLE_EQ(r.at2(3, 2), 0.0);  // outside the box
  EXPECT_DOUBLE_EQ(r.at2(8, 5), 0.0);
}

}  // namespace
}  // namespace spdistal
