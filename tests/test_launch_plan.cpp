// Tests for prepared launches: Runtime::prepare runs the launch analysis
// once, and every execute of the prepared launch replays its plan (no
// subset capture, no O(P^2) overlap scans). Replays must be bit-identical —
// output values and SimReport — to one-shot executes, which build a fresh
// plan every time, for any executor thread count.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <functional>
#include <map>

#include "common/error.h"
#include "common/rng.h"
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
// by the callers that expect them to match — prepared and one-shot runs
// differ in them by construction.
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

// One iteration as Instance::run enqueues it, but with the instance's
// launch executed one-shot: the output's zeroing host task, then a launch
// on a fresh plan.
void run_one_shot(rt::Runtime& runtime, const comp::Instance& inst,
                  const Tensor& out) {
  auto vals = out.storage().vals();
  runtime.run_host_task("zero " + out.name(),
                        {rt::HostAccess{vals, rt::Privilege::WO}},
                        [vals] { vals->fill(0.0); });
  runtime.execute(inst.launch());
}

// Builds the program fresh and runs `iters` iterations, either through
// Instance::run (warm: it prepares the launch once and iterations 2..n
// replay the plan) or as one-shot executes (cold: a fresh plan each).
template <typename Builder>
ProgramRun run_program(const Builder& build, const rt::Machine& m,
                       int threads, int iters, bool warm) {
  auto [out, stmt] = build();
  rt::Runtime runtime(m, threads);
  auto inst = CompiledKernel::compile(*stmt, m).instantiate(runtime);
  if (warm) {
    inst->run(iters);
  } else {
    for (int it = 0; it < iters; ++it) run_one_shot(runtime, *inst, out);
    runtime.flush();
  }
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

// Warm (replayed) executions must be indistinguishable from cold ones under
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
    // The warm run re-executed one prepared launch: 1 miss, then hits. The
    // cold run prepared every launch afresh.
    EXPECT_EQ(warm.report.plan_misses, 1) << cfg;
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
// match the one-shot run's bit for bit, and each change but replicate_sys
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
  auto run_sequence = [&](int threads, bool warm) {
    auto [out, stmt] = block_c_spmv_nz();
    rt::Runtime runtime(m, threads);
    auto inst = CompiledKernel::compile(*stmt, m).instantiate(runtime);
    const rt::RegionRef<double> c = stmt->tensor("c").storage().vals();
    std::vector<rt::SimReport> diffs;
    auto iterate = [&] {
      const rt::SimReport before = runtime.report();
      if (warm) {
        inst->run(1);
      } else {
        run_one_shot(runtime, *inst, out);
      }
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

// --- prepared launches -------------------------------------------------------

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
  const auto prepared = rt.prepare(reduce_launch(r, &p));
  EXPECT_EQ(rt.report().plan_misses, 1);
  EXPECT_EQ(rt.report().plan_hits, 0);
  for (int it = 0; it < 5; ++it) rt.execute(prepared);
  rt.flush();
  const rt::SimReport rep = rt.report();
  EXPECT_EQ(rep.plan_misses, 1);
  EXPECT_EQ(rep.plan_hits, 4);
  // Overlap [40, 60] saw both points, 5 times each.
  EXPECT_DOUBLE_EQ((*r)[50], 10.0);
  EXPECT_DOUBLE_EQ((*r)[0], 5.0);
  EXPECT_DOUBLE_EQ((*r)[99], 5.0);
}

// prepare() reads the partitions and never again: a prepared launch whose
// Partition is gone replays exactly what one-shot executes over the live
// partition do. Under ASan a read of the destroyed partition would fail.
TEST(LaunchPlan, PreparedLaunchOutlivesItsPartitions) {
  auto run = [](int threads, bool prepared_once) {
    rt::Runtime rt(cpu_machine(2, rt::Grid(2)), threads);
    auto r = rt.create_region<double>(
        rt::IndexSpace(rt::RectN::make2(0, 15, 0, 5)), "acc");
    r->fill(0.0);
    auto part = std::make_unique<rt::Partition>(rt::partition_by_bounds(
        r->space(),
        {rt::RectN::make2(0, 9, 0, 5), rt::RectN::make2(4, 12, 0, 5),
         rt::RectN::make2(8, 15, 0, 5)}));
    rt::IndexLaunch launch;
    launch.name = "outlive";
    launch.domain = part->num_colors();
    launch.reqs = {rt::RegionReq{r, part.get(), rt::Privilege::REDUCE}};
    launch.body = [r](const rt::TaskContext& ctx) {
      for (const auto& rect : ctx.subset(0).rects()) {
        for (Coord i = rect.lo[0]; i <= rect.hi[0]; ++i) {
          for (Coord j = rect.lo[1]; j <= rect.hi[1]; ++j) {
            r->at2(i, j) += 0.1 + static_cast<double>(ctx.color() * 7 + i * j);
          }
        }
      }
      return rt::WorkEstimate{30, 240};
    };
    if (prepared_once) {
      const auto prepared = rt.prepare(launch);
      part.reset();
      for (int it = 0; it < 3; ++it) rt.execute(prepared);
    } else {
      for (int it = 0; it < 3; ++it) rt.execute(launch);
    }
    rt.flush();
    return std::make_pair(r->data(), rt.report());
  };
  for (int threads : {1, 4}) {
    const std::string cfg = " @" + std::to_string(threads) + " ctx";
    const auto [vals, rep] = run(threads, true);
    const auto [ref_vals, ref_rep] = run(threads, false);
    EXPECT_EQ(rep.plan_misses, 1) << cfg;
    EXPECT_EQ(rep.plan_hits, 2) << cfg;
    EXPECT_EQ(ref_rep.plan_misses, 3) << cfg;
    EXPECT_EQ(ref_rep.plan_hits, 0) << cfg;
    ASSERT_EQ(vals.size(), ref_vals.size());
    EXPECT_EQ(std::memcmp(vals.data(), ref_vals.data(),
                          vals.size() * sizeof(double)),
              0)
        << "prepared vs one-shot" << cfg;
    expect_sim_identical(rep, ref_rep, "prepared vs one-shot" + cfg);
  }
}

// A prepared launch's residency slots hold its runtime's placement epochs,
// so another runtime must not execute it.
TEST(LaunchPlan, ExecuteRejectsAnotherRuntimesLaunch) {
  rt::Runtime a(cpu_machine(2, rt::Grid(2)), 1);
  rt::Runtime b(cpu_machine(2, rt::Grid(2)), 1);
  auto r = a.create_region<double>(rt::IndexSpace(100), "acc");
  r->fill(0.0);
  rt::Partition p = rt::partition_equal(r->space(), 2);
  const auto prepared = a.prepare(reduce_launch(r, &p));
  EXPECT_THROW(b.execute(prepared), SpdError);
  a.execute(prepared);
  a.flush();
  EXPECT_DOUBLE_EQ((*r)[0], 1.0);
  EXPECT_EQ(b.report().plan_misses, 0);
}

// --- bounding-box scratches ---------------------------------------------------

// make_scratch sizes the buffer to the requested box, not the region, and
// the fold's runs translate between box-relative and region-relative
// layouts.
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
  r.fold_runs(scratch.get(),
              rt::fold_script(r.space().bounds(), scratch->box, subset));
  EXPECT_DOUBLE_EQ(r[901], 0.0);  // outside the folded subset
  EXPECT_DOUBLE_EQ(r[902], 3.0);
  EXPECT_DOUBLE_EQ(r[903], 4.0);
  EXPECT_DOUBLE_EQ(r[904], 5.0);
  EXPECT_DOUBLE_EQ(r[905], 0.0);
}

// A 2-D region's scratch box: the fold's runs translate row strides between
// the scratch tile and the full matrix.
TEST(LaunchPlan, ScratchFoldTranslates2dStrides) {
  rt::Region<double> r(rt::IndexSpace(rt::RectN::make2(0, 9, 0, 9)), "mat");
  r.fill(0.0);
  const rt::RectN box = rt::RectN::make2(4, 7, 2, 5);  // 4x4 tile
  auto scratch = r.make_scratch(box);
  ASSERT_NE(scratch, nullptr);
  double* base = static_cast<double*>(scratch->base);
  for (int k = 0; k < 16; ++k) base[k] = static_cast<double>(k);
  rt::IndexSubset subset(box);
  r.fold_runs(scratch.get(),
              rt::fold_script(r.space().bounds(), scratch->box, subset));
  // Element (i, j) of the tile holds (i - 4) * 4 + (j - 2).
  EXPECT_DOUBLE_EQ(r.at2(4, 2), 0.0);
  EXPECT_DOUBLE_EQ(r.at2(4, 5), 3.0);
  EXPECT_DOUBLE_EQ(r.at2(5, 2), 4.0);
  EXPECT_DOUBLE_EQ(r.at2(7, 5), 15.0);
  EXPECT_DOUBLE_EQ(r.at2(3, 2), 0.0);  // outside the box
  EXPECT_DOUBLE_EQ(r.at2(8, 5), 0.0);
}

// --- pipelined launches of one plan ------------------------------------------

// Two back-to-back executes of one prepared, privatized launch with no
// write between them: their points commute, so the second launch's points
// may run before the first retire folds. Each in-flight launch must own its
// scratches. A point adds its values at full weight on its first run of a
// round and at half weight on its second, so a shared buffer would fold one
// launch's partials twice and change the output; the values are dyadic, so
// every sum is exact whichever launch's point runs first. The flush between
// rounds leaves the plan's spare scratches in place for the next round's
// first launch, while its second launch must allocate its own.
TEST(LaunchPlan, PipelinedLaunchesKeepPrivateScratches) {
  auto run = [](int threads, bool prepared_once) {
    rt::Runtime rt(cpu_machine(2, rt::Grid(2)), threads);
    auto r = rt.create_region<double>(
        rt::IndexSpace(rt::RectN::make2(0, 23, 0, 7)), "acc");
    r->fill(0.0);
    std::vector<rt::RectN> rows;
    for (int p = 0; p < 6; ++p) {
      rows.push_back(rt::RectN::make2(3 * p, std::min(3 * p + 6, 23), 0, 7));
    }
    rt::Partition part = rt::partition_by_bounds(r->space(), rows);
    // Per point, how many times its body has run.
    auto runs = std::make_shared<std::array<std::atomic<int>, 6>>();
    rt::IndexLaunch launch;
    launch.name = "pipelined";
    launch.domain = part.num_colors();
    launch.reqs = {rt::RegionReq{r, &part, rt::Privilege::REDUCE}};
    launch.body = [r, runs](const rt::TaskContext& ctx) {
      const int n = (*runs)[static_cast<size_t>(ctx.color())]++;
      const double scale = n % 2 == 0 ? 1.0 : 0.5;
      for (const auto& rect : ctx.subset(0).rects()) {
        for (Coord i = rect.lo[0]; i <= rect.hi[0]; ++i) {
          for (Coord j = rect.lo[1]; j <= rect.hi[1]; ++j) {
            r->at2(i, j) += scale * (0.25 + static_cast<double>(
                                                ctx.color() * 8 + i + j));
          }
        }
      }
      return rt::WorkEstimate{24, 192};
    };
    const auto prepared = prepared_once ? rt.prepare(launch) : nullptr;
    for (int it = 0; it < 3; ++it) {
      for (int k = 0; k < 2; ++k) {
        if (prepared_once) {
          rt.execute(prepared);
        } else {
          rt.execute(launch);
        }
      }
      rt.flush();
    }
    return std::make_pair(r->data(), rt.report());
  };
  const auto [ref_vals, ref_rep] = run(1, false);
  EXPECT_EQ(ref_rep.plan_hits, 0);
  for (int threads : {1, 4}) {
    const std::string cfg = " @" + std::to_string(threads) + " ctx";
    const auto [vals, rep] = run(threads, true);
    EXPECT_EQ(rep.plan_misses, 1) << cfg;
    EXPECT_EQ(rep.plan_hits, 5) << cfg;
    ASSERT_EQ(vals.size(), ref_vals.size());
    EXPECT_EQ(std::memcmp(vals.data(), ref_vals.data(),
                          vals.size() * sizeof(double)),
              0)
        << "prepared vs one-shot" << cfg;
    expect_sim_identical(rep, ref_rep, "prepared vs one-shot" + cfg);
    const auto [cold_vals, cold_rep] = run(threads, false);
    EXPECT_EQ(std::memcmp(cold_vals.data(), ref_vals.data(),
                          vals.size() * sizeof(double)),
              0)
        << "one-shot" << cfg;
    expect_sim_identical(cold_rep, ref_rep, "one-shot" + cfg);
  }
}

// --- retire scripts against the subset walks they replace --------------------

// The write-back loop a retire ran before the plan carried scripts: onto an
// emptied placement, each point in color order allocates what its memory
// does not hold yet and unites its subset into that memory's valid set.
struct ReferenceWriteBack {
  std::vector<double> fresh_bytes;  // per point; 0 for an empty subset
  std::map<rt::Mem, rt::IndexSubset> valid;
};

ReferenceWriteBack reference_write_back(
    const std::vector<rt::IndexSubset>& subsets,
    const std::vector<rt::Mem>& mems, size_t elem_size) {
  ReferenceWriteBack ref;
  ref.fresh_bytes.assign(subsets.size(), 0.0);
  const double elem = static_cast<double>(elem_size);
  for (size_t p = 0; p < subsets.size(); ++p) {
    const rt::IndexSubset& s = subsets[p];
    if (s.empty()) continue;
    const rt::Mem m = mems[p];
    rt::IndexSubset fresh = ref.valid.count(m) ? s.subtract(ref.valid[m]) : s;
    ref.fresh_bytes[p] = static_cast<double>(fresh.volume()) * elem;
    ref.valid[m] = ref.valid.count(m) ? ref.valid[m].unite(s) : s;
  }
  return ref;
}

// What differs between a write-back script and the reference; empty when
// nothing does. The writers must be exactly the non-empty points in color
// order, with their memories and bit-equal fresh bytes, and the unions must
// hold the reference's rectangles in the reference's order.
std::string write_back_mismatch(const rt::WriteBackScript& wb,
                                const ReferenceWriteBack& ref,
                                const std::vector<rt::IndexSubset>& subsets,
                                const std::vector<rt::Mem>& mems) {
  size_t k = 0;
  for (size_t p = 0; p < subsets.size(); ++p) {
    if (subsets[p].empty()) continue;
    if (k == wb.writers.size() ||
        wb.writers[k].point != static_cast<int>(p)) {
      return "writer " + std::to_string(k) + " is not point " +
             std::to_string(p);
    }
    if (!(wb.writers[k].mem == mems[p])) {
      return "point " + std::to_string(p) + " writes the wrong memory";
    }
    if (bits(wb.writers[k].fresh_bytes) != bits(ref.fresh_bytes[p])) {
      return "point " + std::to_string(p) + " fresh bytes " +
             std::to_string(wb.writers[k].fresh_bytes) + " != " +
             std::to_string(ref.fresh_bytes[p]);
    }
    ++k;
  }
  if (k != wb.writers.size()) return "extra writers";
  if (wb.valid.size() != ref.valid.size()) return "memory count differs";
  auto it = ref.valid.begin();
  for (const auto& [mem, u] : wb.valid) {
    if (!(mem == it->first)) return "memories differ";
    if (u == nullptr || u->dim() != it->second.dim() ||
        u->rects() != it->second.rects()) {
      return "union of node " + std::to_string(mem.node) + " " +
             (u ? u->str() : "null") + " != " + it->second.str();
    }
    ++it;
  }
  return "";
}

// The subset-walking fold a retire ran before the plan carried fold runs:
// each rect clipped to the region bounds, row by row.
void reference_fold(rt::Region<double>& region,
                    const rt::ScratchHeader& scratch,
                    const rt::IndexSubset& subset) {
  const double* s = static_cast<const double*>(scratch.base);
  const rt::RectN& box = scratch.box;
  const rt::RectN& b = region.space().bounds();
  std::vector<double>& data = region.data();
  for (const rt::RectN& rect : subset.rects()) {
    const rt::RectN r = rect.intersect(b);
    if (r.empty()) continue;
    ASSERT_TRUE(box.contains(r));
    std::array<Coord, rt::kMaxDim> p{};
    for (int d = 0; d < r.dim; ++d) p[static_cast<size_t>(d)] = r.lo[d];
    while (true) {
      const int64_t dst = rt::linearize(b, p);
      const int64_t src = rt::linearize(box, p);
      const int64_t run = r.hi[r.dim - 1] - r.lo[r.dim - 1] + 1;
      for (int64_t k = 0; k < run; ++k) {
        data[static_cast<size_t>(dst + k)] += s[static_cast<size_t>(src + k)];
      }
      int d = r.dim - 2;
      for (; d >= 0; --d) {
        if (++p[static_cast<size_t>(d)] <= r.hi[d]) break;
        p[static_cast<size_t>(d)] = r.lo[d];
      }
      if (d < 0) break;
    }
  }
}

// A generated retire: a region, and per point a subset (fragmented,
// overlapping other points' and its own rects, reaching past the region
// bounds, or empty) and the memory it writes to (several points share one).
struct RetireCase {
  rt::RectN bounds;
  std::vector<rt::IndexSubset> subsets;
  std::vector<rt::Mem> mems;
};

RetireCase generate_retire_case(Rng& rng) {
  RetireCase c;
  const int dim = static_cast<int>(rng.next_range(1, 3));
  c.bounds.dim = dim;
  for (int d = 0; d < dim; ++d) {
    const size_t u = static_cast<size_t>(d);
    const bool offset = rng.next_below(2) == 1;
    c.bounds.lo[u] = offset ? rng.next_range(1, 9) : 0;
    const Coord extent =
        dim == 1 ? rng.next_range(1, 160) : rng.next_range(1, 12);
    c.bounds.hi[u] = c.bounds.lo[u] + extent - 1;
  }
  const int points = static_cast<int>(rng.next_range(1, 8));
  const int memories = static_cast<int>(rng.next_range(1, 3));
  for (int p = 0; p < points; ++p) {
    c.mems.push_back(rt::Mem{static_cast<int>(rng.next_below(
                                 static_cast<uint64_t>(memories))),
                             rt::MemKind::SYS, 0});
    rt::IndexSubset s(dim);
    const int rects =
        rng.next_below(6) == 0 ? 0 : static_cast<int>(rng.next_range(1, 12));
    for (int k = 0; k < rects; ++k) {
      rt::RectN r;
      r.dim = dim;
      for (int d = 0; d < dim; ++d) {
        const size_t u = static_cast<size_t>(d);
        const Coord lo = rng.next_range(c.bounds.lo[u] - 2, c.bounds.hi[u] + 1);
        const Coord len = rng.next_range(1, dim == 1 ? 20 : 5);
        r.lo[u] = lo;
        r.hi[u] = lo + len - 1;
      }
      s.add(r);
    }
    s.normalize();
    c.subsets.push_back(std::move(s));
  }
  return c;
}

// Each retire script replays what the subset walk it replaced computed:
// equal fresh bytes per point and equal per-memory unions for the
// write-back, bit-equal values for the fold. Memo-off runs build the same
// scripts, so the warm-vs-cold tests cannot catch a wrong one; this test
// keeps the old walks as its oracle and checks that it notices a
// corrupted script.
TEST(LaunchPlan, RetireScriptReference) {
  Rng rng(20221113);
  int dims_seen[4] = {0, 0, 0, 0};
  int corrupt_writebacks = 0, corrupt_folds = 0, clipped = 0, shared_mems = 0;
  for (int n = 0; n < 600; ++n) {
    const RetireCase c = generate_retire_case(rng);
    const std::string what = "case " + std::to_string(n);
    ++dims_seen[c.bounds.dim];

    // Write-back.
    std::vector<std::vector<rt::IndexSubset>> table;
    for (const rt::IndexSubset& s : c.subsets) table.push_back({s});
    const rt::WriteBackScript wb =
        rt::write_back_script(table, 0, c.mems, sizeof(double));
    const ReferenceWriteBack ref =
        reference_write_back(c.subsets, c.mems, sizeof(double));
    EXPECT_EQ(write_back_mismatch(wb, ref, c.subsets, c.mems), "") << what;
    if (wb.writers.size() > ref.valid.size()) ++shared_mems;
    if (!wb.writers.empty()) {
      rt::WriteBackScript bad = wb;
      bad.writers.back().fresh_bytes += sizeof(double);
      EXPECT_NE(write_back_mismatch(bad, ref, c.subsets, c.mems), "") << what;
      bad = wb;
      const rt::IndexSubset& last = c.subsets[static_cast<size_t>(
          wb.writers.back().point)];
      bad.valid.front().second = std::make_shared<const rt::IndexSubset>(
          last.subtract(rt::IndexSubset(last.rects().front())));
      EXPECT_NE(write_back_mismatch(bad, ref, c.subsets, c.mems), "") << what;
      ++corrupt_writebacks;
    }

    // Fold, in color order, into two copies of one region.
    rt::Region<double> via_ref{rt::IndexSpace(c.bounds), "ref"};
    for (double& v : via_ref.data()) v = rng.next_double(-1.0, 1.0);
    rt::Region<double> via_script{rt::IndexSpace(c.bounds), "script"};
    via_script.data() = via_ref.data();
    rt::Region<double> via_bad{rt::IndexSpace(c.bounds), "bad"};
    via_bad.data() = via_ref.data();
    bool corrupted = false;
    for (const rt::IndexSubset& s : c.subsets) {
      if (s.empty()) continue;
      // The plan's box: the subset's bounds, which make_scratch clips.
      auto scratch = via_ref.make_scratch(s.bounds());
      if (!c.bounds.contains(s.bounds())) ++clipped;
      double* base = static_cast<double*>(scratch->base);
      for (int64_t k = 0; k < scratch->box.volume(); ++k) {
        base[k] = rng.next_double(0.5, 1.5);
      }
      reference_fold(via_ref, *scratch, s);
      std::vector<rt::FoldRun> runs =
          rt::fold_script(c.bounds, scratch->box, s);
      via_script.fold_runs(scratch.get(), runs);
      if (!corrupted && !runs.empty()) {
        runs.pop_back();
        corrupted = true;
      }
      via_bad.fold_runs(scratch.get(), runs);
    }
    const size_t bytes = via_ref.data().size() * sizeof(double);
    EXPECT_EQ(std::memcmp(via_ref.data().data(), via_script.data().data(),
                          bytes),
              0)
        << what << ": folded values differ";
    if (corrupted) {
      EXPECT_NE(std::memcmp(via_ref.data().data(), via_bad.data().data(),
                            bytes),
                0)
          << what << ": a fold missing a run went unnoticed";
      ++corrupt_folds;
    }
  }
  // The generator reached every shape the test claims to cover.
  EXPECT_GT(dims_seen[1], 100);
  EXPECT_GT(dims_seen[2], 100);
  EXPECT_GT(dims_seen[3], 100);
  EXPECT_GT(corrupt_writebacks, 300);
  EXPECT_GT(corrupt_folds, 300);
  EXPECT_GT(clipped, 100);
  EXPECT_GT(shared_mems, 100);
}

}  // namespace
}  // namespace spdistal
