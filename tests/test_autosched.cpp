// Auto-scheduler tests: the enumerator emits only compiler-accepted
// schedules, searched schedules reproduce the dense oracle exactly, the plan
// cache is deterministic (hit without re-simulation on identical inputs),
// keyed exactly on every machine field and literal, and safe to share
// between threads, and searched plans are at least as good as the paper's
// hand-written ones.
#include <gtest/gtest.h>

#include <limits>
#include <thread>

#include "autosched/autosched.h"
#include "autosched/cost.h"
#include "common/str_util.h"
#include "compiler/lower.h"
#include "data/datasets.h"
#include "data/fingerprint.h"
#include "data/generators.h"
#include "tensor/dense_ref.h"

namespace spdistal::autosched {
namespace {

using rt::Coord;

rt::Machine cpu_machine(int nodes) {
  return rt::Machine(data::paper_machine_config(nodes), rt::Grid(nodes),
                     rt::ProcKind::CPU);
}

rt::Machine gpu_machine(int nodes, int gpus) {
  return rt::Machine(data::paper_machine_config(nodes), rt::Grid(gpus),
                     rt::ProcKind::GPU);
}

// Unscheduled statements for three paper kernels. The returned output
// tensor keeps the recorded statement (and all bindings) alive.
struct BuiltStmt {
  Tensor out;
  Statement* stmt = nullptr;
};

BuiltStmt build_spmv(uint64_t seed) {
  IndexVar i("i"), j("j");
  const Coord n = 300;
  Tensor a("a", {n}, fmt::dense_vector());
  Tensor B("B", {n, n}, fmt::csr());
  Tensor c("c", {n}, fmt::dense_vector());
  B.from_coo(data::powerlaw_matrix(n, n, 4000, 1.3, seed));
  c.init_dense([](const auto& x) {
    return 1.0 + 0.01 * static_cast<double>(x[0] % 17);
  });
  BuiltStmt b;
  b.stmt = &(a(i) = B(i, j) * c(j));
  b.out = a;
  return b;
}

BuiltStmt build_sddmm(uint64_t seed) {
  IndexVar i("i"), j("j"), k("k");
  const Coord n = 200, r = 8;
  Tensor A("A", {n, n}, fmt::csr());
  Tensor B("B", {n, n}, fmt::csr());
  Tensor C("C", {n, r}, fmt::dense_matrix());
  Tensor D("D", {r, n}, fmt::dense_matrix());
  B.from_coo(data::powerlaw_matrix(n, n, 2500, 1.2, seed));
  C.init_dense([](const auto& x) {
    return 1.0 + 0.02 * static_cast<double>((x[0] + x[1]) % 13);
  });
  D.init_dense([](const auto& x) {
    return 0.5 - 0.02 * static_cast<double>((2 * x[0] + x[1]) % 11);
  });
  BuiltStmt b;
  b.stmt = &(A(i, j) = B(i, j) * C(i, k) * D(k, j));
  b.out = A;
  return b;
}

BuiltStmt build_spmttkrp(uint64_t seed) {
  IndexVar i("i"), j("j"), k("k"), l("l");
  const Coord d0 = 60, d1 = 40, d2 = 30, r = 8;
  Tensor A("A", {d0, r}, fmt::dense_matrix());
  Tensor B("B", {d0, d1, d2}, fmt::csf3());
  Tensor C("C", {d1, r}, fmt::dense_matrix());
  Tensor D("D", {d2, r}, fmt::dense_matrix());
  B.from_coo(data::powerlaw_3tensor(d0, d1, d2, 2000, 1.2, seed));
  C.init_dense([](const auto& x) {
    return 0.5 + 0.01 * static_cast<double>((x[0] + 2 * x[1]) % 7);
  });
  D.init_dense([](const auto& x) {
    return 1.0 - 0.01 * static_cast<double>((2 * x[0] + x[1]) % 5);
  });
  BuiltStmt b;
  b.stmt = &(A(i, l) = B(i, j, k) * C(j, l) * D(k, l));
  b.out = A;
  return b;
}

// Steady-state seconds/iteration of `schedule` on the real data.
double measure(Statement& stmt, const sched::Schedule& schedule,
               const rt::Machine& m) {
  rt::Runtime runtime(m);
  auto inst =
      comp::CompiledKernel::compile(stmt, schedule, m).instantiate(runtime);
  inst->run(1);
  runtime.reset_timing();
  inst->run(3);
  return inst->report().sim_time / 3;
}

TEST(Enumerate, OnlyEmitsCompilableSchedules) {
  for (const rt::Machine& m : {cpu_machine(4), gpu_machine(1, 4)}) {
    for (auto* build : {&build_spmv, &build_sddmm, &build_spmttkrp}) {
      BuiltStmt b = build(1);
      const auto cands = enumerate_candidates(*b.stmt, m);
      ASSERT_FALSE(cands.empty());
      for (const auto& c : cands) {
        EXPECT_NO_THROW(comp::CompiledKernel::compile(*b.stmt, c.schedule, m))
            << c.recipe.str();
      }
      // Recipes are unique.
      for (size_t x = 0; x < cands.size(); ++x) {
        for (size_t y = x + 1; y < cands.size(); ++y) {
          EXPECT_FALSE(cands[x].recipe == cands[y].recipe);
        }
      }
    }
  }
}

TEST(Enumerate, CoversUniverseAndNonZeroFamilies) {
  BuiltStmt b = build_spmv(2);
  const auto cands = enumerate_candidates(*b.stmt, cpu_machine(4));
  bool universe = false, nonzero = false;
  for (const auto& c : cands) {
    (c.recipe.position_space ? nonzero : universe) = true;
    if (c.recipe.position_space) {
      EXPECT_EQ(c.recipe.split_tensor, "B");
      EXPECT_EQ(c.recipe.fuse_depth, 2);
    }
  }
  EXPECT_TRUE(universe);
  EXPECT_TRUE(nonzero);
}

TEST(EnumerateGrid3, EmitsRank3FactorizationsOnLargeMachines) {
  // 8 processors factor as 2x2x2: statements with >= 3 index variables get
  // rank-3 machine-grid recipes (lowering already handles them).
  BuiltStmt b = build_sddmm(5);
  const auto cands = enumerate_candidates(*b.stmt, cpu_machine(8));
  bool rank3 = false;
  for (const auto& c : cands) {
    if (c.recipe.pieces_z > 1) {
      rank3 = true;
      EXPECT_GT(c.recipe.pieces_y, 1);
      EXPECT_FALSE(c.recipe.position_space);
      EXPECT_EQ(c.recipe.pieces * c.recipe.pieces_y * c.recipe.pieces_z, 8);
    }
  }
  EXPECT_TRUE(rank3);
  // Statements with only two variables never get a z axis.
  BuiltStmt spmv = build_spmv(6);
  for (const auto& c : enumerate_candidates(*spmv.stmt, cpu_machine(8))) {
    EXPECT_EQ(c.recipe.pieces_z, 1);
  }
}

TEST(EnumerateGrid3, Rank3RecipeMatchesOracleOnGridMachine) {
  IndexVar i("i"), j("j"), k("k");
  const Coord n = 64;
  Tensor A("A", {n, 16}, fmt::dense_matrix());
  Tensor B("B", {n, n}, fmt::csr());
  Tensor C("C", {n, 16}, fmt::dense_matrix());
  B.from_coo(data::powerlaw_matrix(n, n, 700, 1.2, 21));
  C.init_dense([](const auto& x) {
    return 0.25 + 0.01 * static_cast<double>((x[0] + 3 * x[1]) % 19);
  });
  Statement& stmt = (A(i, j) = B(i, k) * C(k, j));

  Recipe r;
  r.pieces = 2;
  r.pieces_y = 2;
  r.pieces_z = 2;
  sched::Schedule s = materialize(r, stmt);
  rt::Machine m(data::paper_machine_config(8), rt::Grid(2, 2, 2),
                rt::ProcKind::CPU);
  comp::CompiledKernel ck = comp::CompiledKernel::compile(stmt, s, m);
  EXPECT_EQ(ck.grid_pieces(), (std::vector<int>{2, 2, 2}));
  rt::Runtime runtime(m);
  auto inst = ck.instantiate(runtime);
  inst->run(2);  // steady state: the k-axis reduction must stay correct
  EXPECT_LE(ref::max_abs_diff(A, ref::eval(stmt)), 1e-10);
}

TEST(Autoschedule, SearchedSchedulesMatchDenseOracle) {
  for (const rt::Machine& m : {cpu_machine(4), gpu_machine(1, 4)}) {
    for (auto* build : {&build_spmv, &build_sddmm, &build_spmttkrp}) {
      BuiltStmt b = build(3);
      PlanCache::global().clear();  // search, not a cached plan
      b.out.schedule() = autoschedule(*b.stmt, m);
      rt::Runtime runtime(m);
      auto inst =
          comp::CompiledKernel::compile(*b.stmt, m).instantiate(runtime);
      inst->run(2);  // steady state must stay correct too
      EXPECT_LE(ref::max_abs_diff(b.out, ref::eval(*b.stmt)), 1e-10)
          << b.stmt->str();
    }
  }
}

TEST(Autoschedule, CompileWithoutScheduleSearchesImplicitly) {
  BuiltStmt b = build_spmv(4);
  const rt::Machine m = cpu_machine(4);
  EXPECT_FALSE(b.out.schedule().distributed_var().has_value());
  rt::Runtime runtime(m);
  auto inst = comp::CompiledKernel::compile(*b.stmt, m).instantiate(runtime);
  inst->run(1);
  EXPECT_LE(ref::max_abs_diff(b.out, ref::eval(*b.stmt)), 1e-10);
  // The plan is used, not recorded: a later compile for a *different*
  // machine must search again rather than replay a stale machine-specific
  // schedule.
  EXPECT_FALSE(b.out.schedule().distributed_var().has_value());
  const rt::Machine g = gpu_machine(1, 4);
  rt::Runtime gpu_runtime(g);
  auto ginst = comp::CompiledKernel::compile(*b.stmt, g).instantiate(gpu_runtime);
  EXPECT_GE(ginst->pieces(), g.num_procs());
  ginst->run(1);
  EXPECT_LE(ref::max_abs_diff(b.out, ref::eval(*b.stmt)), 1e-10);
}

TEST(Autoschedule, PartialScheduleStillRaisesScheduleError) {
  // A recorded-but-incomplete schedule (no distribute()) is a user mistake,
  // not a request for search: the pre-existing clear error must survive.
  BuiltStmt b = build_spmv(12);
  IndexVar i = tin::statement_vars(b.stmt->assignment)[0];
  IndexVar io("io"), ii("ii");
  b.out.schedule().divide(i, io, ii, 4).parallelize(
      ii, sched::ParallelUnit::CPUThread);
  EXPECT_THROW(comp::CompiledKernel::compile(*b.stmt, cpu_machine(4)),
               ScheduleError);
}

TEST(Autoschedule, TensorAutoscheduleRecordsSchedule) {
  BuiltStmt b = build_sddmm(5);
  const rt::Machine m = cpu_machine(2);
  sched::Schedule& s = b.out.autoschedule(m);
  EXPECT_TRUE(s.distributed_var().has_value());
  EXPECT_NO_THROW(comp::CompiledKernel::compile(*b.stmt, m));
}

TEST(PlanCache, SecondSearchHitsWithoutResimulation) {
  PlanCache::global().clear();
  const rt::Machine m = cpu_machine(4);

  BuiltStmt b1 = build_spmv(6);
  Result r1 = autoschedule_search(*b1.stmt, m);
  EXPECT_FALSE(r1.from_cache);
  EXPECT_GT(r1.simulated, 0);
  EXPECT_EQ(PlanCache::global().misses(), 1);
  EXPECT_EQ(PlanCache::global().size(), 1u);

  // A structurally identical statement built from fresh IndexVars and fresh
  // tensors (same data) is served from the cache with zero simulations.
  BuiltStmt b2 = build_spmv(6);
  Result r2 = autoschedule_search(*b2.stmt, m);
  EXPECT_TRUE(r2.from_cache);
  EXPECT_EQ(r2.simulated, 0);
  EXPECT_TRUE(r2.recipe == r1.recipe);
  EXPECT_EQ(PlanCache::global().hits(), 1);

  // The rehydrated schedule is legal and equivalent for the new statement.
  EXPECT_NO_THROW(comp::CompiledKernel::compile(*b2.stmt, r2.schedule, m));
  EXPECT_NEAR(measure(*b1.stmt, r1.schedule, m),
              measure(*b2.stmt, r2.schedule, m), 1e-12);

  // Different sparsity (same shape) or different machine: both miss.
  BuiltStmt b3 = build_spmv(7);
  Result r3 = autoschedule_search(*b3.stmt, m);
  EXPECT_FALSE(r3.from_cache);
  Result r4 = autoschedule_search(*b1.stmt, cpu_machine(8));
  EXPECT_FALSE(r4.from_cache);
  EXPECT_EQ(PlanCache::global().misses(), 3);
}

// Two cold searches of one statement agree exactly, so a cache hit replays
// what a search would find.
TEST(PlanCache, ColdSearchesAgree) {
  PlanCache::global().clear();
  const rt::Machine m = cpu_machine(4);
  BuiltStmt a = build_spmv(7);
  const Result base = autoschedule_search(*a.stmt, m);
  EXPECT_FALSE(base.from_cache);
  PlanCache::global().clear();
  const Result again = autoschedule_search(*a.stmt, m);
  EXPECT_FALSE(again.from_cache);
  EXPECT_EQ(again.recipe, base.recipe);
  EXPECT_EQ(again.schedule.str(), base.schedule.str());
  EXPECT_EQ(again.best_cost, base.best_cost);
}

// A pattern-bearing fingerprint with deterministic sketch content.
data::SparsityFingerprint pattern_fp(int64_t nnz) {
  data::SparsityFingerprint fp;
  fp.dims = {100, 100};
  fp.has_pattern = true;
  fp.nnz = nnz;
  for (int b = 0; b < data::SparsityFingerprint::kHistBuckets; ++b) {
    fp.hist[static_cast<size_t>(b)] = nnz / 16;
  }
  fp.degree[3] = 100;
  return fp;
}

// Lookups match the whole key: a nearby fingerprint misses, and so do the
// same fingerprint after a different statement part and a key's prefix.
TEST(PlanCache, LookupsMatchTheKeyExactly) {
  PlanCache& cache = PlanCache::global();
  cache.clear();
  Recipe r;
  r.pieces = 4;
  const std::string key_a =
      "same-statement;" + data::fingerprints_str({pattern_fp(1000)});
  const std::string key_b =
      "same-statement;" + data::fingerprints_str({pattern_fp(1150)});
  const std::string other =
      "other-statement;" + data::fingerprints_str({pattern_fp(1000)});
  cache.insert(key_a, r, 1.0);
  const auto exact = cache.lookup(key_a);
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->recipe, r);
  EXPECT_EQ(exact->cost, 1.0);
  EXPECT_FALSE(cache.lookup(key_b).has_value());
  EXPECT_FALSE(cache.lookup(other).has_value());
  EXPECT_FALSE(cache.lookup(key_a.substr(0, key_a.size() - 1)).has_value());
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 3);
  cache.clear();
}

TEST(PlanCache, FingerprintEncodingSeparatesShapes) {
  const auto fp = pattern_fp(1000);
  // Different dimensionality, or pattern vs structural-only of the same
  // dims, encode (and therefore key) differently.
  EXPECT_NE(fp.str(), data::dense_fingerprint({100}).str());
  EXPECT_NE(fp.str(), data::dense_fingerprint({100, 100}).str());
}

// The key writes every MachineConfig field and every literal exactly: a
// machine that differs in one field, even past the sixth significant digit,
// and a literal that differs in its seventh digit each get a key of their
// own.
TEST(PlanCache, KeyCoversEveryMachineFieldAndLiteralExactly) {
  BuiltStmt b = build_spmv(3);
  const rt::MachineConfig base = data::paper_machine_config(2);
  const auto key_on = [&](const rt::MachineConfig& cfg) {
    return plan_key(*b.stmt, rt::Machine(cfg, rt::Grid(2), rt::ProcKind::CPU));
  };
  const std::string base_key = key_on(base);
  EXPECT_EQ(key_on(base), base_key);

  rt::MachineConfig half_fb = base;
  half_fb.fbmem_bytes /= 2;
  EXPECT_NE(key_on(half_fb), base_key);
  // Each double field times 1 + 1e-9 (net_bw_gbs among them) and each int
  // field plus one.
  using C = rt::MachineConfig;
  for (double C::*field :
       {&C::cpu_core_gflops, &C::cpu_mem_bw_gbs, &C::gpu_gflops,
        &C::gpu_mem_bw_gbs, &C::nvlink_bw_gbs, &C::net_latency_s,
        &C::net_bw_gbs, &C::task_overhead_s, &C::sysmem_bytes,
        &C::fbmem_bytes, &C::capacity_scale, &C::time_scale}) {
    C cfg = base;
    cfg.*field *= 1 + 1e-9;
    EXPECT_NE(key_on(cfg), base_key) << cfg.*field;
  }
  for (int C::*field : {&C::nodes, &C::cores_per_node, &C::sockets_per_node,
                        &C::gpus_per_node}) {
    C cfg = base;
    cfg.*field += 1;
    EXPECT_NE(key_on(cfg), base_key) << cfg.*field;
  }

  const rt::Machine m = cpu_machine(2);
  const auto scaled_key = [&](double scale) {
    IndexVar i("i"), j("j");
    Tensor a("a", {8}, fmt::dense_vector());
    Tensor B("B", {8, 8}, fmt::csr());
    Tensor c("c", {8}, fmt::dense_vector());
    B.from_coo(data::powerlaw_matrix(8, 8, 20, 1.3, 1));
    return plan_key(a(i) = literal(scale) * B(i, j) * c(j), m);
  };
  EXPECT_EQ(scaled_key(0.1234567), scaled_key(0.1234567));
  EXPECT_NE(scaled_key(0.1234567), scaled_key(0.1234568));
}

// A cached plan is served only to the machine it was searched for. On 2
// nodes x 8 GPUs the SpMM winner splits B's non-zeros 4 ways and the
// columns 2 ways; with half the framebuffer that schedule runs out of
// memory, so the half-memory machine must search again, and its own winner
// must run.
TEST(PlanCache, HalfMemoryMachineSearchesItsOwnPlan) {
  PlanCache::global().clear();
  IndexVar i("i"), j("j"), k("k");
  const Coord n = 4000, jdim = 64;
  Tensor A("A", {n, jdim}, fmt::dense_matrix());
  Tensor B("B", {n, n}, fmt::csr());
  Tensor C("C", {n, jdim}, fmt::dense_matrix());
  B.from_coo(data::powerlaw_matrix(n, n, 40000, 1.3, 3));
  C.init_dense([](const auto& x) {
    return 0.5 + 0.01 * static_cast<double>((x[0] + x[1]) % 13);
  });
  Statement& stmt = (A(i, j) = B(i, k) * C(k, j));

  rt::MachineConfig half_cfg = data::paper_machine_config(2);
  half_cfg.fbmem_bytes /= 2;
  const rt::Machine full(data::paper_machine_config(2), rt::Grid(8),
                         rt::ProcKind::GPU);
  const rt::Machine half(half_cfg, rt::Grid(8), rt::ProcKind::GPU);
  const auto run_once = [&](const sched::Schedule& s, const rt::Machine& m) {
    rt::Runtime runtime(m);
    comp::CompiledKernel::compile(stmt, s, m).instantiate(runtime)->run(1);
  };

  const Result on_full = autoschedule_search(stmt, full);
  EXPECT_FALSE(on_full.from_cache);
  EXPECT_NO_THROW(run_once(on_full.schedule, full));
  EXPECT_THROW(run_once(on_full.schedule, half), OutOfMemoryError);

  const Result on_half = autoschedule_search(stmt, half);
  EXPECT_FALSE(on_half.from_cache);
  EXPECT_NE(on_half.recipe, on_full.recipe);
  EXPECT_NO_THROW(run_once(on_half.schedule, half));
  EXPECT_EQ(PlanCache::global().misses(), 2);
  EXPECT_EQ(PlanCache::global().size(), 2u);
}

// Concurrent searches in one process share the global cache: threads
// compile and run a seeded shape (every search a hit) while they insert
// synthetic keys. Run under TSan in CI; values checked here.
TEST(PlanCache, ConcurrentSearchesShareOneCache) {
  PlanCache& cache = PlanCache::global();
  cache.clear();
  const rt::Machine m = cpu_machine(2);
  BuiltStmt seed = build_spmv(11);
  const Result cold = autoschedule_search(*seed.stmt, m);
  ASSERT_FALSE(cold.from_cache);
  cache.clear();
  cache.insert(plan_key(*seed.stmt, m), cold.recipe, cold.best_cost);

  constexpr int kThreads = 4;
  constexpr int kIters = 3;
  std::vector<std::thread> workers;
  std::vector<int> warm_hits(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int it = 0; it < kIters; ++it) {
        // Each iteration: its own Runtime compiling the shared shape.
        BuiltStmt b = build_spmv(11);
        const Result r = autoschedule_search(*b.stmt, m);
        if (r.from_cache) ++warm_hits[static_cast<size_t>(t)];
        rt::Runtime runtime(m);
        auto inst = comp::CompiledKernel::compile(*b.stmt, r.schedule, m)
                        .instantiate(runtime);
        inst->run(1);
        EXPECT_LE(ref::max_abs_diff(b.out, ref::eval(*b.stmt)), 1e-10);
        Recipe synth;
        synth.pieces = 2 + t;
        cache.insert(strprintf("synthetic-%d-%d", t, it), synth, 1.0);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(warm_hits[static_cast<size_t>(t)], kIters) << "thread " << t;
  }
  EXPECT_EQ(cache.hits(), kThreads * kIters);
  EXPECT_EQ(cache.misses(), 0);
  EXPECT_EQ(cache.size(), 1u + kThreads * kIters);
  BuiltStmt check = build_spmv(11);
  EXPECT_EQ(autoschedule_search(*check.stmt, m).recipe, cold.recipe);
}

// The acceptance bound: for each paper kernel, on a CPU and a GPU machine
// shape, the searched schedule's simulated makespan is within 1.1x of the
// hand-written paper schedule's.
TEST(Autoschedule, WithinElevenTenthsOfHandWrittenSchedules) {
  struct Case {
    const char* name;
    BuiltStmt (*build)(uint64_t);
    // Installs the paper's hand-written schedule (bench_util's universe
    // row-distribution builds).
    void (*hand)(BuiltStmt&, int pieces);
  };
  const Case cases[] = {
      {"spmv", &build_spmv,
       [](BuiltStmt& b, int pieces) {
         IndexVar i = tin::statement_vars(b.stmt->assignment)[0];
         IndexVar io("io"), ii("ii");
         b.out.schedule()
             .divide(i, io, ii, pieces)
             .distribute(io)
             .communicate({"a", "B", "c"}, io)
             .parallelize(ii, sched::ParallelUnit::CPUThread);
       }},
      {"sddmm", &build_sddmm,
       [](BuiltStmt& b, int pieces) {
         IndexVar i = tin::statement_vars(b.stmt->assignment)[0];
         IndexVar io("io"), ii("ii");
         b.out.schedule()
             .divide(i, io, ii, pieces)
             .distribute(io)
             .parallelize(ii, sched::ParallelUnit::CPUThread);
       }},
      {"spmttkrp", &build_spmttkrp,
       [](BuiltStmt& b, int pieces) {
         IndexVar i = tin::statement_vars(b.stmt->assignment)[0];
         IndexVar io("io"), ii("ii");
         b.out.schedule()
             .divide(i, io, ii, pieces)
             .distribute(io)
             .parallelize(ii, sched::ParallelUnit::CPUThread);
       }},
  };
  for (const rt::Machine& m : {cpu_machine(4), gpu_machine(1, 4)}) {
    for (const Case& c : cases) {
      BuiltStmt hand = c.build(8);
      c.hand(hand, m.num_procs());
      const double t_hand = measure(*hand.stmt, hand.out.schedule(), m);

      BuiltStmt searched = c.build(8);
      PlanCache::global().clear();  // search, not a cached plan
      Result r = autoschedule_search(*searched.stmt, m);
      const double t_search = measure(*searched.stmt, r.schedule, m);

      EXPECT_LE(t_search, 1.1 * t_hand)
          << c.name << " on " << rt::proc_kind_name(m.kind()) << ": searched "
          << r.recipe.str() << " " << t_search << "s vs hand " << t_hand
          << "s";
    }
  }
}

// An unscheduled SpMM over a heavily skewed matrix (a few giant rows). The
// larger leading dimension keeps row blocks coarse enough that a 2-D grid's
// column split is what restores balance.
BuiltStmt build_skewed_spmm(uint64_t seed) {
  IndexVar i("i"), j("j"), k("k");
  const Coord n = 400, jdim = 32;
  Tensor A("A", {n, jdim}, fmt::dense_matrix());
  Tensor B("B", {n, n}, fmt::csr());
  Tensor C("C", {n, jdim}, fmt::dense_matrix());
  B.from_coo(data::powerlaw_matrix(n, n, 8000, 1.6, seed));
  C.init_dense([](const auto& x) {
    return 0.5 + 0.01 * static_cast<double>((x[0] + x[1]) % 13);
  });
  BuiltStmt b;
  b.stmt = &(A(i, j) = B(i, k) * C(k, j));
  b.out = A;
  return b;
}

// The enumerator proposes (px, py) grid recipes on multi-processor machines
// and at least one of them beats every 1-D universe distribution on skewed
// SpMM — the communication/balance win of the paper's Grid(x, y) schedules.
TEST(EnumerateGrid, MultiAxisRecipeBeatsBest1dOnSkewedSpmm) {
  BuiltStmt b = build_skewed_spmm(31);
  const rt::Machine m = cpu_machine(8);
  const auto cands = enumerate_candidates(*b.stmt, m);

  bool any_grid = false, any_nz_grid = false;
  for (const auto& c : cands) {
    if (c.recipe.pieces_y > 1) {
      (c.recipe.position_space ? any_nz_grid : any_grid) = true;
      EXPECT_NO_THROW(comp::CompiledKernel::compile(*b.stmt, c.schedule, m))
          << c.recipe.str();
    }
  }
  ASSERT_TRUE(any_grid);
  // Cross-products of non-zero and universe splits are searched too.
  EXPECT_TRUE(any_nz_grid);

  // Simulate every universe candidate: compare true simulated times.
  Statement proxy = make_proxy(*b.stmt);
  double best_grid = std::numeric_limits<double>::infinity();
  double best_1d = std::numeric_limits<double>::infinity();
  for (const auto& c : cands) {
    if (c.recipe.position_space) continue;
    const double t = simulate_candidate(proxy, c.schedule, m);
    auto& best = c.recipe.pieces_y > 1 ? best_grid : best_1d;
    best = std::min(best, t);
  }
  EXPECT_LT(best_grid, best_1d);
}

// Grid recipes searched end-to-end still reproduce the oracle, and the plan
// cache round-trips pieces_y.
TEST(EnumerateGrid, SearchedGridScheduleMatchesOracleAndCaches) {
  PlanCache::global().clear();
  BuiltStmt b = build_skewed_spmm(32);
  const rt::Machine m = cpu_machine(8);
  Result r = autoschedule_search(*b.stmt, m);
  b.out.schedule() = r.schedule;
  rt::Runtime runtime(m);
  auto inst = comp::CompiledKernel::compile(*b.stmt, m).instantiate(runtime);
  inst->run(2);
  EXPECT_LE(ref::max_abs_diff(b.out, ref::eval(*b.stmt)), 1e-10);

  // A fresh structurally identical statement hits the cache and rehydrates
  // the same recipe (including any grid shape).
  BuiltStmt b2 = build_skewed_spmm(32);
  Result r2 = autoschedule_search(*b2.stmt, m);
  EXPECT_TRUE(r2.from_cache);
  EXPECT_TRUE(r2.recipe == r.recipe);
  EXPECT_NO_THROW(comp::CompiledKernel::compile(*b2.stmt, r2.schedule, m));
}

TEST(Proxy, SampleCooIsDeterministicAndStructurePreserving) {
  fmt::Coo coo = data::powerlaw_matrix(500, 500, 20000, 1.3, 9);
  fmt::Coo s1 = data::sample_coo(coo, 4000, 1);
  fmt::Coo s2 = data::sample_coo(coo, 4000, 1);
  EXPECT_EQ(s1.dims, coo.dims);
  EXPECT_LE(s1.nnz(), 4000);
  EXPECT_GE(s1.nnz(), 3000);  // sort_and_combine may merge a few duplicates
  ASSERT_EQ(s1.nnz(), s2.nnz());
  EXPECT_EQ(s1.coords, s2.coords);
  // Small inputs pass through untouched.
  EXPECT_EQ(data::sample_coo(coo, 1 << 20, 1).nnz(), coo.nnz());
}

TEST(Proxy, MakeProxyClonesWithoutSharing) {
  // A matrix above the proxy cap, so make_proxy downsamples it.
  IndexVar i("i"), j("j");
  const Coord n = 4000;
  Tensor a("a", {n}, fmt::dense_vector());
  Tensor B("B", {n, n}, fmt::csr());
  Tensor c("c", {n}, fmt::dense_vector());
  B.from_coo(data::powerlaw_matrix(n, n, 4 * kMaxProxyNnz, 1.3, 10));
  ASSERT_GT(B.storage().nnz(), kMaxProxyNnz);
  Statement& stmt = (a(i) = B(i, j) * c(j));
  Statement proxy = make_proxy(stmt);
  EXPECT_LE(proxy.tensor("B").storage().nnz(), kMaxProxyNnz);
  EXPECT_GT(proxy.tensor("B").storage().nnz(), 0);
  // Proxy tensors are fresh handles: running candidates on them must not
  // touch the user's data.
  EXPECT_FALSE(proxy.tensor("a").same_as(a));
  EXPECT_FALSE(proxy.tensor("B").same_as(B));
}

}  // namespace
}  // namespace spdistal::autosched
