// google-benchmark microbenchmarks for the runtime substrate: direct and
// dependent partitioning (the operations SpDISTAL's generated code performs
// at instance setup), packing, subset algebra, and the deferred executor's
// wall-clock scaling (point tasks of a launch retiring concurrently on the
// worker pool while simulated accounting replays serially).
#include <benchmark/benchmark.h>

#include <utility>

#include "common/rng.h"
#include "compiler/lower.h"
#include "data/generators.h"
#include "format/storage.h"
#include "obs/obs.h"
#include "runtime/partition.h"
#include "tensor/tensor.h"
#include "verify/verify.h"

namespace {

using namespace spdistal;
using rt::Coord;

fmt::TensorStorage make_csr(int64_t nnz) {
  fmt::Coo coo = data::powerlaw_matrix(nnz / 12, nnz / 12, nnz, 1.1, 3);
  // Copy dims before passing coo by value: argument evaluation order is
  // unspecified, so reading coo.dims in the same call is a hazard.
  const std::vector<rt::Coord> dims = coo.dims;
  return fmt::pack("B", fmt::csr(), dims, std::move(coo));
}

// The entries of `coo` in a random order (values move with their
// coordinates).
fmt::Coo shuffled(fmt::Coo coo) {
  Rng rng(7);
  for (size_t k = coo.coords.size(); k > 1; --k) {
    const size_t j = rng.next_below(k);
    std::swap(coo.coords[k - 1], coo.coords[j]);
    std::swap(coo.vals[k - 1], coo.vals[j]);
  }
  return coo;
}

// Packs `coo` into `format`. range(1) == 0 packs it as generated, already in
// storage order, which pack's ordering pass accepts in one scan; 1 packs a
// shuffled twin, which it radix-sorts.
void pack_rows(benchmark::State& state, fmt::Coo coo,
               const fmt::Format& format) {
  if (state.range(1) != 0) coo = shuffled(std::move(coo));
  for (auto _ : state) {
    auto st = fmt::pack("B", format, coo.dims, coo);
    benchmark::DoNotOptimize(st.nnz());
  }
  state.SetItemsProcessed(state.iterations() * coo.nnz());
}

void BM_PackCsr(benchmark::State& state) {
  pack_rows(state,
            data::powerlaw_matrix(state.range(0) / 12, state.range(0) / 12,
                                  state.range(0), 1.1, 3),
            fmt::csr());
}
BENCHMARK(BM_PackCsr)
    ->ArgsProduct({{10000, 100000, 1000000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// The mttkrp_nz_reduce workload's tensor shape, packed as CSF.
void BM_PackCsf3(benchmark::State& state) {
  pack_rows(state,
            data::powerlaw_3tensor(13000, 13000, 160, state.range(0), 1.1, 3),
            fmt::csf3());
}
BENCHMARK(BM_PackCsf3)
    ->ArgsProduct({{1000000}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_PartitionEqual(benchmark::State& state) {
  rt::IndexSpace space(1 << 20);
  for (auto _ : state) {
    auto p = rt::partition_equal(space, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(p.num_colors());
  }
}
BENCHMARK(BM_PartitionEqual)->Arg(16)->Arg(256);

void BM_Image(benchmark::State& state) {
  fmt::TensorStorage st = make_csr(state.range(0));
  const auto& level = st.level(1);
  rt::Partition rows = rt::partition_equal(level.pos->space(), 16);
  for (auto _ : state) {
    auto p = rt::image(*level.pos, rows,
                       rt::IndexSpace(level.positions));
    benchmark::DoNotOptimize(p.num_colors());
  }
  state.SetItemsProcessed(state.iterations() * st.dims()[0]);
}
BENCHMARK(BM_Image)->Arg(10000)->Arg(100000);

void BM_Preimage(benchmark::State& state) {
  fmt::TensorStorage st = make_csr(state.range(0));
  const auto& level = st.level(1);
  rt::Partition nz = rt::partition_equal(rt::IndexSpace(level.positions), 16);
  for (auto _ : state) {
    auto p = rt::preimage(*level.pos, nz);
    benchmark::DoNotOptimize(p.num_colors());
  }
  state.SetItemsProcessed(state.iterations() * st.dims()[0]);
}
BENCHMARK(BM_Preimage)->Arg(10000)->Arg(100000);

void BM_PartitionByValueRanges(benchmark::State& state) {
  fmt::TensorStorage st = make_csr(state.range(0));
  const auto& level = st.level(1);
  std::vector<rt::Rect1> ranges;
  const Coord m = st.dims()[1];
  for (int c = 0; c < 16; ++c) {
    ranges.push_back(rt::Rect1{c * m / 16, (c + 1) * m / 16 - 1});
  }
  for (auto _ : state) {
    auto p = rt::partition_by_value_ranges(*level.crd, ranges);
    benchmark::DoNotOptimize(p.num_colors());
  }
  state.SetItemsProcessed(state.iterations() * st.nnz());
}
BENCHMARK(BM_PartitionByValueRanges)->Arg(10000)->Arg(100000);

// Guard for the one-pass bucketing: many ranges must not reintroduce an
// O(nnz x pieces) per-color probe (items/s should be flat in the piece
// count, not inversely proportional).
void BM_PartitionByValueRangesManyPieces(benchmark::State& state) {
  fmt::TensorStorage st = make_csr(100000);
  const auto& level = st.level(1);
  const int pieces = static_cast<int>(state.range(0));
  std::vector<rt::Rect1> ranges;
  const Coord m = st.dims()[1];
  for (int c = 0; c < pieces; ++c) {
    ranges.push_back(rt::Rect1{c * m / pieces, (c + 1) * m / pieces - 1});
  }
  for (auto _ : state) {
    auto p = rt::partition_by_value_ranges(*level.crd, ranges);
    benchmark::DoNotOptimize(p.num_colors());
  }
  state.SetItemsProcessed(state.iterations() * st.nnz());
}
BENCHMARK(BM_PartitionByValueRangesManyPieces)->Arg(16)->Arg(256)->Arg(1024);

// Same guard for preimage: one walk over the pos entries against the
// colors' segments, not one per color (items/s should stay flat from 16
// colors to 256).
void BM_PreimageManyColors(benchmark::State& state) {
  fmt::TensorStorage st = make_csr(100000);
  const auto& level = st.level(1);
  rt::Partition nz = rt::partition_equal(rt::IndexSpace(level.positions),
                                         static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto p = rt::preimage(*level.pos, nz);
    benchmark::DoNotOptimize(p.num_colors());
  }
  state.SetItemsProcessed(state.iterations() * st.dims()[0]);
}
BENCHMARK(BM_PreimageManyColors)->Arg(16)->Arg(256);

// The point-valued image over crd: the coordinates of c each non-zero
// piece of a CSR SpMV needs. Each color marks its values in one bitmap and
// reads the runs off in order, so the cost is the non-zeros plus the
// output; 256 smaller pieces store sparser column sets than 16, so they
// emit more, shorter runs.
void BM_CrdImage(benchmark::State& state) {
  fmt::TensorStorage st = make_csr(100000);
  const auto& level = st.level(1);
  rt::Partition nz = rt::partition_equal(rt::IndexSpace(level.positions),
                                         static_cast<int>(state.range(0)));
  const rt::IndexSpace cols(st.dims()[1]);
  for (auto _ : state) {
    auto p = rt::image(*level.crd, nz, cols);
    benchmark::DoNotOptimize(p.num_colors());
  }
  state.SetItemsProcessed(state.iterations() * st.nnz());
}
BENCHMARK(BM_CrdImage)->Arg(16)->Arg(256);

// Wall-clock scaling of the deferred executor: an 8-piece row-distributed
// SpMM whose leaves run concurrently on `threads` execution contexts
// (state.range(0)); 1 = the serial fallback (SPDISTAL_EXEC_THREADS=1).
// The simulated SimReport is bit-identical across thread counts; only the
// host wall-clock changes. Expected: >= 2x items/s from 1 -> 4 contexts.
void BM_DeferredSpmmLaunch(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kPieces = 8;
  constexpr Coord kCols = 32;
  IndexVar i("i"), j("j"), k("k"), io("io"), ii("ii");
  fmt::Coo coo = data::powerlaw_matrix(20000, 20000, 600000, 1.05, 3);
  const std::vector<Coord> dims = coo.dims;
  Tensor A("A", {dims[0], kCols}, fmt::dense_matrix(),
           tdn::parse_tdn("A(x, y) -> M(x)"));
  Tensor B("B", dims, fmt::csr(), tdn::parse_tdn("B(x, y) -> M(x)"));
  Tensor C("C", {dims[1], kCols}, fmt::dense_matrix(),
           tdn::parse_tdn("C(x, y) -> M(q)"));
  B.from_coo(std::move(coo));
  C.init_dense([](const auto& x) {
    return 0.5 + 0.01 * static_cast<double>((x[0] * 3 + x[1]) % 53);
  });
  Statement& stmt = (A(i, j) = B(i, k) * C(k, j));
  A.schedule().divide(i, io, ii, kPieces).distribute(io);

  rt::MachineConfig cfg;
  cfg.nodes = kPieces;
  rt::Machine m(cfg, rt::Grid(kPieces), rt::ProcKind::CPU);
  rt::Runtime runtime(m, threads);
  auto inst = comp::CompiledKernel::compile(stmt, m).instantiate(runtime);
  inst->run(1);  // warm-up: placement + first-touch communication
  for (auto _ : state) {
    inst->run(1);
  }
  state.SetItemsProcessed(state.iterations() * B.storage().nnz() * kCols);
}
BENCHMARK(BM_DeferredSpmmLaunch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The launch the warm-launch rows time: SpMV split by non-zeros into 16
// pieces, one per node, over a 4000x4000 power-law matrix. Piece boundaries
// straddle rows, so the output carries overlapping REDUCE subsets: the
// points accumulate into private scratches that the retire folds, and the
// cold path's per-requirement pairwise overlap scans meet their worst case.
constexpr int kSpmvNzPieces = 16;

std::pair<Tensor, Statement*> spmv_nz_statement() {
  IndexVar i("i"), j("j"), f("f"), fo("fo"), fi("fi");
  fmt::Coo coo = data::powerlaw_matrix(4000, 4000, 120000, 1.1, 7);
  const std::vector<Coord> dims = coo.dims;
  Tensor a("a", {dims[0]}, fmt::dense_vector());
  Tensor B("B", dims, fmt::csr(),
           tdn::parse_tdn("B(x, y) fuse(x, y -> g) -> M(~g)"));
  Tensor c("c", {dims[1]}, fmt::dense_vector(),
           tdn::parse_tdn("c(x) -> M(q)"));
  B.from_coo(std::move(coo));
  c.init_dense([](const auto& x) {
    return 1.0 + 0.01 * static_cast<double>(x[0] % 17);
  });
  Statement* stmt = &(a(i) = B(i, j) * c(j));
  a.schedule().fuse(i, j, f).divide_pos(f, fo, fi, kSpmvNzPieces, "B")
      .distribute(fo);
  return {a, stmt};
}

rt::Machine spmv_nz_machine() {
  rt::MachineConfig cfg;
  cfg.nodes = kSpmvNzPieces;
  return rt::Machine(cfg, rt::Grid(kSpmvNzPieces), rt::ProcKind::CPU);
}

// Steady-state enqueue latency of the SpMV-nz launch: warm (the instance's
// prepared launch — enqueue replays its plan, zero overlap scans) vs cold
// (one-shot executes of the instance's launch — full subset capture +
// O(P^2) analysis per enqueue, and no zeroing task). Arg: 1 = warm, 0 =
// cold. Only the enqueue is timed; the drain happens with the clock paused
// (exec_threads = 1, so the serial pool runs nothing until flush).
void BM_ExecuteSteadyState(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  const auto [a, stmt] = spmv_nz_statement();
  const rt::Machine m = spmv_nz_machine();
  rt::Runtime runtime(m, 1);
  auto inst = comp::CompiledKernel::compile(*stmt, m).instantiate(runtime);
  inst->run(1);  // plan build + first-touch communication
  const rt::SimReport warmup = inst->report();
  for (auto _ : state) {
    if (warm) {
      benchmark::DoNotOptimize(inst->run_async(1));
    } else {
      benchmark::DoNotOptimize(runtime.execute(inst->launch()));
    }
    state.PauseTiming();
    runtime.flush();
    state.ResumeTiming();
  }
  const rt::SimReport rep = inst->report();
  if (warm) {
    // Acceptance guard: every measured enqueue must have replayed the
    // prepared plan — a miss means an overlap scan ran on the steady-state
    // path.
    SPD_ASSERT(rep.plan_misses == warmup.plan_misses,
               "warm BM_ExecuteSteadyState rebuilt a plan ("
                   << warmup.plan_misses << " -> " << rep.plan_misses
                   << " misses)");
  }
  state.counters["plan_hits"] = static_cast<double>(rep.plan_hits);
  state.counters["plan_hit_rate"] =
      static_cast<double>(rep.plan_hits) /
      static_cast<double>(rep.plan_hits + rep.plan_misses);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecuteSteadyState)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMicrosecond);

// A warm SpMV-nz launch from enqueue through retire: run_async and flush
// both inside the clock. With exec_threads = 1 the flush runs the output's
// zeroing host task, the point tasks and the retire (scratch fold,
// simulated accounting, write-back) on this thread, so unlike
// BM_ExecuteSteadyState this row moves with the retire.
void BM_LaunchWarmRetire(benchmark::State& state) {
  const auto [a, stmt] = spmv_nz_statement();
  const rt::Machine m = spmv_nz_machine();
  rt::Runtime runtime(m, 1);
  auto inst = comp::CompiledKernel::compile(*stmt, m).instantiate(runtime);
  inst->run(1);  // plan build + first-touch communication
  const rt::SimReport warmup = inst->report();
  for (auto _ : state) {
    benchmark::DoNotOptimize(inst->run_async(1));
    runtime.flush();
  }
  const rt::SimReport rep = inst->report();
  SPD_ASSERT(rep.plan_misses == warmup.plan_misses,
             "warm BM_LaunchWarmRetire rebuilt a plan ("
                 << warmup.plan_misses << " -> " << rep.plan_misses
                 << " misses)");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LaunchWarmRetire)->Unit(benchmark::kMicrosecond);

// Observability overhead guard: the warm enqueue path of
// BM_ExecuteSteadyState with observability off (Arg 0) vs on with live
// trace capture (Arg 1). The disabled mode asserts that nothing was
// recorded — the near-zero overhead contract of obs::set_enabled(false);
// compare the two rows to read the enabled-mode cost directly. The capture
// restarts after every iteration, outside the timed region, so each
// iteration records into buffers that already hold a launch's events: the
// row times recording, not the growth of one capture holding every
// iteration, and memory stays bounded whatever the iteration count.
void BM_TraceOverhead(benchmark::State& state) {
  const bool obs_on = state.range(0) != 0;
  const auto [a, stmt] = spmv_nz_statement();
  const rt::Machine m = spmv_nz_machine();
  rt::Runtime runtime(m, 1);
  obs::set_enabled(obs_on);
  obs::TraceRecorder::global().start();  // clears any prior capture
  if (!obs_on) obs::TraceRecorder::global().stop();
  auto inst = comp::CompiledKernel::compile(*stmt, m).instantiate(runtime);
  inst->run(1);  // plan build + first-touch communication
  const size_t warmup_events = obs::TraceRecorder::global().events();
  if (obs_on) obs::TraceRecorder::global().start();
  size_t recorded = 0;  // by the timed iterations
  for (auto _ : state) {
    benchmark::DoNotOptimize(inst->run_async(1));
    state.PauseTiming();
    runtime.flush();
    recorded += obs::TraceRecorder::global().events();
    if (obs_on) obs::TraceRecorder::global().start();
    state.ResumeTiming();
  }
  if (obs_on) {
    SPD_ASSERT(recorded > 0, "BM_TraceOverhead(on) recorded no trace events");
    obs::TraceRecorder::global().stop();
  } else {
    // Disabled-mode contract: no events recorded at all.
    SPD_ASSERT(warmup_events == 0 && recorded == 0,
               "BM_TraceOverhead(off) recorded "
                   << warmup_events + recorded << " trace events");
  }
  obs::set_enabled(false);
  state.counters["trace_events"] = benchmark::Counter(
      static_cast<double>(recorded), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// Verify-mode cost, and the zero-overhead contract when off: with the
// verifiers disabled the accessor fast path pays one relaxed load and the
// checkers record nothing; with them armed every warm launch re-runs the
// O(P^2) race audit at enqueue and every point task checks each touch
// against its declared subsets. `flush` 0 times the enqueue alone (the
// race audit); `flush` 1 times a launch from enqueue through flush, point
// tasks and their touch checks included.
void BM_VerifyOverhead(benchmark::State& state) {
  const bool verify_on = state.range(0) != 0;
  const bool timed_flush = state.range(1) != 0;
  constexpr int kPieces = 16;
  IndexVar i("i"), j("j"), io("io"), ii("ii");
  fmt::Coo coo = data::powerlaw_matrix(4000, 4000, 120000, 1.1, 9);
  const std::vector<Coord> dims = coo.dims;
  Tensor a("a", {dims[0]}, fmt::dense_vector());
  Tensor B("B", dims, fmt::csr(), tdn::parse_tdn("B(x, y) -> M(x)"));
  Tensor c("c", {dims[1]}, fmt::dense_vector(),
           tdn::parse_tdn("c(x) -> M(q)"));
  B.from_coo(std::move(coo));
  c.init_dense([](const auto& x) {
    return 1.0 + 0.01 * static_cast<double>(x[0] % 17);
  });
  Statement& stmt = (a(i) = B(i, j) * c(j));
  a.schedule().divide(i, io, ii, kPieces).distribute(io);

  rt::MachineConfig cfg;
  cfg.nodes = kPieces;
  rt::Machine m(cfg, rt::Grid(kPieces), rt::ProcKind::CPU);
  // A runtime takes verify mode from the one process-wide switch when it is
  // constructed, so arm the switch first.
  const bool verify_prev = verify::enabled();
  verify::set_enabled(verify_on);
  rt::Runtime runtime(m, 1);
  auto inst = comp::CompiledKernel::compile(stmt, m).instantiate(runtime);
  inst->run(1);  // plan build + first-touch communication
  const verify::Stats before = verify::stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(inst->run_async(1));
    if (timed_flush) {
      runtime.flush();
    } else {
      state.PauseTiming();
      runtime.flush();
      state.ResumeTiming();
    }
  }
  const verify::Stats after = verify::stats();
  if (verify_on) {
    SPD_ASSERT(after.plans_checked > before.plans_checked &&
                   after.tasks_checked > before.tasks_checked,
               "BM_VerifyOverhead(on) audited nothing");
    SPD_ASSERT(after.violations == before.violations,
               "BM_VerifyOverhead(on) flagged a clean kernel");
  } else {
    // Disabled-mode contract: the checkers never run.
    SPD_ASSERT(after.plans_checked == before.plans_checked &&
                   after.tasks_checked == before.tasks_checked,
               "BM_VerifyOverhead(off) ran "
                   << (after.plans_checked - before.plans_checked)
                   << " plan audits");
  }
  verify::set_enabled(verify_prev);
  state.counters["plans_checked"] =
      static_cast<double>(after.plans_checked - before.plans_checked);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VerifyOverhead)
    ->ArgNames({"verify", "flush"})
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// Interval algebra on two subsets of n intervals that alternate along the
// line. For subtract/unite/intersect each interval of one overlaps one of
// the other; for overlaps they only touch, so the answer (false) needs the
// whole sweep. With `cols` > 0 the intervals are the rows of 2-D slabs
// `cols` wide, as lift_to_dim makes them. The operations are sweeps: time
// per interval (or slab) should stay flat as n grows.
template <typename Op>
void subset_op(benchmark::State& state, Coord b_lo, Op op, Coord cols = 0) {
  const auto rect = [cols](Coord lo, Coord hi) {
    return cols == 0 ? rt::RectN::make1(lo, hi)
                     : rt::RectN::make2(lo, hi, 0, cols - 1);
  };
  rt::IndexSubset a(cols == 0 ? 1 : 2), b(cols == 0 ? 1 : 2);
  for (Coord k = 0; k < state.range(0); ++k) {
    a.add(rect(k * 10, k * 10 + 6));
    b.add(rect(k * 10 + b_lo, k * 10 + 8));
  }
  a.normalize();
  b.normalize();
  for (auto _ : state) benchmark::DoNotOptimize(op(a, b));
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0));
}
void BM_SubsetSubtract(benchmark::State& state) {
  subset_op(state, 3, [](const auto& a, const auto& b) {
    return a.subtract(b).volume();
  });
}
void BM_SubsetUnite(benchmark::State& state) {
  subset_op(state, 3,
            [](const auto& a, const auto& b) { return a.unite(b).volume(); });
}
void BM_SubsetIntersect(benchmark::State& state) {
  subset_op(state, 3, [](const auto& a, const auto& b) {
    return a.intersect(b).volume();
  });
}
void BM_SubsetOverlaps(benchmark::State& state) {
  subset_op(state, 7,
            [](const auto& a, const auto& b) { return a.overlaps(b); });
}
// The N-D pair build_plan tests for every two points of a REDUCE
// requirement lifted to row slabs.
void BM_SubsetIntersectSlabs(benchmark::State& state) {
  subset_op(
      state, 3,
      [](const auto& a, const auto& b) { return a.intersect(b).volume(); },
      32);
}
void BM_SubsetOverlapsSlabs(benchmark::State& state) {
  subset_op(
      state, 7, [](const auto& a, const auto& b) { return a.overlaps(b); },
      32);
}
BENCHMARK(BM_SubsetSubtract)->Arg(100)->Arg(1000)->Arg(4096);
BENCHMARK(BM_SubsetUnite)->Arg(100)->Arg(1000)->Arg(4096);
BENCHMARK(BM_SubsetIntersect)->Arg(100)->Arg(1000)->Arg(4096);
BENCHMARK(BM_SubsetOverlaps)->Arg(100)->Arg(1000)->Arg(4096);
BENCHMARK(BM_SubsetIntersectSlabs)->Arg(100)->Arg(1000)->Arg(4096);
BENCHMARK(BM_SubsetOverlapsSlabs)->Arg(100)->Arg(1000)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
