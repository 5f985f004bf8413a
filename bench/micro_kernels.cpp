// google-benchmark microbenchmarks for the leaf kernels: each specialized
// leaf against the general co-iteration engine on the same statement (SpMV,
// SpMM, SDDMM, SpTTV, SpMTTKRP and SpAdd3: the specialization gap
// compilation buys at the leaves, and the measurement a leaf must pass to be
// kept) and a CSR-vs-COO comparison on the steady-state launch path (same
// schedule, different mode formats).
//
// Besides the stdout table, every finished run is recorded into
// BENCH_kernels.json (bench_util's shared writer).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.h"
#include "compiler/lower.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "kernels/assembly.h"
#include "kernels/leaf_kernels.h"

namespace {

using namespace spdistal;

struct SpmvFixture {
  IndexVar i{"i"}, j{"j"};
  Tensor a, B, c;
  Statement* stmt;
  explicit SpmvFixture(int64_t nnz, fmt::Format format = fmt::csr()) {
    fmt::Coo coo = data::powerlaw_matrix(nnz / 12, nnz / 12, nnz, 1.1, 7);
    a = Tensor("a", {coo.dims[0]}, fmt::dense_vector());
    B = Tensor("B", coo.dims, std::move(format));
    c = Tensor("c", {coo.dims[1]}, fmt::dense_vector());
    B.from_coo(std::move(coo));
    c.init_dense([](const auto&) { return 1.0; });
    stmt = &(a(i) = B(i, j) * c(j));
  }
};

void BM_SpmvSpecialized(benchmark::State& state) {
  SpmvFixture f(state.range(0));
  kern::Leaf leaf = kern::make_spmv_row(f.a, f.B, f.c);
  for (auto _ : state) {
    f.a.zero();
    benchmark::DoNotOptimize(leaf(kern::PieceBounds{}).flops);
  }
  state.SetItemsProcessed(state.iterations() * f.B.storage().nnz());
}
BENCHMARK(BM_SpmvSpecialized)->Arg(100000);

void BM_SpmvCoiter(benchmark::State& state) {
  SpmvFixture f(state.range(0));
  kern::CoiterEngine engine(*f.stmt);
  for (auto _ : state) {
    f.a.zero();
    benchmark::DoNotOptimize(engine.run().flops);
  }
  state.SetItemsProcessed(state.iterations() * f.B.storage().nnz());
}
BENCHMARK(BM_SpmvCoiter)->Arg(100000);

void BM_SpmvNz(benchmark::State& state) {
  SpmvFixture f(state.range(0));
  kern::Leaf leaf = kern::make_spmv_nz(f.a, f.B, f.c);
  for (auto _ : state) {
    f.a.zero();
    benchmark::DoNotOptimize(leaf(kern::PieceBounds{}).flops);
  }
  state.SetItemsProcessed(state.iterations() * f.B.storage().nnz());
}
BENCHMARK(BM_SpmvNz)->Arg(100000);

// COO leaf: rows come from the root crd instead of a precomputed owner map.
void BM_SpmvNzCoo(benchmark::State& state) {
  SpmvFixture f(state.range(0), fmt::coo(2));
  kern::Leaf leaf = kern::make_spmv_nz(f.a, f.B, f.c);
  for (auto _ : state) {
    f.a.zero();
    benchmark::DoNotOptimize(leaf(kern::PieceBounds{}).flops);
  }
  state.SetItemsProcessed(state.iterations() * f.B.storage().nnz());
}
BENCHMARK(BM_SpmvNzCoo)->Arg(100000);

// SpMTTKRP at rank 16 on one power-law CSF tensor: both piece kinds of the
// specialized leaf against the general engine, over the whole tensor.
struct SpmttkrpFixture {
  IndexVar i{"i"}, j{"j"}, k{"k"}, l{"l"};
  Tensor A, B, C, D;
  Statement* stmt;
  explicit SpmttkrpFixture(int64_t nnz) {
    fmt::Coo coo =
        data::powerlaw_3tensor(nnz / 77, nnz / 77, 160, nnz, 1.1, 7);
    const rt::Coord L = spdbench::kRank;
    A = Tensor("A", {coo.dims[0], L}, fmt::dense_matrix());
    B = Tensor("B", coo.dims, fmt::csf3());
    C = Tensor("C", {coo.dims[1], L}, fmt::dense_matrix());
    D = Tensor("D", {coo.dims[2], L}, fmt::dense_matrix());
    B.from_coo(std::move(coo));
    C.init_dense([](const auto&) { return 1.0; });
    D.init_dense([](const auto&) { return 0.5; });
    stmt = &(A(i, l) = B(i, j, k) * C(j, l) * D(k, l));
  }
};

// One piece over the whole tensor, as a row piece (every row) or as a
// non-zero piece (the window of every stored position).
void BM_SpmttkrpLeaf(benchmark::State& state, bool nz) {
  SpmttkrpFixture f(state.range(0));
  kern::Leaf leaf = kern::make_spmttkrp(f.A, f.B, f.C, f.D);
  kern::PieceBounds piece;
  if (nz) piece.dist_pos = rt::Rect1{0, f.B.storage().level(2).positions - 1};
  for (auto _ : state) {
    f.A.zero();
    benchmark::DoNotOptimize(leaf(piece).flops);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * f.B.storage().nnz());
}

void BM_SpmttkrpRow(benchmark::State& state) { BM_SpmttkrpLeaf(state, false); }
BENCHMARK(BM_SpmttkrpRow)->Arg(100000);

void BM_SpmttkrpNz(benchmark::State& state) { BM_SpmttkrpLeaf(state, true); }
BENCHMARK(BM_SpmttkrpNz)->Arg(100000);

void BM_SpmttkrpCoiter(benchmark::State& state) {
  SpmttkrpFixture f(state.range(0));
  kern::CoiterEngine engine(*f.stmt);
  for (auto _ : state) {
    f.A.zero();
    benchmark::DoNotOptimize(engine.run().flops);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * f.B.storage().nnz());
}
BENCHMARK(BM_SpmttkrpCoiter)->Arg(100000);

// Times one whole-tensor evaluation per iteration (the output zeroed
// first); items are B's stored non-zeros. An engine row runs the loop order
// the compiler hands the engine on a row piece: the statement's.
template <typename Run>
void time_whole(benchmark::State& state, Tensor& out, const Tensor& B,
                Run&& run) {
  for (auto _ : state) {
    out.zero();
    benchmark::DoNotOptimize(run().flops);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * B.storage().nnz());
}

// SpMM over kSpmmJ dense columns.
struct SpmmFixture {
  IndexVar i{"i"}, j{"j"}, k{"k"};
  Tensor A, B, C;
  Statement* stmt;
  explicit SpmmFixture(int64_t nnz) {
    fmt::Coo coo = data::powerlaw_matrix(nnz / 12, nnz / 12, nnz, 1.1, 7);
    const rt::Coord J = spdbench::kSpmmJ;
    A = Tensor("A", {coo.dims[0], J}, fmt::dense_matrix());
    B = Tensor("B", coo.dims, fmt::csr());
    C = Tensor("C", {coo.dims[1], J}, fmt::dense_matrix());
    B.from_coo(std::move(coo));
    C.init_dense([](const auto& x) { return 1.0 + 0.5 * (x[1] % 3); });
    stmt = &(A(i, j) = B(i, k) * C(k, j));
  }
};

void BM_SpmmRow(benchmark::State& state) {
  SpmmFixture f(state.range(0));
  kern::Leaf leaf = kern::make_spmm(f.A, f.B, f.C);
  time_whole(state, f.A, f.B, [&] { return leaf(kern::PieceBounds{}); });
}
BENCHMARK(BM_SpmmRow)->Arg(20000);

void BM_SpmmCoiter(benchmark::State& state) {
  SpmmFixture f(state.range(0));
  kern::CoiterEngine engine(*f.stmt);
  time_whole(state, f.A, f.B, [&] { return engine.run(); });
}
BENCHMARK(BM_SpmmCoiter)->Arg(20000);

// SDDMM over kSddmmK inner columns into B's assembled pattern.
struct SddmmFixture {
  IndexVar i{"i"}, j{"j"}, k{"k"};
  Tensor A, B, C, D;
  Statement* stmt;
  explicit SddmmFixture(int64_t nnz) {
    fmt::Coo coo = data::powerlaw_matrix(nnz / 12, nnz / 12, nnz, 1.1, 7);
    const rt::Coord K = spdbench::kSddmmK;
    A = Tensor("A", coo.dims, fmt::csr());
    B = Tensor("B", coo.dims, fmt::csr());
    C = Tensor("C", {coo.dims[0], K}, fmt::dense_matrix());
    D = Tensor("D", {K, coo.dims[1]}, fmt::dense_matrix());
    B.from_coo(std::move(coo));
    C.init_dense([](const auto& x) { return 1.0 + 0.5 * (x[1] % 3); });
    D.init_dense([](const auto& x) { return 0.5 + 0.25 * (x[0] % 2); });
    stmt = &(A(i, j) = B(i, j) * C(i, k) * D(k, j));
    kern::assemble_output(*stmt);
  }
};

void BM_SddmmRow(benchmark::State& state) {
  SddmmFixture f(state.range(0));
  kern::Leaf leaf = kern::make_sddmm(f.A, f.B, f.C, f.D);
  time_whole(state, f.A, f.B, [&] { return leaf(kern::PieceBounds{}); });
}
BENCHMARK(BM_SddmmRow)->Arg(20000);

void BM_SddmmCoiter(benchmark::State& state) {
  SddmmFixture f(state.range(0));
  kern::CoiterEngine engine(*f.stmt);
  time_whole(state, f.A, f.B, [&] { return engine.run(); });
}
BENCHMARK(BM_SddmmCoiter)->Arg(20000);

// SpTTV on a power-law CSF tensor into the assembled fiber pattern.
struct SpttvFixture {
  IndexVar i{"i"}, j{"j"}, k{"k"};
  Tensor A, B, c;
  Statement* stmt;
  explicit SpttvFixture(int64_t nnz) {
    fmt::Coo coo =
        data::powerlaw_3tensor(nnz / 77, nnz / 77, 160, nnz, 1.1, 7);
    A = Tensor("A", {coo.dims[0], coo.dims[1]}, fmt::csr());
    B = Tensor("B", coo.dims, fmt::csf3());
    c = Tensor("c", {coo.dims[2]}, fmt::dense_vector());
    B.from_coo(std::move(coo));
    c.init_dense([](const auto& x) { return 1.0 + 0.5 * (x[0] % 3); });
    stmt = &(A(i, j) = B(i, j, k) * c(k));
    kern::assemble_output(*stmt);
  }
};

void BM_SpttvRow(benchmark::State& state) {
  SpttvFixture f(state.range(0));
  kern::Leaf leaf = kern::make_spttv(f.A, f.B, f.c);
  time_whole(state, f.A, f.B, [&] { return leaf(kern::PieceBounds{}); });
}
BENCHMARK(BM_SpttvRow)->Arg(100000);

void BM_SpttvCoiter(benchmark::State& state) {
  SpttvFixture f(state.range(0));
  kern::CoiterEngine engine(*f.stmt);
  time_whole(state, f.A, f.B, [&] { return engine.run(); });
}
BENCHMARK(BM_SpttvCoiter)->Arg(100000);

// CSR vs COO through the whole steady-state launch path: identical
// non-zero schedule, the instance's prepared plan replayed (the loop asserts
// no further plan misses), only the mode format differs.
void BM_SpmvSteadyState(benchmark::State& state, fmt::Format format) {
  SpmvFixture f(state.range(0), std::move(format));
  IndexVar fu("f"), fo("fo"), fi("fi");
  f.a.schedule()
      .fuse(f.i, f.j, fu)
      .divide_pos(fu, fo, fi, 8, "B")
      .distribute(fo);
  rt::Machine machine(data::paper_machine_config(8), rt::Grid(8),
                      rt::ProcKind::CPU);
  rt::Runtime runtime(machine, 1);
  auto inst =
      comp::CompiledKernel::compile(*f.stmt, machine).instantiate(runtime);
  inst->run(1);  // prepares the launch
  const int64_t misses = runtime.report().plan_misses;
  for (auto _ : state) {
    inst->run(1);
  }
  if (runtime.report().plan_misses != misses) {
    state.SkipWithError("steady-state iteration rebuilt its plan");
  }
  state.SetItemsProcessed(state.iterations() * f.B.storage().nnz());
}
BENCHMARK_CAPTURE(BM_SpmvSteadyState, csr, fmt::csr())->Arg(100000);
BENCHMARK_CAPTURE(BM_SpmvSteadyState, coo, fmt::coo(2))->Arg(100000);

// SpAdd3 into the assembled union pattern: the fused three-way merge leaf
// against the engine's three terms.
struct Spadd3Fixture {
  IndexVar i{"i"}, j{"j"};
  Tensor A, B, C, D;
  Statement* stmt;
  explicit Spadd3Fixture(int64_t nnz) {
    fmt::Coo coo = data::powerlaw_matrix(8000, 8000, nnz, 1.1, 8);
    A = Tensor("A", coo.dims, fmt::csr());
    B = Tensor("B", coo.dims, fmt::csr());
    C = Tensor("C", coo.dims, fmt::csr());
    D = Tensor("D", coo.dims, fmt::csr());
    B.from_coo(coo);
    C.from_coo(data::shift_last_dim(coo, 1));
    D.from_coo(data::shift_last_dim(coo, 2));
    stmt = &(A(i, j) = B(i, j) + C(i, j) + D(i, j));
    kern::assemble_output(*stmt);
  }
};

void BM_Spadd3Fused(benchmark::State& state) {
  Spadd3Fixture f(state.range(0));
  kern::Leaf leaf = kern::make_spadd3_row(f.A, f.B, f.C, f.D);
  for (auto _ : state) {
    f.A.zero();
    benchmark::DoNotOptimize(leaf(kern::PieceBounds{}).bytes);
  }
  state.SetItemsProcessed(state.iterations() * 3 * f.B.storage().nnz());
}
BENCHMARK(BM_Spadd3Fused)->Arg(100000);

void BM_Spadd3Coiter(benchmark::State& state) {
  Spadd3Fixture f(state.range(0));
  kern::CoiterEngine engine(*f.stmt);
  for (auto _ : state) {
    f.A.zero();
    benchmark::DoNotOptimize(engine.run().bytes);
  }
  state.SetItemsProcessed(state.iterations() * 3 * f.B.storage().nnz());
}
BENCHMARK(BM_Spadd3Coiter)->Arg(100000);

void BM_Assembly(benchmark::State& state) {
  IndexVar i("i"), j("j");
  fmt::Coo coo = data::powerlaw_matrix(8000, 8000, state.range(0), 1.1, 9);
  for (auto _ : state) {
    Tensor A("A", coo.dims, fmt::csr());
    Tensor B("B", coo.dims, fmt::csr());
    Tensor C("C", coo.dims, fmt::csr());
    B.from_coo(coo);
    C.from_coo(data::shift_last_dim(coo, 1));
    Statement& stmt = (A(i, j) = B(i, j) + C(i, j));
    benchmark::DoNotOptimize(kern::assemble_output(stmt).output_nnz);
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0));
}
BENCHMARK(BM_Assembly)->Arg(50000);

// Console output stays the stock table; finished runs are additionally
// captured for the JSON trajectory file.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      double to_ns = 1.0;
      switch (run.time_unit) {
        case benchmark::kNanosecond: to_ns = 1.0; break;
        case benchmark::kMicrosecond: to_ns = 1e3; break;
        case benchmark::kMillisecond: to_ns = 1e6; break;
        case benchmark::kSecond: to_ns = 1e9; break;
      }
      spdbench::BenchRow row;
      row.name = run.benchmark_name();
      row.ns_per_op = run.GetAdjustedRealTime() * to_ns;
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) row.items_per_s = it->second;
      it = run.counters.find("bytes_per_second");
      if (it != run.counters.end()) row.bytes_per_s = it->second;
      rows.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(reports);
  }
  std::vector<spdbench::BenchRow> rows;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!spdbench::write_bench_json("BENCH_kernels.json", reporter.rows)) {
    std::fprintf(stderr,
                 "micro_kernels: failed to write BENCH_kernels.json\n");
    return 1;
  }
  return 0;
}
