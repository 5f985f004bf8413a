// spd_bench: runs one end-to-end benchmark workload in this process and
// prints its measurements as one JSON object on the last line of stdout.
// run.py starts one process per workload and turns that line (plus, in a
// traced run, the trace file) into the benchmark's metrics.
//
//   spd_bench --workload spmm_row --seed 1 --seconds 10
//   spd_bench --workload spmm_row --seed 1 --seconds 10 --trace-out t.json
//   spd_bench --workload sweep_cold --seed 1 --seconds 0  (least work)
//   spd_bench --selftest
//
// Steady workloads run kRounds rounds. A round is a fresh set-up (new
// tensors, Runtime and Instance) followed by its share of the timed
// iterations, so a noisy spell on the host hits only part of the samples.
// sweep_cold repeats whole passes over its cells instead. README.md says
// why each workload was chosen.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "autosched/autosched.h"
#include "bench_util.h"
#include "obs/obs.h"
#include "oracle.h"

namespace {

using namespace spdbench;  // NOLINT: benchmark binary
using base::KernelKind;
using Clock = std::chrono::steady_clock;

constexpr int kRounds = 5;
// Set-up times are bursty even within one run, so each round sets up three
// times and times its iterations on the last: setup_s is a median of 15.
constexpr int kSetupsPerRound = 3;
// Each reference sample repeats the reference evaluation until it spans at
// least this long, so that it averages over the host's bursts of contention
// like a steady iteration does.
constexpr double kRulerMs = 10;
// Steady iterations the simulated time and the exact per-iteration counts
// are taken over: the paper's timed trials, and the same in every mode.
constexpr int kSimIters = kTimedIters;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double median(const std::vector<double>& xs) { return quantile(xs, 0.5); }

// Peak resident set of the process so far.
double max_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- one set-up plus its timed iterations ------------------------------------

struct CellSpec {
  std::string name;
  KernelKind kind = KernelKind::SpMV;
  bool nz = false;
  int nodes = 1;
  // Auto-schedule instead of the hand-written schedule, then compile a fresh
  // pack of the same COO again, which the plan cache must serve.
  bool search = false;
  // SpMV only: block-distribute c (c(x) -> M(x)) instead of replicating it,
  // so every iteration validates each piece's scattered column footprint.
  bool block_c = false;
};

// Wall times of steady iterations, each followed by a timed reference
// evaluation of the same statement (oracle.h): the pair sees the same host
// state, so iter_ms[i] / ref_ms[i] cancels out most of the host's slow
// phases.
struct Samples {
  std::vector<double> iter_ms;
  std::vector<double> ref_ms;

  std::vector<double> ratios() const {
    std::vector<double> r(iter_ms.size());
    for (size_t i = 0; i < r.size(); ++i) r[i] = iter_ms[i] / ref_ms[i];
    return r;
  }
};

struct CellResult {
  std::vector<double> setup_s;
  Samples untraced;
  Samples traced;                 // traced runs only
  rt::SimReport sim;              // over the first kSimIters timed iterations
  double rss_mb = 0;              // process peak RSS when `sim` was taken
  int64_t plan_hits = 0;
  int64_t plan_misses = 0;
  uint64_t checksum = 0;
  bool ok = false;
};

// A traced run records set-ups, checks and the second half of each timed
// phase; the first half runs with observability off, for comparison.
bool g_traced = false;

// The reference evaluation as a ruler: `reps` evaluations make one sample.
struct Ruler {
  explicit Ruler(oracle::Reference& ref) : ref(ref) {
    ref.run();  // first touch of the output buffers
    const auto t0 = Clock::now();
    ref.run();
    const double ms = std::max(since(t0) * 1e3, 1e-3);
    reps = static_cast<int>(std::clamp(std::ceil(kRulerMs / ms), 1.0, 1e3));
  }
  double sample_ms() {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) ref.run();
    return since(t0) * 1e3 / reps;
  }
  oracle::Reference& ref;
  int reps = 1;
};

// Runs `min_iters` timed iterations, then more until `seconds` have passed,
// each followed by a ruler sample.
void timed_pairs(comp::Instance& inst, Ruler& ruler, double seconds,
                 int min_iters, Samples& out) {
  const auto start = Clock::now();
  for (int n = 0; n < min_iters || since(start) < seconds; ++n) {
    const auto t0 = Clock::now();
    {
      OBS_SPAN("bench", "run");
      inst.run(1);
    }
    out.iter_ms.push_back(since(t0) * 1e3);
    out.ref_ms.push_back(ruler.sample_ms());
  }
}

// A statement's bindings include its own output tensor, whose definition
// holds the statement: a shared_ptr cycle that keeps every tensor of a
// set-up alive after its last handle is gone. Dropping the bindings once a
// set-up is done with frees them.
void release(Built& b) {
  if (b.stmt != nullptr) b.stmt->bindings.clear();
}

// One set-up: the packed tensors, the compiled kernel and a warm Instance.
struct Setup {
  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
  ~Setup() {
    release(b);
    release(again);
  }

  Built b, again;
  std::optional<comp::CompiledKernel> kernel;
  std::unique_ptr<comp::Instance> inst;  // points into `kernel`
  bool cache_ok = true;
};

// Sets `spec` up afresh over `coo`: pack, search (for search cells),
// compile, instantiate and one warm iteration. Returns the seconds taken.
double set_up(const CellSpec& spec, const fmt::Coo& coo,
              const rt::Machine& machine, Setup& s) {
  const auto t0 = Clock::now();
  {
    OBS_SPAN("bench", "pack");
    s.b = build_kernel(spec.kind, coo, spec.nz, machine.num_procs());
  }
  if (spec.block_c) {
    Tensor c = s.b.stmt->tensor("c");
    c.set_distribution(tdn::parse_tdn("T(x) -> M(x)"));
  }
  if (spec.search) {
    s.b.out.schedule() = sched::Schedule{};
    autosched::Result searched;
    {
      OBS_SPAN("bench", "search");
      searched = autosched::autoschedule_search(*s.b.stmt, machine);
    }
    {
      OBS_SPAN("bench", "compile");
      s.kernel = comp::CompiledKernel::compile(*s.b.stmt, searched.schedule,
                                               machine);
    }
    {
      OBS_SPAN("bench", "pack");
      s.again = build_kernel(spec.kind, coo, spec.nz, machine.num_procs());
    }
    s.again.out.schedule() = sched::Schedule{};
    const int64_t hits = autosched::PlanCache::global().hits();
    {
      OBS_SPAN("bench", "compile");
      comp::CompiledKernel::compile(*s.again.stmt, machine);
    }
    s.cache_ok = autosched::PlanCache::global().hits() == hits + 1;
    if (!s.cache_ok) {
      std::fprintf(stderr, "%s: recompile missed the plan cache\n",
                   spec.name.c_str());
    }
  } else {
    OBS_SPAN("bench", "compile");
    s.kernel = comp::CompiledKernel::compile(*s.b.stmt, machine);
  }
  {
    OBS_SPAN("bench", "instantiate");
    s.inst = s.kernel->instantiate(std::make_shared<rt::Runtime>(machine));
    s.inst->runtime().flush();
  }
  {
    OBS_SPAN("bench", "warm");
    s.inst->run(kWarmIters);
  }
  return since(t0);
}

// `setups` set-ups of `spec` over `coo`; on the last one, at least kSimIters
// timed iterations and more until `seconds` have passed, then the output
// check.
CellResult run_cell(const CellSpec& spec, const fmt::Coo& coo, int setups,
                    double seconds) {
  CellResult r;
  obs::set_enabled(g_traced);
  const rt::Machine machine =
      make_machine(spec.nodes, rt::ProcKind::CPU, spec.nodes);
  try {
    std::optional<Setup> s;
    for (int k = 0; k < setups; ++k) {
      s.emplace();  // frees the previous set-up first
      r.setup_s.push_back(set_up(spec, coo, machine, *s));
    }
    comp::Instance& inst = *s->inst;
    inst.runtime().reset_timing();

    oracle::Reference ref(spec.kind, coo, *s->b.stmt);
    Ruler ruler(ref);
    const double share = g_traced ? 0.5 : 1.0;
    obs::set_enabled(false);
    const auto timed0 = Clock::now();
    timed_pairs(inst, ruler, 0.0, kSimIters, r.untraced);
    r.sim = inst.report();
    r.rss_mb = max_rss_mb();
    timed_pairs(inst, ruler, seconds * share - since(timed0), 0, r.untraced);
    if (g_traced) {
      obs::set_enabled(true);
      timed_pairs(inst, ruler, seconds * share, kSimIters, r.traced);
    }

    oracle::Check check;
    {
      OBS_SPAN("bench", "check");
      check = oracle::check(ref.result(), s->b.out);
    }
    if (!check.ok()) {
      std::fprintf(stderr, "%s: %lld of %lld outputs off (max rel err %.3g), "
                   "first %s\n", spec.name.c_str(),
                   static_cast<long long>(check.mismatches),
                   static_cast<long long>(check.compared), check.max_rel_err,
                   check.first_mismatch.c_str());
    }
    r.checksum = oracle::checksum(s->b.out);
    const rt::SimReport end = inst.report();
    r.plan_hits = end.plan_hits;
    r.plan_misses = end.plan_misses;
    r.ok = check.ok() && s->cache_ok;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", spec.name.c_str(), e.what());
    r.ok = false;
  }
  obs::set_enabled(false);
  return r;
}

// --- workloads ---------------------------------------------------------------

struct Summary {
  std::vector<double> setup_s;  // one per set-up (steady) or pass (sweep)
  // Median of iteration / reference-evaluation time ratios, tracing off and
  // on. Sweep values are geometric means over cells of per-cell medians.
  double iter_rel = 0;
  double traced_rel = 0;
  double iter_ms = 0;  // median steady iteration, tracing off
  double iter_ms_p90 = 0;
  double ref_ms = 0;   // median reference evaluation
  int64_t iter_samples = 0;
  double sim_ms = 0;
  // Peak RSS after a fixed amount of work: the first set-up and its first
  // kSimIters iterations, or the first sweep pass. spmv_nz_fetch's RSS keeps
  // growing for ~75 steady iterations (to ~90 MB), so a peak taken at the
  // end of the run would depend on how many iterations the host allowed.
  double peak_rss_mb = 0;
  // Exact per-iteration counts from the SimReport (summed over sweep cells).
  double sim_tasks = 0, messages = 0, inter_kb = 0, intra_kb = 0;
  double imbalance = 0;
  int64_t plan_hits = 0, plan_lookups = 0;
  int64_t attempted = 0, failed = 0;
  uint64_t checksum = 0xcbf29ce484222325ull;
};

void add_checksum(Summary& s, uint64_t h) {
  s.checksum = (s.checksum ^ h) * 0x100000001b3ull;
}

void add_cell(Summary& s, const CellResult& r) {
  ++s.attempted;
  if (!r.ok) ++s.failed;
  add_checksum(s, r.checksum);
  s.plan_hits += r.plan_hits;
  s.plan_lookups += r.plan_hits + r.plan_misses;
}

void add_counts(Summary& s, const rt::SimReport& rep) {
  s.sim_tasks += static_cast<double>(rep.tasks) / kSimIters;
  s.messages += static_cast<double>(rep.messages) / kSimIters;
  s.inter_kb += rep.inter_node_bytes / 1024.0 / kSimIters;
  s.intra_kb += rep.intra_node_bytes / 1024.0 / kSimIters;
}

struct Steady {
  CellSpec spec;
  fmt::Coo (*make)(uint64_t seed);
};

const std::vector<Steady>& steady_workloads() {
  static const std::vector<Steady> w = {
      {{"spmv_nz_fetch", KernelKind::SpMV, true, 8, false, true},
       [](uint64_t seed) {
         return data::powerlaw_matrix(8333, 8333, 100000, 1.1, seed);
       }},
      {{"spmm_row", KernelKind::SpMM, false, 4, false, false},
       // The band's structure ignores the seed, so the seed also adds a
       // row to every piece (up to 99); otherwise every seed would
       // simulate exactly the same time.
       [](uint64_t seed) {
         return data::banded_matrix(
             37000 + 4 * static_cast<Coord>(seed % 100), 27, seed);
       }},
      {{"mttkrp_nz_reduce", KernelKind::SpMTTKRP, true, 4, false, false},
       [](uint64_t seed) {
         return data::powerlaw_3tensor(13000, 13000, 160, 1000000, 1.1, seed);
       }},
  };
  return w;
}

Summary run_steady(const Steady& w, uint64_t seed, double seconds) {
  const fmt::Coo coo = w.make(seed);
  Summary s;
  std::vector<double> iters, refs, ratios, traced_ratios;
  auto append = [](std::vector<double>& to, const std::vector<double>& xs) {
    to.insert(to.end(), xs.begin(), xs.end());
  };
  for (int round = 0; round < kRounds; ++round) {
    const CellResult r =
        run_cell(w.spec, coo, kSetupsPerRound, seconds / kRounds);
    add_cell(s, r);
    append(s.setup_s, r.setup_s);
    append(iters, r.untraced.iter_ms);
    append(refs, r.untraced.ref_ms);
    append(ratios, r.untraced.ratios());
    append(traced_ratios, r.traced.ratios());
    if (round == 0) {
      s.peak_rss_mb = r.rss_mb;
      s.sim_ms = r.sim.sim_time / kSimIters * 1e3;
      s.imbalance = r.sim.imbalance;
      add_counts(s, r.sim);
    }
  }
  s.iter_rel = median(ratios);
  s.traced_rel = median(traced_ratios);
  s.iter_ms = median(iters);
  s.iter_ms_p90 = quantile(iters, 0.9);
  s.ref_ms = median(refs);
  s.iter_samples = static_cast<int64_t>(iters.size());
  return s;
}

// sweep_cold: figure-10/12-style cold cells. Each kernel runs on two Table II
// datasets of different structural classes (power-law, near-regular,
// uniform, banded; hypersparse, uniform and patents-like tensors) at 1, 4
// and 16 CPU nodes; the 4-node cells are auto-scheduled. The full 144-cell
// grid takes ~20 s per pass, too long to repeat within one run.
struct SweepDataset {
  KernelKind kind;
  const char* dataset;
};

constexpr SweepDataset kSweep[] = {
    {KernelKind::SpMV, "arabic-2005"},
    {KernelKind::SpMV, "nlpkkt240"},
    {KernelKind::SpMM, "kmer_A2a"},
    {KernelKind::SpMM, "webbase-2001"},
    {KernelKind::SpAdd3, "mycielskian19"},
    {KernelKind::SpAdd3, "uk-2005"},
    {KernelKind::SDDMM, "twitter7"},
    {KernelKind::SDDMM, "kmer_V1r"},
    {KernelKind::SpTTV, "patents"},
    {KernelKind::SpTTV, "freebase_music"},
    {KernelKind::SpMTTKRP, "nell-2"},
    {KernelKind::SpMTTKRP, "freebase_sampled"},
};

Summary run_sweep(uint64_t seed, double seconds) {
  // Every seed samples each dataset to 90% of its non-zeros, with the seed
  // as the sampling phase, so all seeds do the same amount of work.
  std::map<std::string, fmt::Coo> coos;
  for (const SweepDataset& d : kSweep) {
    if (coos.count(d.dataset) != 0) continue;
    const fmt::Coo full = data::dataset(d.dataset).make();
    coos[d.dataset] = data::sample_coo(full, full.nnz() * 9 / 10, seed);
  }
  std::vector<std::pair<CellSpec, const fmt::Coo*>> cells;
  for (const SweepDataset& d : kSweep) {
    for (int nodes : {1, 4, 16}) {
      CellSpec c;
      c.kind = d.kind;
      c.nodes = nodes;
      c.search = nodes == 4;
      c.nz = !c.search && d.kind == KernelKind::SDDMM;
      c.name = strprintf("%s/%s/%dN", base::kernel_kind_name(d.kind),
                         d.dataset, nodes);
      cells.emplace_back(c, &coos.at(d.dataset));
    }
  }

  Summary s;
  std::vector<Samples> untraced(cells.size()), traced(cells.size());
  std::vector<rt::SimReport> sims(cells.size());
  auto append = [](Samples& to, const Samples& from) {
    to.iter_ms.insert(to.iter_ms.end(), from.iter_ms.begin(),
                      from.iter_ms.end());
    to.ref_ms.insert(to.ref_ms.end(), from.ref_ms.begin(), from.ref_ms.end());
  };
  const auto start = Clock::now();
  for (int pass = 0; pass == 0 || since(start) < seconds; ++pass) {
    double setup = 0;
    for (size_t c = 0; c < cells.size(); ++c) {
      // Every search starts cold: the first compile of a cell writes the
      // plan cache and only its own recompile may read it.
      autosched::PlanCache::global().clear();
      const CellResult r = run_cell(cells[c].first, *cells[c].second, 1, 0.0);
      add_cell(s, r);
      for (double t : r.setup_s) setup += t;
      append(untraced[c], r.untraced);
      append(traced[c], r.traced);
      if (pass == 0) sims[c] = r.sim;
    }
    s.setup_s.push_back(setup);
    if (pass == 0) s.peak_rss_mb = max_rss_mb();
  }
  std::vector<double> rel, traced_rel, med, p90, ref, sim_ms, imbalance;
  for (size_t c = 0; c < cells.size(); ++c) {
    rel.push_back(median(untraced[c].ratios()));
    if (!traced[c].iter_ms.empty()) {
      traced_rel.push_back(median(traced[c].ratios()));
    }
    med.push_back(median(untraced[c].iter_ms));
    p90.push_back(quantile(untraced[c].iter_ms, 0.9));
    ref.push_back(median(untraced[c].ref_ms));
    sim_ms.push_back(sims[c].sim_time / kSimIters * 1e3);
    imbalance.push_back(sims[c].imbalance);
    add_counts(s, sims[c]);
    s.iter_samples += static_cast<int64_t>(untraced[c].iter_ms.size());
  }
  s.iter_rel = geomean(rel);
  s.traced_rel = geomean(traced_rel);
  s.iter_ms = geomean(med);
  s.iter_ms_p90 = geomean(p90);
  s.ref_ms = geomean(ref);
  s.sim_ms = geomean(sim_ms);
  s.imbalance = geomean(imbalance);
  return s;
}

// --- self-test of the output check ------------------------------------------

// For each kernel: a small case must pass the oracle, and the same output
// with one value nudged by a relative 1e-6 must fail it.
int selftest() {
  struct Case {
    KernelKind kind;
    bool nz;
    fmt::Coo coo;
  };
  const std::vector<Case> cases = {
      {KernelKind::SpMV, true, data::powerlaw_matrix(400, 300, 4000, 1.1, 7)},
      {KernelKind::SpMM, false, data::banded_matrix(300, 7, 7)},
      {KernelKind::SpAdd3, false, data::uniform_matrix(300, 200, 3000, 7)},
      {KernelKind::SDDMM, true, data::uniform_matrix(200, 300, 3000, 7)},
      {KernelKind::SpTTV, false, data::uniform_3tensor(40, 30, 50, 3000, 7)},
      {KernelKind::SpMTTKRP, true,
       data::powerlaw_3tensor(60, 50, 20, 3000, 1.1, 7)},
  };
  int bad = 0;
  for (const Case& c : cases) {
    const char* name = base::kernel_kind_name(c.kind);
    const rt::Machine machine = make_machine(4, rt::ProcKind::CPU, 4);
    Built b = build_kernel(c.kind, c.coo, c.nz, machine.num_procs());
    rt::Runtime runtime(machine);
    const comp::CompiledKernel kernel =
        comp::CompiledKernel::compile(*b.stmt, machine);
    kernel.instantiate(runtime)->run(1);
    oracle::Reference ref(c.kind, c.coo, *b.stmt);
    ref.run();
    const oracle::Entries want = ref.result();
    const bool clean = oracle::check(want, b.out).ok();
    const uint64_t before = oracle::checksum(b.out);
    std::vector<double>& vals = b.out.storage().vals()->data();
    double& v = vals[vals.size() / 2];
    v += 1e-6 * std::max(1.0, std::abs(v));
    const bool caught = !oracle::check(want, b.out).ok();
    const bool hashed = oracle::checksum(b.out) != before;
    std::printf("selftest %-9s clean=%s perturbed-caught=%s "
                "checksum-moved=%s\n",
                name, clean ? "yes" : "NO", caught ? "yes" : "NO",
                hashed ? "yes" : "NO");
    bad += clean && caught && hashed ? 0 : 1;
  }
  std::printf("selftest: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

// --- output ------------------------------------------------------------------

std::string json_list(const std::vector<double>& xs) {
  std::string out = "[";
  for (size_t i = 0; i < xs.size(); ++i) {
    out += strprintf("%s%.17g", i ? ", " : "", xs[i]);
  }
  return out + "]";
}

void print_result(const std::string& workload, uint64_t seed,
                  const Summary& s) {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::string out = strprintf(
      "{\"workload\": \"%s\", \"seed\": %llu, "
      "\"build\": {\"optimize\": %s, \"ndebug\": %s, \"compiler\": \"%s\"}, "
      "\"setup_s\": %s, \"iter_rel\": %.17g, \"traced_rel\": %.17g, "
      "\"iter_ms\": %.17g, \"iter_ms_p90\": %.17g, \"ref_ms\": %.17g, "
      "\"iter_samples\": %lld, "
      "\"sim_ms\": %.17g, \"sim_tasks\": %.17g, "
      "\"messages\": %.17g, \"inter_node_kb\": %.17g, "
      "\"intra_node_kb\": %.17g, \"imbalance\": %.17g, "
      "\"plan_hits\": %lld, \"plan_lookups\": %lld, "
      "\"peak_rss_mb\": %.17g, \"attempted\": %lld, \"failed\": %lld, "
      "\"checksum\": \"%016llx\", \"registry\": %s}",
      workload.c_str(), static_cast<unsigned long long>(seed),
      optimized ? "true" : "false",
      ndebug ? "true" : "false", __VERSION__, json_list(s.setup_s).c_str(),
      s.iter_rel, s.traced_rel, s.iter_ms, s.iter_ms_p90, s.ref_ms,
      static_cast<long long>(s.iter_samples), s.sim_ms, s.sim_tasks,
      s.messages, s.inter_kb, s.intra_kb, s.imbalance,
      static_cast<long long>(s.plan_hits),
      static_cast<long long>(s.plan_lookups),
      s.peak_rss_mb,
      static_cast<long long>(s.attempted), static_cast<long long>(s.failed),
      static_cast<unsigned long long>(s.checksum),
      obs::Metrics::global().json().c_str());
  // The registry snapshot is pretty-printed; keep the result on one line.
  std::replace(out.begin(), out.end(), '\n', ' ');
  std::printf("%s\n", out.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: spd_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace-out FILE]\n"
               "       spd_bench --selftest\n"
               "workloads: spmv_nz_fetch spmm_row mttkrp_nz_reduce "
               "sweep_cold\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  uint64_t seed = 1;
  double seconds = 10;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") return selftest();
    if (!has_value) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::atof(v);
    } else if (a == "--trace-out") {
      trace_out = v;
    } else {
      return usage();
    }
  }
  g_traced = !trace_out.empty();
  if (g_traced) {
    obs::set_enabled(true);
    obs::TraceRecorder::global().start();
  }

  Summary s;
  if (workload == "sweep_cold") {
    s = run_sweep(seed, seconds);
  } else {
    const auto& ws = steady_workloads();
    const auto it = std::find_if(ws.begin(), ws.end(), [&](const Steady& w) {
      return w.spec.name == workload;
    });
    if (it == ws.end()) return usage();
    s = run_steady(*it, seed, seconds);
  }

  if (g_traced) {
    obs::set_enabled(true);
    obs::TraceRecorder::global().stop();
    if (!obs::TraceRecorder::global().write(trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      return 1;
    }
  }
  print_result(workload, seed, s);
  return s.failed == 0 ? 0 : 1;
}
