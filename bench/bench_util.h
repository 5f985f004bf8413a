// Shared benchmark harness: builds each evaluation kernel (statement +
// schedule + data distributions) for a dataset, runs SpDISTAL and the three
// baseline systems on the scaled Lassen-like machine, and formats the
// tables/series of the paper's figures.
//
// Methodology (mirroring paper §VI): every run performs warm-up iterations
// (first-touch communication, instance placement), resets the simulated
// clocks, then times steady-state iterations. Trial counts are reduced from
// the paper's 10+20 because the simulator is deterministic.
#pragma once

#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "baselines/ctf_like.h"
#include "baselines/petsc_like.h"
#include "compiler/lower.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "common/str_util.h"
#include "tensor/tensor.h"

namespace spdbench {

using namespace spdistal;  // NOLINT: benchmark binaries only

inline constexpr int kWarmIters = 1;
inline constexpr int kTimedIters = 3;
inline constexpr rt::Coord kSpmmJ = 32;   // dense columns in SpMM
inline constexpr rt::Coord kSddmmK = 32;  // inner dimension in SDDMM
inline constexpr rt::Coord kRank = 16;    // factor rank in SpMTTKRP

// A built kernel: output tensor (whose definition/schedule carry the
// statement) ready to compile or hand to a baseline.
struct Built {
  Tensor out;
  Statement* stmt = nullptr;
};

// Builds `kind` over `coo`. `nz` selects the non-zero (position-space)
// distribution + fused schedule; otherwise row-based universe distribution.
// Data distributions are matched to the computation distribution.
Built build_kernel(base::KernelKind kind, const fmt::Coo& coo, bool nz,
                   int pieces);

// One benchmark cell.
struct Result {
  double seconds = 0;
  bool dnc = false;
  bool unsupported = false;
  std::string note;

  bool ok() const { return !dnc && !unsupported; }
};

rt::Machine make_machine(int nodes, rt::ProcKind kind, int grid_size);

Result run_spdistal(base::KernelKind kind, const fmt::Coo& coo, bool nz,
                    const rt::Machine& machine);
// Same cell with the hand-written schedule wiped and the auto-scheduler
// searching instead; `note` carries the search diagnostics
// (autosched::Result::summary) so searched-vs-hand-written rows in the
// figure tables are attributable. Enabled in the fig harnesses via
// $SPDISTAL_BENCH_AUTOSCHED.
Result run_spdistal_autosched(base::KernelKind kind, const fmt::Coo& coo,
                              const rt::Machine& machine);
// The memory-conserving GPU SpMM schedule (SpDISTAL-Batched, §VI-A2):
// row-distributed compute with the dense operand partitioned by columns and
// cycled between devices in rounds.
Result run_spdistal_spmm_batched(const fmt::Coo& coo,
                                 const rt::Machine& machine);
Result run_petsc(base::KernelKind kind, const fmt::Coo& coo,
                 const rt::Machine& machine);
Result run_trilinos(base::KernelKind kind, const fmt::Coo& coo,
                    const rt::Machine& machine);
Result run_ctf(base::KernelKind kind, const fmt::Coo& coo,
               const rt::Machine& machine);

// --- formatting ---------------------------------------------------------------

double geomean(const std::vector<double>& xs);
std::string cell(const Result& r);  // "12.3" (ms) or "DNC"/"n/a"

void print_rule(int width);
void print_header(const std::string& title);

// One-line observability summary of a run: LaunchPlan memo hit-rate plus the
// top-3 kernels by simulated busy time ("[obs] spmv_row: plan hit-rate
// 85.7% (12/14) | spmv_row 24 tasks 1.2ms ..."). Empty when the report has
// no plan activity. The spdistal runners print it when obs::enabled(), so
// plain bench output is unchanged unless SPDISTAL_OBS/TRACE/METRICS is set.
std::string obs_summary(const rt::SimReport& rep);

// One-line calibration summary: for each kernel in the report with learned
// rates, the measured wall-per-flop/byte and its delta vs the machine
// model's static table ("[calib] spmv_row: 1.2e-10 s/flop (-18% vs static)
// ..."). Empty when calibration is off or nothing relevant was learned. The
// spdistal runners print it alongside the [obs] line.
std::string calib_summary(const rt::SimReport& rep,
                          const rt::Machine& machine);

// --- machine-readable bench output -------------------------------------------

// One row per benchmark: wall nanoseconds per operation plus the
// throughput counters google-benchmark derives from SetItemsProcessed /
// SetBytesProcessed (0 when a bench does not set them).
struct BenchRow {
  std::string name;
  double ns_per_op = 0;
  double items_per_s = 0;
  double bytes_per_s = 0;
};

// Persists rows as versioned JSON ({"version": 1, "config": {...},
// "benchmarks": [...]}), where "config" records the build type,
// __OPTIMIZE__/NDEBUG, the compiler version and the SPDISTAL_* environment
// that produced the numbers. Written atomically (tmp + rename, like the
// calibration and plan stores) so CI can diff and upload kernel
// trajectories without scraping stdout tables. Returns false on I/O
// failure.
bool write_bench_json(const std::string& path,
                      const std::vector<BenchRow>& rows);

// One-line plan-service summary: hit rate of the global PlanCache, entries
// loaded from the persistent store, and how many compiles searched cold vs
// were served warm ("[plan] cache 66.7% (6 hits / 9 lookups) | store: 3
// loaded | searches: 3 cold, 6 warm").
// Empty when the cache saw no lookups. Printed alongside [obs]/[calib].
std::string plan_summary();

}  // namespace spdbench
