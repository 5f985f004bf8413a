// Auto-scheduler vs the paper's hand-written schedules: SpMV, SDDMM,
// SpAdd3, and SpMTTKRP across CPU and GPU machine shapes.
//
// Each cell compares steady-state simulated time of (a) the hand-written
// universe (row-distribution) schedule from the benchmark harness, and (b)
// the schedule found by autosched::autoschedule_search with no human input,
// plus the searched plan and whether a second compile hits the plan cache.
#include <cstdio>

#include "autosched/autosched.h"
#include "autosched/plan_store.h"
#include "bench_util.h"
#include "obs/obs.h"

namespace spdbench {
namespace {

using base::KernelKind;

// Steady-state seconds/iteration, or nullopt for DNC / unsupported cells.
std::optional<double> measure(Statement& stmt, const sched::Schedule& schedule,
                              const rt::Machine& machine) {
  try {
    rt::Runtime runtime(machine);
    auto inst = comp::CompiledKernel::compile(stmt, schedule, machine)
                    .instantiate(runtime);
    inst->run(kWarmIters);
    runtime.reset_timing();
    inst->run(kTimedIters);
    return inst->report().sim_time / kTimedIters;
  } catch (const SpdError&) {
    return std::nullopt;
  }
}

std::string ms(const std::optional<double>& t) {
  return t.has_value() ? strprintf("%5.2f ms", *t * 1e3) : "     DNC";
}

void run_cell(KernelKind kind, const fmt::Coo& coo,
              const rt::Machine& machine) {
  // Hand-written: the paper's universe row-distribution schedule.
  Built hand = build_kernel(kind, coo, /*nz=*/false, machine.num_procs());
  const auto t_hand = measure(*hand.stmt, hand.out.schedule(), machine);

  // Searched: same statement, schedule wiped, auto-scheduled.
  Built searched = build_kernel(kind, coo, /*nz=*/false, machine.num_procs());
  searched.out.schedule() = sched::Schedule{};
  std::optional<double> t_search;
  std::string plan = "n/a";
  std::string recompile = "-";
  std::string diagnostics = "search failed: no instantiable candidate";
  try {
    autosched::Result r1 =
        autosched::autoschedule_search(*searched.stmt, machine);
    t_search = measure(*searched.stmt, r1.schedule, machine);
    plan = r1.recipe.str();
    diagnostics = r1.summary();
    autosched::Result r2 =
        autosched::autoschedule_search(*searched.stmt, machine);
    recompile = r2.from_cache ? "cache-hit" : "cache-MISS";
  } catch (const SpdError&) {
    // No legal candidate could be instantiated on this machine.
  }
  std::string speedup = "   -";
  if (t_hand.has_value() && t_search.has_value()) {
    speedup = strprintf("%4.2fx", *t_hand / *t_search);
  }
  std::printf("%-9s %s %s %s  %-12s %s\n", base::kernel_kind_name(kind),
              ms(t_hand).c_str(), ms(t_search).c_str(), speedup.c_str(),
              recompile.c_str(), plan.c_str());
  // Search diagnostics (Result::summary): what the search considered and
  // why this plan won — makes searched-vs-hand-written cells attributable.
  std::printf("%-9s   search: %s\n", "", diagnostics.c_str());
}

void run_machine(const std::string& title, const rt::Machine& machine) {
  print_header(strprintf("%s — hand-written vs searched schedules", title.c_str()));
  std::printf("%-9s %8s %8s %6s  %-12s %s\n", "kernel", "hand", "searched",
              "speedup", "recompile", "searched plan");
  print_rule(78);
  const fmt::Coo mat = data::powerlaw_matrix(6000, 6000, 120000, 1.3, 31);
  run_cell(KernelKind::SpMV, mat, machine);
  run_cell(KernelKind::SDDMM, mat, machine);
  run_cell(KernelKind::SpAdd3, mat, machine);
  const fmt::Coo ten = data::powerlaw_3tensor(800, 600, 400, 60000, 1.2, 32);
  run_cell(KernelKind::SpMTTKRP, ten, machine);
}

// The plan-service headline number: wall time of a cold autoschedule search
// vs the first compile of a warm process (store persisted, in-memory cache
// dropped, store reloaded). Also proves set_plan_store(false) bit-identity:
// a fresh search with the store disabled picks the same recipe, and running
// both schedules yields byte-identical outputs.
void bm_plan_store_cold_warm(const rt::Machine& machine) {
  print_header("BM_PlanStoreColdWarm — cold search vs warm-process compile");
  const char* path = "micro_plan_store.json";
  std::remove(path);
  autosched::PlanCache::global().clear();
  autosched::set_plan_store(true);

  const fmt::Coo mat = data::powerlaw_matrix(6000, 6000, 120000, 1.3, 33);
  Built cold = build_kernel(KernelKind::SpMV, mat, /*nz=*/false,
                            machine.num_procs());
  cold.out.schedule() = sched::Schedule{};
  const double c0 = obs::wall_us();
  const autosched::Result rc =
      autosched::autoschedule_search(*cold.stmt, machine);
  const double cold_us = obs::wall_us() - c0;

  // Persist, drop the in-memory cache, reload: exactly what a warm sibling
  // process sees on its first compile.
  autosched::save_plan_store(path);
  autosched::PlanCache::global().clear();
  const size_t loaded = autosched::load_plan_store(path);

  Built warm = build_kernel(KernelKind::SpMV, mat, /*nz=*/false,
                            machine.num_procs());
  warm.out.schedule() = sched::Schedule{};
  const double w0 = obs::wall_us();
  const autosched::Result rw =
      autosched::autoschedule_search(*warm.stmt, machine);
  const double warm_us = obs::wall_us() - w0;

  // Store off: a fresh full search must reproduce the same decision.
  autosched::set_plan_store(false);
  autosched::PlanCache::global().clear();
  Built off = build_kernel(KernelKind::SpMV, mat, /*nz=*/false,
                           machine.num_procs());
  off.out.schedule() = sched::Schedule{};
  const autosched::Result ro =
      autosched::autoschedule_search(*off.stmt, machine);
  autosched::set_plan_store(true);

  const auto t_warm = measure(*warm.stmt, rw.schedule, machine);
  const auto t_off = measure(*off.stmt, ro.schedule, machine);
  const bool outputs_identical =
      t_warm.has_value() && t_off.has_value() &&
      fmt::storage_equals(warm.out.storage(), off.out.storage(), 0.0);

  std::printf("cold search:   %9.0f us (%d enumerated, %d simulated)\n",
              cold_us, rc.enumerated, rc.simulated);
  std::printf("warm process:  %9.0f us (%zu plans loaded, %s, %d enumerated)\n",
              warm_us, loaded,
              rw.from_cache ? "store hit" : "store MISS",
              rw.enumerated);
  std::printf("speedup: %.0fx%s | store off vs on: recipes %s, outputs %s\n",
              warm_us > 0 ? cold_us / warm_us : 0.0,
              cold_us >= 10 * warm_us ? " (>= 10x)" : " (< 10x!)",
              ro.recipe == rw.recipe ? "equal" : "DIFFER",
              outputs_identical ? "byte-identical" : "DIFFER");
  const std::string plan = plan_summary();
  if (!plan.empty()) std::printf("%s\n", plan.c_str());
  std::remove(path);
}

}  // namespace
}  // namespace spdbench

int main() {
  using namespace spdbench;
  run_machine("4 CPU nodes", make_machine(4, rt::ProcKind::CPU, 4));
  run_machine("8 CPU nodes", make_machine(8, rt::ProcKind::CPU, 8));
  run_machine("1 node x 4 GPUs", make_machine(1, rt::ProcKind::GPU, 4));
  run_machine("2 nodes x 8 GPUs", make_machine(2, rt::ProcKind::GPU, 8));
  bm_plan_store_cold_warm(make_machine(4, rt::ProcKind::CPU, 4));
  return 0;
}
