// Auto-scheduler vs the paper's hand-written schedules: SpMV, SDDMM,
// SpAdd3, and SpMTTKRP across CPU and GPU machine shapes.
//
// Each cell compares steady-state simulated time of (a) the hand-written
// universe (row-distribution) schedule from the benchmark harness, and (b)
// the schedule found by autosched::autoschedule_search with no human input,
// plus the searched plan and whether a second compile hits the plan cache.
#include <cstdio>

#include "autosched/autosched.h"
#include "bench_util.h"

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

}  // namespace
}  // namespace spdbench

int main() {
  using namespace spdbench;
  run_machine("4 CPU nodes", make_machine(4, rt::ProcKind::CPU, 4));
  run_machine("8 CPU nodes", make_machine(8, rt::ProcKind::CPU, 8));
  run_machine("1 node x 4 GPUs", make_machine(1, rt::ProcKind::GPU, 4));
  run_machine("2 nodes x 8 GPUs", make_machine(2, rt::ProcKind::GPU, 8));
  return 0;
}
