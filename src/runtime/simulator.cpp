#include "runtime/simulator.h"

#include <algorithm>

#include "common/error.h"
#include "common/str_util.h"
#include "obs/obs.h"

namespace spdistal::rt {

Simulator::Simulator(const Machine& machine) : machine_(machine) {
  const auto& cfg = machine.config();
  const size_t slots = static_cast<size_t>(cfg.nodes) *
                       (1 + static_cast<size_t>(cfg.gpus_per_node));
  clocks_.assign(slots, 0.0);
  busy_.assign(slots, 0.0);
}

size_t Simulator::slot(const Proc& p) const {
  const auto& cfg = machine_.config();
  SPD_ASSERT(p.node >= 0 && p.node < cfg.nodes, "bad node " << p.node);
  const size_t base =
      static_cast<size_t>(p.node) * (1 + static_cast<size_t>(cfg.gpus_per_node));
  if (p.kind == ProcKind::CPU) return base;
  SPD_ASSERT(p.index >= 0 && p.index < cfg.gpus_per_node,
             "bad GPU index " << p.index);
  return base + 1 + static_cast<size_t>(p.index);
}

double Simulator::clock(const Proc& p) const { return clocks_[slot(p)]; }

void Simulator::set_clock(const Proc& p, double t) { clocks_[slot(p)] = t; }

double Simulator::task_duration(const Proc& p, const WorkEstimate& work,
                                int threads) const {
  const double rate = machine_.proc_flops(p, threads);
  const double bw = machine_.proc_mem_bw(p, threads);
  const double compute = work.flops / rate;
  const double memory = work.bytes / bw;
  return std::max(compute, memory);
}

double Simulator::run_task(const Proc& p, const WorkEstimate& work, int threads,
                           double ready_time, const char* name,
                           uint64_t flow_id) {
  const size_t s = slot(p);
  const double start = std::max(clocks_[s], ready_time);
  const double duration =
      machine_.config().task_overhead_s + task_duration(p, work, threads);
  clocks_[s] = start + duration;
  busy_[s] += duration;
  ++tasks_run_;
  if (trace_ != nullptr && name != nullptr && trace_->active()) {
    const int tid = static_cast<int>(s);
    trace_->name_sim_track(
        tid, p.kind == ProcKind::CPU
                 ? strprintf("node%d/CPU", p.node)
                 : strprintf("node%d/GPU%d", p.node, p.index));
    trace_->sim_span(tid, "task", name, start, clocks_[s]);
    if (flow_id != 0) {
      trace_->sim_flow_end(flow_id, tid, "launch", name, start);
    }
  }
  return clocks_[s];
}

double Simulator::now_max() const {
  double t = 0;
  for (double c : clocks_) t = std::max(t, c);
  return t;
}

void Simulator::barrier() {
  const double t = now_max();
  std::fill(clocks_.begin(), clocks_.end(), t);
}

void Simulator::reset() {
  std::fill(clocks_.begin(), clocks_.end(), 0.0);
  std::fill(busy_.begin(), busy_.end(), 0.0);
  tasks_run_ = 0;
}

double Simulator::imbalance() const {
  double sum = 0;
  double mx = 0;
  int active = 0;
  for (double b : busy_) {
    if (b > 0) {
      sum += b;
      mx = std::max(mx, b);
      ++active;
    }
  }
  if (active == 0 || sum == 0) return 1.0;
  return mx / (sum / active);
}

}  // namespace spdistal::rt
