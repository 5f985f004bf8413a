// Discrete-event execution model.
//
// Leaf tasks run for real (producing exact numerical results); their *cost*
// is modeled: each kernel reports a WorkEstimate measured from the non-zeros
// it actually processed, and the simulator charges
//     time = launch_overhead + max(flops / rate, bytes / mem_bw)
// to the owning virtual processor. Distributed launches advance per-
// processor clocks independently (Legion's deferred, non-blocking execution
// model); synchronous baselines insert explicit barriers. The maximum clock
// is the makespan.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/machine.h"

namespace spdistal::obs {
class TraceRecorder;
}

namespace spdistal::rt {

// Work performed by a leaf task, measured during real execution. `nnz` is
// the stored non-zeros the leaf actually processed — carried alongside the
// priced work so the measured-leaf trace track can report per-span density
// (it does not participate in pricing).
struct WorkEstimate {
  double flops = 0;
  double bytes = 0;
  double nnz = 0;

  WorkEstimate& operator+=(const WorkEstimate& o) {
    flops += o.flops;
    bytes += o.bytes;
    nnz += o.nnz;
    return *this;
  }
  friend WorkEstimate operator+(WorkEstimate a, const WorkEstimate& b) {
    a += b;
    return a;
  }
};

class Simulator {
 public:
  Simulator() = default;
  explicit Simulator(const Machine& machine);

  const Machine& machine() const { return machine_; }

  double clock(const Proc& p) const;
  void set_clock(const Proc& p, double t);

  // Executes `work` on `p` with a leaf exploiting `threads` hardware threads
  // (per Figure 1's parallelize(ii, CPUThread); ignored for GPUs). The task
  // may start no earlier than `ready_time` (data arrival). Returns the
  // completion time and advances p's clock to it. When a trace recorder is
  // attached and `name` is non-null, the task is recorded as a span on p's
  // simulated-timeline track; a non-zero `flow_id` additionally records a
  // flow end at the span's start, terminating the arrow from the launch's
  // host enqueue span.
  double run_task(const Proc& p, const WorkEstimate& work, int threads,
                  double ready_time, const char* name = nullptr,
                  uint64_t flow_id = 0);

  // Attaches (or detaches with nullptr) the trace recorder that task spans
  // go to. Proxy/scratch simulators must stay detached so the recorded
  // timeline only reflects the application's runtime.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }
  obs::TraceRecorder* trace() const { return trace_; }

  // Pure cost query without advancing clocks.
  double task_duration(const Proc& p, const WorkEstimate& work,
                       int threads) const;

  // Maximum clock over all processors (current makespan).
  double now_max() const;
  // Synchronizes every processor clock to the makespan (global barrier, the
  // bulk-synchronous semantics of the MPI-based baselines).
  void barrier();
  // Zeroes all clocks and busy counters (between warm-up and timed trials).
  void reset();

  int64_t tasks_run() const { return tasks_run_; }
  // Ratio max/mean busy time across processors that ran anything; 1.0 means
  // perfect load balance.
  double imbalance() const;

 private:
  size_t slot(const Proc& p) const;

  Machine machine_;
  std::vector<double> clocks_;
  std::vector<double> busy_;
  int64_t tasks_run_ = 0;
  obs::TraceRecorder* trace_ = nullptr;
};

}  // namespace spdistal::rt
