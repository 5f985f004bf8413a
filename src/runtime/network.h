// Analytic interconnect model.
//
// Transfers between nodes cost latency + bytes/bandwidth and serialize on
// the sender's and receiver's NIC (one outstanding transfer per direction
// per node, a reasonable model of a single EDR HCA). Intra-node transfers
// (SYS <-> FB) ride NVLink. Traffic totals feed the SimReport.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/machine.h"

namespace spdistal::obs {
class TraceRecorder;
}

namespace spdistal::rt {

struct TrafficStats {
  double inter_node_bytes = 0;
  double intra_node_bytes = 0;  // CPU<->GPU staging
  int64_t messages = 0;

  void clear() { *this = TrafficStats{}; }
};

class Network {
 public:
  Network() = default;
  Network(const MachineConfig& config)
      : config_(config),
        nic_send_free_(static_cast<size_t>(config.nodes), 0.0),
        nic_recv_free_(static_cast<size_t>(config.nodes), 0.0) {}

  // Schedules a transfer of `bytes` from `src` to `dst` memory, ready to
  // start at `ready_time` (simulated seconds). Returns the completion time.
  // Same-memory transfers are free; same-node cross-memory transfers use
  // NVLink without NIC serialization.
  double transfer(const Mem& src, const Mem& dst, double bytes,
                  double ready_time);

  // Binomial-tree broadcast of the same `bytes` from `src` to every node in
  // `dst_nodes` (replication of a tensor, e.g. the dense vector c in SpMV).
  // Returns the time the last destination receives the data.
  double broadcast(const Mem& src, const std::vector<int>& dst_nodes,
                   double bytes, double ready_time);

  const TrafficStats& stats() const { return stats_; }
  void reset_stats() { stats_.clear(); }
  // Resets NIC availability clocks (between benchmark trials).
  void reset_clocks();

  // Attaches (or detaches with nullptr) the trace recorder: transfer spans
  // on per-node NIC/NVLink tracks. Proxy/scratch networks must stay
  // detached. Traffic totals live in stats() either way.
  void set_trace(obs::TraceRecorder* trace) { trace_ = trace; }

 private:
  MachineConfig config_;
  std::vector<double> nic_send_free_;
  std::vector<double> nic_recv_free_;
  TrafficStats stats_;
  obs::TraceRecorder* trace_ = nullptr;
};

}  // namespace spdistal::rt
