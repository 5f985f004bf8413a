#include "runtime/network.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/str_util.h"
#include "obs/obs.h"

namespace spdistal::rt {

namespace {

obs::SpanArgs transfer_args(double bytes, int src_node, int dst_node) {
  return obs::SpanArgs{.kind = obs::SpanArgs::kTransfer,
                       .bytes = bytes,
                       .src_node = src_node,
                       .dst_node = dst_node};
}

}  // namespace

double Network::transfer(const Mem& src, const Mem& dst, double bytes,
                         double ready_time) {
  if (src == dst || bytes <= 0) return ready_time;
  if (src.node == dst.node) {
    // NVLink staging between system memory and a framebuffer (or FB<->FB
    // through the host). No NIC involvement.
    stats_.intra_node_bytes += bytes;
    stats_.messages += 1;
    const double done =
        ready_time + bytes / (config_.nvlink_bw_gbs * 1e9 / config_.time_scale);
    if (trace_ != nullptr && trace_->active()) {
      const int tid = obs::kNvlinkTidBase + src.node;
      trace_->name_sim_track(tid, strprintf("node%d/NVLink", src.node));
      trace_->sim_span(tid, "xfer", "nvlink copy", ready_time, done,
                       transfer_args(bytes, src.node, dst.node));
    }
    return done;
  }
  stats_.inter_node_bytes += bytes;
  stats_.messages += 1;
  auto& send_free = nic_send_free_[static_cast<size_t>(src.node)];
  auto& recv_free = nic_recv_free_[static_cast<size_t>(dst.node)];
  const double start = std::max({ready_time, send_free, recv_free});
  const double duration =
      config_.net_latency_s +
      bytes / (config_.net_bw_gbs * 1e9 / config_.time_scale);
  const double done = start + duration;
  send_free = done;
  recv_free = done;
  // GPU-resident endpoints additionally stage over NVLink.
  double extra = 0;
  if (src.kind == MemKind::FB || dst.kind == MemKind::FB) {
    extra = bytes / (config_.nvlink_bw_gbs * 1e9 / config_.time_scale);
    stats_.intra_node_bytes += bytes;
  }
  if (trace_ != nullptr && trace_->active()) {
    // Recv-side NIC serialization guarantees non-overlapping spans on the
    // receiver's track.
    const int tid = obs::kNicTidBase + dst.node;
    trace_->name_sim_track(tid, strprintf("node%d/NIC", dst.node));
    trace_->sim_span(tid, "xfer", "net xfer", start, done,
                     transfer_args(bytes, src.node, dst.node));
  }
  return done + extra;
}

double Network::broadcast(const Mem& src, const std::vector<int>& dst_nodes,
                          double bytes, double ready_time) {
  // Binomial tree over the distinct destination nodes: ceil(log2(n+1))
  // rounds, each a full point-to-point transfer. We model the time shape and
  // charge total traffic = bytes * n (every destination receives a copy).
  std::vector<int> dsts;
  for (int n : dst_nodes) {
    if (n != src.node && std::find(dsts.begin(), dsts.end(), n) == dsts.end()) {
      dsts.push_back(n);
    }
  }
  if (dsts.empty() || bytes <= 0) return ready_time;
  const double per_hop =
      config_.net_latency_s +
      bytes / (config_.net_bw_gbs * 1e9 / config_.time_scale);
  const double rounds =
      std::ceil(std::log2(static_cast<double>(dsts.size()) + 1.0));
  stats_.inter_node_bytes += bytes * static_cast<double>(dsts.size());
  stats_.messages += static_cast<int64_t>(dsts.size());
  // NIC serialization: the source sends ceil(n/2)-ish messages in the worst
  // round; we conservatively occupy the send direction for 2 hops. The
  // recv direction is held for the whole tree so the source node's NIC
  // track keeps non-overlapping spans (incoming transfers serialize on
  // recv_free, and their spans land on the same track as this broadcast's).
  auto& send_free = nic_send_free_[static_cast<size_t>(src.node)];
  auto& recv_free = nic_recv_free_[static_cast<size_t>(src.node)];
  const double start = std::max({ready_time, send_free, recv_free});
  send_free = start + 2 * per_hop;
  const double done = start + rounds * per_hop;
  recv_free = done;
  if (trace_ != nullptr && trace_->active()) {
    // One span on the source NIC covering the whole tree; per-destination
    // hops are not individually modeled.
    const int tid = obs::kNicTidBase + src.node;
    trace_->name_sim_track(tid, strprintf("node%d/NIC", src.node));
    trace_->sim_span(tid, "xfer", strprintf("broadcast x%zu", dsts.size()),
                     start, done,
                     obs::SpanArgs{.kind = obs::SpanArgs::kBroadcast,
                                   .bytes = bytes,
                                   .src_node = src.node,
                                   .fanout = static_cast<int>(dsts.size())});
  }
  return done;
}

void Network::reset_clocks() {
  std::fill(nic_send_free_.begin(), nic_send_free_.end(), 0.0);
  std::fill(nic_recv_free_.begin(), nic_recv_free_.end(), 0.0);
}

}  // namespace spdistal::rt
