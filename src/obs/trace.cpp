#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/config.h"
#include "common/json.h"
#include "common/str_util.h"

namespace spdistal::obs {

namespace {

// Thread-local host-track id; -1 until assigned by host_tid().
thread_local int tls_host_tid = -1;

}  // namespace

double wall_us() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return std::chrono::duration<double, std::micro>(clock::now() - start)
      .count();
}

TraceRecorder& TraceRecorder::global() {
  // Leaked so instrumentation in static destructors stays safe; the atexit
  // hook below has already written any env-configured sink by then.
  static TraceRecorder* rec = new TraceRecorder();
  return *rec;
}

TraceRecorder::TraceRecorder() {
  wall_us();  // pin the wall-clock epoch
  if (enabled() && !config().trace.empty()) {
    capturing_.store(true, std::memory_order_relaxed);
    std::atexit([] {
      const std::string& path = config().trace;
      if (!TraceRecorder::global().write(path)) {
        std::fprintf(stderr, "spdistal: failed to write trace to %s\n",
                     path.c_str());
      }
    });
  }
}

void TraceRecorder::start() {
  std::lock_guard<std::mutex> lk(mu_);
  sim_events_.clear();
  host_events_.clear();
  meas_events_.clear();
  sim_track_names_.clear();
  // Flow ids restart with the capture, so two captures of the same program
  // are comparable byte-for-byte on the deterministic tracks.
  next_flow_id_.store(1, std::memory_order_relaxed);
  capturing_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::push(std::vector<Event>& timeline, Event e) {
  std::lock_guard<std::mutex> lk(mu_);
  timeline.push_back(std::move(e));
}

void TraceRecorder::sim_span(int tid, const char* cat, std::string name,
                             double t0_s, double t1_s, const SpanArgs& args) {
  if (!active()) return;
  // Virtual seconds -> trace microseconds.
  push(sim_events_, Event{.tid = tid,
                          .cat = cat,
                          .name = std::move(name),
                          .ts_us = t0_s * 1e6,
                          .dur_us = (t1_s - t0_s) * 1e6,
                          .args = args});
}

void TraceRecorder::name_sim_track(int tid, const std::string& name) {
  if (!active()) return;
  std::lock_guard<std::mutex> lk(mu_);
  sim_track_names_.try_emplace(tid, name);  // first writer wins
}

int TraceRecorder::host_tid() {
  if (tls_host_tid < 0) {
    std::lock_guard<std::mutex> lk(mu_);
    tls_host_tid = next_host_tid_++;
    host_thread_names_.emplace(
        tls_host_tid, tls_host_tid == 0
                          ? std::string("main")
                          : "thread-" + std::to_string(tls_host_tid));
  }
  return tls_host_tid;
}

void TraceRecorder::host_span(const char* cat, const std::string& name,
                              double ts_us, double dur_us) {
  if (!active()) return;
  push(host_events_, Event{.tid = host_tid(),
                           .cat = cat,
                           .name = name,
                           .ts_us = ts_us,
                           .dur_us = dur_us});
}

void TraceRecorder::name_host_thread(const std::string& name) {
  const int tid = host_tid();
  std::lock_guard<std::mutex> lk(mu_);
  host_thread_names_[tid] = name;
}

void TraceRecorder::meas_leaf(const std::string& kernel, int point,
                              double ts_us, double dur_us,
                              const SpanArgs& args) {
  if (!active()) return;
  push(meas_events_, Event{.tid = host_tid(),
                           .point = point,
                           .cat = "leaf",
                           .name = kernel,
                           .ts_us = ts_us,
                           .dur_us = dur_us,
                           .args = args});
}

uint64_t TraceRecorder::alloc_flow_ids(uint64_t n) {
  return next_flow_id_.fetch_add(n, std::memory_order_relaxed);
}

void TraceRecorder::host_flow(char ph, uint64_t id, const char* cat,
                              std::string name) {
  if (!active()) return;
  push(host_events_, Event{.ph = ph,
                           .tid = host_tid(),
                           .cat = cat,
                           .name = std::move(name),
                           .ts_us = wall_us(),
                           .flow = id});
}

void TraceRecorder::sim_flow_end(uint64_t id, int tid, const char* cat,
                                 std::string name, double t_s) {
  if (!active()) return;
  push(sim_events_, Event{.ph = 'f',
                          .tid = tid,
                          .cat = cat,
                          .name = std::move(name),
                          .ts_us = t_s * 1e6,
                          .flow = id});
}

void TraceRecorder::meas_flow_end(uint64_t id, const char* cat,
                                  const std::string& kernel, int point,
                                  double ts_us) {
  if (!active()) return;
  push(meas_events_, Event{.ph = 'f',
                           .tid = host_tid(),
                           .point = point,
                           .cat = cat,
                           .name = kernel,
                           .ts_us = ts_us,
                           .flow = id});
}

size_t TraceRecorder::events() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sim_events_.size() + host_events_.size() + meas_events_.size();
}

// Timestamps are rendered with fixed precision so identical records always
// produce identical bytes (the simulated track's bit-identity contract
// rides on this).
void TraceRecorder::render(std::string& out, int pid, const Event& e) {
  const std::string name = json_escape(e.name);
  out += "{\"name\": \"" + name;
  if (e.point >= 0) out += strprintf("[%d]", e.point);
  out += strprintf("\", \"cat\": \"%s\", \"ph\": \"%c\", ", e.cat, e.ph);
  switch (e.ph) {
    case 'X':
      out += strprintf("\"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, \"tid\": %d",
                       e.ts_us, e.dur_us, pid, e.tid);
      break;
    default:  // flow: ends bind to the enclosing slice's end
      out += strprintf("\"id\": %llu, \"ts\": %.3f, \"pid\": %d, \"tid\": %d%s",
                       static_cast<unsigned long long>(e.flow), e.ts_us, pid,
                       e.tid, e.ph == 'f' ? ", \"bp\": \"e\"" : "");
      break;
  }
  const SpanArgs& a = e.args;
  switch (a.kind) {
    case SpanArgs::kNone:
      break;
    case SpanArgs::kLeaf:
      out += strprintf(
          ", \"args\": {\"kernel\": \"%s\", \"nnz\": %.0f, \"flops\": %.0f, "
          "\"bytes\": %.0f, \"sim_s\": %.9g, \"wall_s\": %.9g}",
          name.c_str(), a.nnz, a.flops, a.bytes, a.sim_s, e.dur_us * 1e-6);
      break;
    case SpanArgs::kTransfer:
      out += strprintf(
          ", \"args\": {\"bytes\": %.0f, \"src_node\": %d, \"dst_node\": %d}",
          a.bytes, a.src_node, a.dst_node);
      break;
    case SpanArgs::kBroadcast:
      out += strprintf(
          ", \"args\": {\"bytes\": %.0f, \"src_node\": %d, \"fanout\": %d}",
          a.bytes, a.src_node, a.fanout);
      break;
  }
  out += "}";
}

std::vector<std::string> TraceRecorder::sim_events() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out(sim_events_.size());
  for (size_t i = 0; i < sim_events_.size(); ++i) {
    render(out[i], kSimPid, sim_events_[i]);
  }
  return out;
}

std::string TraceRecorder::json() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out = "{\"traceEvents\": [";
  const char* sep = "\n";  // every line after the first follows a comma
  auto next_line = [&] {
    out += sep;
    sep = ",\n";
  };
  auto meta = [&](int pid, int tid, const char* what,
                  const std::string& name) {
    next_line();
    out += strprintf("{\"name\": \"%s\", \"ph\": \"M\", \"pid\": %d", what,
                     pid);
    if (tid >= 0) out += strprintf(", \"tid\": %d", tid);
    out += ", \"args\": {\"name\": \"" + json_escape(name) + "\"}}";
  };
  meta(kSimPid, -1, "process_name", "simulated timeline");
  meta(kHostPid, -1, "process_name", "host timeline");
  meta(kMeasPid, -1, "process_name", "measured timeline");
  for (const auto& [tid, name] : sim_track_names_) {
    meta(kSimPid, tid, "thread_name", name);
  }
  for (const auto& [tid, name] : host_thread_names_) {
    meta(kHostPid, tid, "thread_name", name);
    // Measured spans live on the same worker threads.
    meta(kMeasPid, tid, "thread_name", name);
  }
  for (const auto& [pid, timeline] :
       {std::pair{kSimPid, &sim_events_}, std::pair{kHostPid, &host_events_},
        std::pair{kMeasPid, &meas_events_}}) {
    for (const Event& e : *timeline) {
      next_line();
      render(out, pid, e);
    }
  }
  out += "\n], \"otherData\": " + config_json(config()) + "}\n";
  return out;
}

bool TraceRecorder::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace spdistal::obs
