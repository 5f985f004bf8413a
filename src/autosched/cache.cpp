#include "autosched/cache.h"

#include <map>
#include <sstream>
#include <utility>

#include "autosched/plan_store.h"
#include "common/str_util.h"

namespace spdistal::autosched {

using rt::Coord;
using tin::IndexVar;

namespace {

// Prints an expression with index variables renamed v0, v1, ... by
// first-appearance order in the statement, so the key is independent of the
// concrete IndexVar objects (and their user-chosen names).
void canonical_expr(const tin::Expr& e,
                    const std::map<uint32_t, std::string>& names,
                    std::ostringstream& os) {
  switch (e->kind) {
    case tin::ExprKind::Access: {
      os << e->tensor << "(";
      for (size_t k = 0; k < e->vars.size(); ++k) {
        if (k > 0) os << ",";
        os << names.at(e->vars[k].id());
      }
      os << ")";
      return;
    }
    case tin::ExprKind::Literal:
      os << e->value;
      return;
    case tin::ExprKind::Mul:
    case tin::ExprKind::Add: {
      const char* op = e->kind == tin::ExprKind::Mul ? "*" : "+";
      os << "(";
      for (size_t k = 0; k < e->operands.size(); ++k) {
        if (k > 0) os << op;
        canonical_expr(e->operands[k], names, os);
      }
      os << ")";
      return;
    }
  }
}

// Per-tensor sparsity fingerprint. The output is fingerprinted structurally
// (dims only): its non-zero pattern is derived from the inputs (assembly may
// materialize it between compiles of the same computation, and that must not
// turn cache hits into misses). Dense and unpacked tensors likewise carry no
// pattern. Packed sparse inputs reuse the sketch pack computed.
data::SparsityFingerprint tensor_fingerprint(const std::string& name,
                                             const Tensor& t,
                                             const std::string& output) {
  if (name == output || t.format().all_dense() || !t.has_storage()) {
    return data::dense_fingerprint(t.dims());
  }
  return *t.storage().fingerprint();
}

}  // namespace

PlanKey plan_key(const Statement& stmt, const rt::Machine& machine) {
  PlanKey key;
  std::ostringstream os;

  // --- expression, variables canonicalized ------------------------------------
  std::map<uint32_t, std::string> names;
  for (const auto& v : tin::statement_vars(stmt.assignment)) {
    names.emplace(v.id(), strprintf("v%zu", names.size()));
  }
  os << stmt.assignment.lhs.tensor << "(";
  for (size_t k = 0; k < stmt.assignment.lhs.vars.size(); ++k) {
    if (k > 0) os << ",";
    os << names.at(stmt.assignment.lhs.vars[k].id());
  }
  os << (stmt.assignment.accumulate ? ")+=" : ")=");
  canonical_expr(stmt.assignment.rhs, names, os);

  // --- format signature per tensor (dimensions and sparsity live in the
  // fingerprint half) ----------------------------------------------------------
  std::vector<data::SparsityFingerprint> fps;
  for (const auto& [name, t] : stmt.bindings) {
    os << ";" << name << ":" << t.format().str() << ":ord["
       << join(t.format().ordering(), ",") << "]";
    fps.push_back(tensor_fingerprint(name, t, stmt.assignment.lhs.tensor));
  }

  // --- machine signature -------------------------------------------------------
  const rt::MachineConfig& c = machine.config();
  os << ";M:" << rt::proc_kind_name(machine.kind()) << ":grid["
     << join(machine.grid().dims(), ",") << "]"
     << strprintf(":n%d:c%d:s%d:g%d", c.nodes, c.cores_per_node,
                  c.sockets_per_node, c.gpus_per_node)
     << strprintf(":%g:%g:%g:%g:%g:%g:%g:%g", c.cpu_core_gflops,
                  c.cpu_mem_bw_gbs, c.gpu_gflops, c.gpu_mem_bw_gbs,
                  c.nvlink_bw_gbs, c.net_bw_gbs, c.task_overhead_s,
                  c.net_latency_s)
     << strprintf(":cap%g:t%g", c.capacity_scale, c.time_scale);

  key.structural = os.str();
  key.sig = data::fingerprints_str(fps);
  return key;
}

PlanCache& PlanCache::global() {
  // Leaked: the plan store's exit-time save reads it, and that handler may
  // have been registered before the cache was first constructed.
  static PlanCache* cache = new PlanCache();
  return *cache;
}

std::optional<PlanCache::Hit> PlanCache::lookup(
    const PlanKey& key, const std::function<bool(const Recipe&)>& servable) {
  // May trigger the one-time SPDISTAL_PLAN_STORE load (which inserts into
  // this cache); resolve it before taking the lock.
  const bool store_ok = plan_store_enabled();

  std::unique_lock<std::mutex> lock(mu_);
  std::optional<Hit> hit;
  auto it = plans_.find(key.exact());
  if (it != plans_.end() && (store_ok || !it->second.from_store)) {
    hit = Hit{it->second.recipe, it->second.cost};
  }
  lock.unlock();
  if (hit.has_value() && !servable(hit->recipe)) hit.reset();
  (hit.has_value() ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return hit;
}

void PlanCache::insert(const PlanKey& key, const Recipe& recipe,
                       double cost) {
  std::lock_guard<std::mutex> lock(mu_);
  plans_[key.exact()] = CachedPlan{recipe, cost, false};
}

size_t PlanCache::insert_stored(const std::vector<StoredPlan>& entries) {
  size_t merged = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const StoredPlan& e : entries) {
      CachedPlan plan = e.plan;
      plan.from_store = true;
      if (plans_.emplace(e.structural + PlanKey::kSep + e.sig,
                         std::move(plan))
              .second) {
        ++merged;
      }
    }
  }
  loaded_.fetch_add(static_cast<int64_t>(merged), std::memory_order_relaxed);
  return merged;
}

std::vector<StoredPlan> PlanCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StoredPlan> out;
  out.reserve(plans_.size());
  for (const auto& [k, plan] : plans_) {
    const size_t sep = k.find(PlanKey::kSep);
    StoredPlan e;
    e.structural = k.substr(0, sep);
    e.sig = sep == std::string::npos ? std::string() : k.substr(sep + 1);
    e.plan = plan;
    out.push_back(std::move(e));
  }
  return out;
}

void PlanCache::clear() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    plans_.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  loaded_.store(0, std::memory_order_relaxed);
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

int64_t PlanCache::hits() const {
  return hits_.load(std::memory_order_relaxed);
}

int64_t PlanCache::misses() const {
  return misses_.load(std::memory_order_relaxed);
}

int64_t PlanCache::loaded() const {
  return loaded_.load(std::memory_order_relaxed);
}

}  // namespace spdistal::autosched
