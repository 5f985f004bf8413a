#include "autosched/cache.h"

#include <map>
#include <sstream>

#include "common/str_util.h"
#include "data/fingerprint.h"

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
      os << strprintf("%.17g", e->value);
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

std::string plan_key(const Statement& stmt, const rt::Machine& machine) {
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
  // fingerprints at the end) ---------------------------------------------------
  std::vector<data::SparsityFingerprint> fps;
  for (const auto& [name, t] : stmt.bindings) {
    os << ";" << name << ":" << t.format().str() << ":ord["
       << join(t.format().ordering(), ",") << "]";
    fps.push_back(tensor_fingerprint(name, t, stmt.assignment.lhs.tensor));
  }

  // --- machine signature: every MachineConfig field, exactly -------------------
  const rt::MachineConfig& c = machine.config();
  os << ";M:" << rt::proc_kind_name(machine.kind()) << ":grid["
     << join(machine.grid().dims(), ",") << "]"
     << strprintf(":n%d:c%d:s%d:g%d", c.nodes, c.cores_per_node,
                  c.sockets_per_node, c.gpus_per_node);
  for (double v :
       {c.cpu_core_gflops, c.cpu_mem_bw_gbs, c.gpu_gflops, c.gpu_mem_bw_gbs,
        c.nvlink_bw_gbs, c.net_latency_s, c.net_bw_gbs, c.task_overhead_s,
        c.sysmem_bytes, c.fbmem_bytes, c.capacity_scale, c.time_scale}) {
    os << strprintf(":%.17g", v);
  }

  os << ";" << data::fingerprints_str(fps);
  return os.str();
}

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

std::optional<CachedPlan> PlanCache::lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = plans_.find(key);
  if (it == plans_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void PlanCache::insert(const std::string& key, const Recipe& recipe,
                       double cost) {
  std::lock_guard<std::mutex> lock(mu_);
  plans_[key] = CachedPlan{recipe, cost};
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  plans_.clear();
  hits_ = 0;
  misses_ = 0;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

int64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

int64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace spdistal::autosched
