#include "compiler/plan_ir.h"

#include <sstream>

namespace spdistal::comp {

std::vector<PlanOpKind> PlanTrace::kinds() const {
  std::vector<PlanOpKind> out;
  out.reserve(ops_.size());
  for (const auto& op : ops_) out.push_back(op.kind);
  return out;
}

int PlanTrace::count(PlanOpKind kind) const {
  int n = 0;
  for (const auto& op : ops_) {
    if (op.kind == kind) ++n;
  }
  return n;
}

std::string PlanTrace::str() const {
  std::ostringstream os;
  for (const auto& op : ops_) {
    os << op.text << "\n";
  }
  return os.str();
}

}  // namespace spdistal::comp
