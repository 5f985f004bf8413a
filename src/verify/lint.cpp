#include "verify/lint.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "format/format.h"

namespace spdistal::verify {

namespace {

using sched::Command;
using sched::CommandKind;
using tin::IndexVar;

// Every finding carries a stable rule id (catalogued in
// docs/verify_rules.md) so schedules can opt out of individual rules with
// Schedule::suppress_lint(id).
void error(std::vector<Violation>& out, const char* rule, std::string msg) {
  out.push_back({Severity::Error, "lint", std::move(msg), rule});
}

void warn(std::vector<Violation>& out, const char* rule, std::string msg) {
  out.push_back({Severity::Warning, "lint", std::move(msg), rule});
}

bool stmt_uses_var(const Statement& stmt, const IndexVar& v) {
  for (const IndexVar& lv : stmt.assignment.lhs.vars) {
    if (lv == v) return true;
  }
  return tin::expr_uses_var(stmt.assignment.rhs, v);
}

// distribute() arity vs. the machine. The grid is a processor pool: the
// lowering factors grid.total() across however many distribute() axes the
// schedule names, so any arity is legal — but a piece-count product that
// exceeds the pool oversubscribes processors (pieces time-share), and an
// arity under the grid's declared rank leaves trailing grid dimensions
// collapsed. Both are worth a warning, neither is an error.
void check_grid_arity(const sched::Schedule& schedule,
                      const rt::Machine& machine,
                      std::vector<Violation>& out) {
  const std::vector<IndexVar> dvs = schedule.distributed_vars();
  if (dvs.empty()) return;
  long total_pieces = 1;
  for (const IndexVar& dv : dvs) {
    const int p = schedule.distributed_pieces(dv);
    if (p >= 1) total_pieces *= p;
  }
  const int procs = machine.num_procs();
  if (total_pieces > procs) {
    std::ostringstream os;
    os << "schedule distributes " << total_pieces
       << " pieces onto " << procs << " processors; pieces beyond the "
       << "machine time-share (round-robin placement), which serializes "
       << "the extra launches";
    warn(out, "grid-oversubscribed", os.str());
  }
  const size_t rank = static_cast<size_t>(machine.grid().ndims());
  if (dvs.size() < rank) {
    std::ostringstream os;
    os << "schedule distributes " << dvs.size() << " axis/axes onto a rank-"
       << rank << " machine grid; trailing grid dimensions stay unused";
    warn(out, "grid-underused", os.str());
  }
}

// Every distributed variable must come from a divide-ish command and its
// source variable must actually index something in the statement.
void check_distributed_vars(const Statement& stmt,
                            const sched::Schedule& schedule,
                            std::vector<Violation>& out) {
  for (const IndexVar& dv : schedule.distributed_vars()) {
    const Command* p = schedule.producer_of(dv);
    if (p == nullptr) {
      error(out, "distribute-unproduced",
            "distribute(" + dv.name() +
                "): variable was not produced by divide()/divide_pos()");
      continue;
    }
    const IndexVar& src = p->vars[0];
    std::vector<IndexVar> roots = schedule.fused_sources(src);
    if (roots.empty()) roots.push_back(src);
    for (const IndexVar& r : roots) {
      if (!stmt_uses_var(stmt, r)) {
        error(out, "distribute-unused-source",
              "distribute(" + dv.name() + "): source variable " + r.name() +
                  " indexes no tensor in `" + stmt.str() + "`");
      }
    }
  }
}

// Co-iterating two operands that are both non-unique at a shared variable
// has no merge lattice point: duplicate coordinates on both sides would
// need pairwise deduplication the generated leaves do not perform.
void check_nonunique_pairs(const Statement& stmt,
                           std::vector<Violation>& out) {
  const std::vector<tin::Access> accesses =
      tin::expr_accesses(stmt.assignment.rhs);
  std::map<uint32_t, std::vector<std::string>> nonunique_at;  // var id -> who
  std::map<uint32_t, std::string> var_names;
  for (const tin::Access& a : accesses) {
    auto it = stmt.bindings.find(a.tensor);
    if (it == stmt.bindings.end()) continue;
    const fmt::Format& f = it->second.format();
    for (size_t d = 0; d < a.vars.size(); ++d) {
      if (static_cast<int>(d) >= f.order()) break;
      const int level = f.level_of_dim(static_cast<int>(d));
      if (!f.mode(level).unique()) {
        nonunique_at[a.vars[d].id()].push_back(a.tensor);
        var_names[a.vars[d].id()] = a.vars[d].name();
      }
    }
  }
  for (const auto& [id, tensors] : nonunique_at) {
    if (tensors.size() < 2) continue;
    std::ostringstream os;
    os << "operands ";
    for (size_t i = 0; i < tensors.size(); ++i) {
      os << (i ? ", " : "") << tensors[i];
    }
    os << " are all non-unique at shared variable " << var_names[id]
       << "; co-iteration cannot deduplicate repeated coordinates on more "
          "than one operand";
    error(out, "nonunique-pair", os.str());
  }
}

// divide_pos legality against the target tensor's level properties.
void check_divide_pos(const Statement& stmt, const sched::Schedule& schedule,
                      std::vector<Violation>& out) {
  for (const Command& c : schedule.commands()) {
    if (c.kind != CommandKind::DividePos) continue;
    const std::string tensor = c.tensors.empty() ? "" : c.tensors[0];
    auto it = stmt.bindings.find(tensor);
    if (it == stmt.bindings.end()) {
      error(out, "divide-pos-unbound",
            "divide_pos targets tensor `" + tensor +
                "` which the statement `" + stmt.str() +
                "` does not reference");
      continue;
    }
    const fmt::Format& f = it->second.format();
    // The fused chain of the split variable covers the tensor's leading
    // levels; the split cuts the position space after the chain's last
    // level. A Singleton cut level is fine — the whole Singleton chain
    // moves as one unit with its Compressed parent, which is exactly what
    // makes COO's fused non-zero distribution legal — but the chain can
    // never be deeper than the tensor itself.
    std::vector<IndexVar> chain = schedule.fused_sources(c.vars[0]);
    const int depth =
        chain.empty() ? 1 : static_cast<int>(chain.size());
    const int split_level = depth - 1;
    if (split_level >= f.order()) {
      error(out, "divide-pos-deep-chain",
            "divide_pos(" + c.vars[0].name() + ", ..., \"" + tensor +
                "\") fuses " + std::to_string(depth) +
                " index variables but `" + tensor + "` has only " +
                std::to_string(f.order()) +
                " storage levels; the fused chain cannot be deeper "
                "than the tensor it splits");
      continue;
    }
    // Position space must exist at or above the cut: some level in
    // [0, split_level] has to carry a pos array (or be Dense, whose
    // positions are its coordinates) for "non-zero position" to mean
    // anything. A chain that is Singleton all the way up has no position
    // structure of its own to strip-mine.
    bool has_position_structure = false;
    for (int l = 0; l <= split_level; ++l) {
      if (!f.mode(l).is_singleton()) has_position_structure = true;
    }
    if (!has_position_structure) {
      error(out, "divide-pos-all-singleton",
            "divide_pos(" + c.vars[0].name() + ", ..., \"" + tensor +
                "\") cuts a chain of Singleton levels with no "
                "Compressed or Dense ancestor: no level in the chain "
                "carries a pos array, so there is no non-zero "
                "position space to strip-mine");
    }
  }
}

// parallelize() of a distributed variable: the variable's iterations run on
// different processors, so intra-leaf parallelism over it is meaningless.
void check_parallelize(const sched::Schedule& schedule,
                       std::vector<Violation>& out) {
  const std::vector<IndexVar> dvs = schedule.distributed_vars();
  for (const Command& c : schedule.commands()) {
    if (c.kind != CommandKind::Parallelize || c.vars.empty()) continue;
    for (const IndexVar& dv : dvs) {
      if (c.vars[0] == dv) {
        error(out, "parallelize-distributed",
              "parallelize(" + dv.name() + ", ...) targets a "
              "distributed variable; its iterations already run on "
              "different processors — parallelize an inner variable "
              "instead");
      }
    }
  }
}

// communicate() operands must exist; placement at a non-distributed
// variable has no distributed loop to attach to.
void check_communicate(const Statement& stmt, const sched::Schedule& schedule,
                       std::vector<Violation>& out) {
  const std::vector<IndexVar> dvs = schedule.distributed_vars();
  for (const Command& c : schedule.commands()) {
    if (c.kind != CommandKind::Communicate) continue;
    for (const std::string& t : c.tensors) {
      if (stmt.bindings.find(t) == stmt.bindings.end()) {
        error(out, "communicate-unbound",
              "communicate references tensor `" + t +
                  "` which the statement `" + stmt.str() +
                  "` does not bind");
      }
    }
    if (!c.vars.empty()) {
      bool at_distributed = false;
      for (const IndexVar& dv : dvs) at_distributed |= (c.vars[0] == dv);
      if (!at_distributed) {
        warn(out, "communicate-misplaced",
             "communicate(..., " + c.vars[0].name() +
                 ") is placed at a variable no distribute() names; "
                 "the command has no distributed loop to attach to "
                 "and is ignored");
      }
    }
  }
}

// Output-axis sanity: a repeated variable on the lhs (A(i, i) = ...) makes
// the output axes inconsistent — two axes would be driven by one loop.
void check_output_axes(const Statement& stmt, std::vector<Violation>& out) {
  const std::vector<IndexVar>& lhs = stmt.assignment.lhs.vars;
  std::set<uint32_t> seen;
  for (const IndexVar& v : lhs) {
    if (!seen.insert(v.id()).second) {
      error(out, "output-repeated-var",
            "output access " + stmt.assignment.lhs.tensor +
                " repeats index variable " + v.name() +
                "; diagonal outputs are not expressible — each output "
                "axis needs its own variable");
    }
  }
}

}  // namespace

std::vector<Violation> lint_statement(const Statement& stmt,
                                      const sched::Schedule& schedule,
                                      const rt::Machine& machine) {
  std::vector<Violation> out;
  check_output_axes(stmt, out);
  check_nonunique_pairs(stmt, out);
  check_grid_arity(schedule, machine, out);
  check_distributed_vars(stmt, schedule, out);
  check_divide_pos(stmt, schedule, out);
  check_parallelize(schedule, out);
  check_communicate(stmt, schedule, out);
  if (!schedule.suppressed_lints().empty()) {
    out.erase(std::remove_if(out.begin(), out.end(),
                             [&](const Violation& v) {
                               return schedule.is_lint_suppressed(v.rule);
                             }),
              out.end());
  }
  return out;
}

void lint_or_throw(const Statement& stmt, const sched::Schedule& schedule,
                   const rt::Machine& machine) {
  std::vector<Violation> all = lint_statement(stmt, schedule, machine);
  std::vector<Violation> errors;
  for (const Violation& v : all) {
    if (v.severity == Severity::Warning) {
      report(v);  // counted + logged once, never throws
    } else {
      errors.push_back(v);
    }
  }
  if (errors.empty()) return;
  for (size_t i = 0; i < errors.size(); ++i) note_violation();
  std::ostringstream os;
  os << "verify(lint): schedule rejected for `" << stmt.str() << "`:\n"
     << format_report(errors);
  throw ScheduleError(os.str());
}

}  // namespace spdistal::verify
