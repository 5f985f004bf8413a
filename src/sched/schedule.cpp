#include "sched/schedule.h"

#include "common/str_util.h"

namespace spdistal::sched {

const char* parallel_unit_name(ParallelUnit u) {
  switch (u) {
    case ParallelUnit::CPUThread: return "CPUThread";
    case ParallelUnit::GPUThread: return "GPUThread";
    case ParallelUnit::GPUWarp: return "GPUWarp";
  }
  return "?";
}

std::optional<ParallelUnit> parse_parallel_unit(const std::string& name) {
  for (ParallelUnit u : {ParallelUnit::CPUThread, ParallelUnit::GPUThread,
                         ParallelUnit::GPUWarp}) {
    if (name == parallel_unit_name(u)) return u;
  }
  return std::nullopt;
}

Schedule& Schedule::divide(IndexVar i, IndexVar outer, IndexVar inner,
                           int pieces) {
  SPD_CHECK(pieces >= 1, ScheduleError, "divide: pieces must be >= 1");
  commands_.push_back(Command{CommandKind::Divide, {i, outer, inner}, {},
                              pieces, ParallelUnit::CPUThread});
  return *this;
}

Schedule& Schedule::divide_pos(IndexVar i, IndexVar outer, IndexVar inner,
                               int pieces, const std::string& tensor) {
  SPD_CHECK(pieces >= 1, ScheduleError, "divide_pos: pieces must be >= 1");
  commands_.push_back(Command{CommandKind::DividePos, {i, outer, inner},
                              {tensor}, pieces, ParallelUnit::CPUThread});
  return *this;
}

Schedule& Schedule::fuse(IndexVar i, IndexVar j, IndexVar fused) {
  commands_.push_back(Command{CommandKind::Fuse, {i, j, fused}, {}, 0,
                              ParallelUnit::CPUThread});
  return *this;
}

Schedule& Schedule::distribute(IndexVar v) {
  commands_.push_back(
      Command{CommandKind::Distribute, {v}, {}, 0, ParallelUnit::CPUThread});
  return *this;
}

Schedule& Schedule::communicate(std::vector<std::string> tensors, IndexVar v) {
  commands_.push_back(Command{CommandKind::Communicate, {v},
                              std::move(tensors), 0,
                              ParallelUnit::CPUThread});
  return *this;
}

Schedule& Schedule::parallelize(IndexVar v, ParallelUnit unit) {
  commands_.push_back(
      Command{CommandKind::Parallelize, {v}, {}, 0, unit});
  return *this;
}

const Command* Schedule::producer_of(const IndexVar& v) const {
  for (const auto& c : commands_) {
    if ((c.kind == CommandKind::Divide || c.kind == CommandKind::DividePos) &&
        c.vars.size() == 3 && c.vars[1] == v) {
      return &c;
    }
  }
  return nullptr;
}

std::vector<IndexVar> Schedule::distributed_vars() const {
  std::vector<IndexVar> out;
  for (const auto& c : commands_) {
    if (c.kind == CommandKind::Distribute) out.push_back(c.vars[0]);
  }
  return out;
}

IndexVar Schedule::distributed_source(const IndexVar& dv) const {
  const Command* p = producer_of(dv);
  SPD_CHECK(p != nullptr, ScheduleError,
            "distribute(" << dv.name()
                          << "): variable was not produced by "
                             "divide()/divide_pos()");
  return p->vars[0];
}

int Schedule::distributed_pieces(const IndexVar& dv) const {
  const Command* p = producer_of(dv);
  SPD_CHECK(p != nullptr, ScheduleError,
            "distribute(" << dv.name()
                          << "): variable was not produced by "
                             "divide()/divide_pos()");
  return p->pieces;
}

std::optional<IndexVar> Schedule::distributed_var() const {
  for (const auto& c : commands_) {
    if (c.kind == CommandKind::Distribute) return c.vars[0];
  }
  return std::nullopt;
}

bool Schedule::distributed_is_position_space(const IndexVar& dv) const {
  const Command* p = producer_of(dv);
  return p != nullptr && p->kind == CommandKind::DividePos;
}

bool Schedule::distributed_is_position_space() const {
  auto dv = distributed_var();
  if (!dv) return false;
  return distributed_is_position_space(*dv);
}

std::string Schedule::position_split_tensor() const {
  auto dv = distributed_var();
  SPD_CHECK(dv.has_value(), ScheduleError, "schedule has no distribute()");
  const Command* p = producer_of(*dv);
  SPD_CHECK(p != nullptr && p->kind == CommandKind::DividePos, ScheduleError,
            "distributed variable is not position-space split");
  return p->tensors[0];
}

std::vector<IndexVar> Schedule::fused_sources(const IndexVar& v) const {
  for (const auto& c : commands_) {
    if (c.kind == CommandKind::Fuse && c.vars[2] == v) {
      std::vector<IndexVar> out;
      for (int k = 0; k < 2; ++k) {
        auto inner = fused_sources(c.vars[static_cast<size_t>(k)]);
        if (inner.empty()) {
          out.push_back(c.vars[static_cast<size_t>(k)]);
        } else {
          out.insert(out.end(), inner.begin(), inner.end());
        }
      }
      return out;
    }
  }
  return {};
}

std::optional<ParallelUnit> Schedule::leaf_parallel_unit() const {
  for (const auto& c : commands_) {
    if (c.kind == CommandKind::Parallelize) return c.unit;
  }
  return std::nullopt;
}

std::string Schedule::str() const {
  std::vector<std::string> lines;
  for (const auto& c : commands_) {
    switch (c.kind) {
      case CommandKind::Divide:
        lines.push_back(strprintf("divide(%s, %s, %s, %d)",
                                  c.vars[0].name().c_str(),
                                  c.vars[1].name().c_str(),
                                  c.vars[2].name().c_str(), c.pieces));
        break;
      case CommandKind::DividePos:
        lines.push_back(strprintf("divide_pos(%s, %s, %s, %d, %s)",
                                  c.vars[0].name().c_str(),
                                  c.vars[1].name().c_str(),
                                  c.vars[2].name().c_str(), c.pieces,
                                  c.tensors[0].c_str()));
        break;
      case CommandKind::Fuse:
        lines.push_back(strprintf("fuse(%s, %s, %s)",
                                  c.vars[0].name().c_str(),
                                  c.vars[1].name().c_str(),
                                  c.vars[2].name().c_str()));
        break;
      case CommandKind::Distribute:
        lines.push_back(strprintf("distribute(%s)", c.vars[0].name().c_str()));
        break;
      case CommandKind::Communicate:
        lines.push_back(strprintf("communicate({%s}, %s)",
                                  join(c.tensors, ", ").c_str(),
                                  c.vars[0].name().c_str()));
        break;
      case CommandKind::Parallelize:
        lines.push_back(strprintf("parallelize(%s, %s)",
                                  c.vars[0].name().c_str(),
                                  parallel_unit_name(c.unit)));
        break;
    }
  }
  return join(lines, "\n  .");
}

}  // namespace spdistal::sched
