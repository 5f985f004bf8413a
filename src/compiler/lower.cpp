#include "compiler/lower.h"

#include <algorithm>

#include "autosched/autosched.h"
#include "common/str_util.h"
#include "compiler/kernel_select.h"
#include "kernels/assembly.h"
#include "obs/obs.h"
#include "tdn/tdn.h"

namespace spdistal::comp {

using fmt::TensorPartition;
using rt::Coord;
using rt::Partition;
using rt::Privilege;
using tin::IndexVar;

namespace {

// Every use of an index variable must span the same extent. Lowering sizes
// a variable by its first use (var_extent), and the leaves and the
// partitions index every other operand by that size.
void check_var_extents(const Statement& stmt) {
  std::map<uint32_t, std::pair<std::string, Coord>> first;  // var id -> use
  auto check = [&](const tin::Access& a) {
    const std::vector<Coord>& dims = stmt.tensor(a.tensor).dims();
    for (size_t d = 0; d < a.vars.size() && d < dims.size(); ++d) {
      const auto [it, fresh] =
          first.try_emplace(a.vars[d].id(), a.tensor, dims[d]);
      SPD_CHECK(fresh || it->second.second == dims[d], NotationError,
                "index variable " << a.vars[d].name() << " spans extent "
                                  << it->second.second << " in "
                                  << it->second.first << " but " << dims[d]
                                  << " in " << a.tensor);
    }
  };
  check(stmt.assignment.lhs);
  for (const auto& a : tin::expr_accesses(stmt.assignment.rhs)) check(a);
}

// Schedule legality that does not depend on the schedule: a repeated output
// variable (A(i, i) = ...) would drive two output axes from one loop, and
// the operands of one product term that are all non-unique at a shared
// variable have no merge lattice point, since co-iteration deduplicates
// repeated coordinates on at most one of them. Each term of a sum is
// co-iterated on its own, so operands of different terms do not meet.
void check_statement(const Statement& stmt) {
  check_var_extents(stmt);
  const tin::Access& lhs = stmt.assignment.lhs;
  for (size_t d = 0; d < lhs.vars.size(); ++d) {
    for (size_t e = 0; e < d; ++e) {
      SPD_CHECK(!(lhs.vars[e] == lhs.vars[d]), ScheduleError,
                "output access " << lhs.tensor << " repeats index variable "
                                 << lhs.vars[d].name()
                                 << "; diagonal outputs are not expressible "
                                    "— each output axis needs its own "
                                    "variable");
    }
  }
  const tin::Expr& rhs = stmt.assignment.rhs;
  const std::vector<tin::Expr> terms =
      rhs->kind == tin::ExprKind::Add ? rhs->operands
                                      : std::vector<tin::Expr>{rhs};
  for (const tin::Expr& term : terms) {
    // var id -> (name, the term's operands non-unique at it)
    std::map<uint32_t, std::pair<std::string, std::vector<std::string>>>
        nonunique;
    for (const tin::Access& a : tin::expr_accesses(term)) {
      const fmt::Format& f = stmt.tensor(a.tensor).format();
      for (size_t d = 0; d < a.vars.size(); ++d) {
        if (f.mode(f.level_of_dim(static_cast<int>(d))).unique()) continue;
        auto& [name, operands] = nonunique[a.vars[d].id()];
        name = a.vars[d].name();
        operands.push_back(a.tensor);
      }
    }
    for (const auto& [id, at] : nonunique) {
      const auto& [name, operands] = at;
      SPD_CHECK(operands.size() < 2, ScheduleError,
                "operands " << join(operands, ", ")
                            << " are all non-unique at shared variable "
                            << name
                            << "; co-iteration cannot deduplicate repeated "
                               "coordinates on more than one operand");
    }
  }
}

// Every command must name what the statement binds and what the schedule
// defines, so each misuse is rejected with a message naming the command
// rather than failing later inside lowering, co-iteration or a run.
void check_commands(const Statement& stmt, const sched::Schedule& schedule) {
  const std::vector<IndexVar> vars = tin::statement_vars(stmt.assignment);
  const std::vector<IndexVar> dvs = schedule.distributed_vars();
  for (size_t a = 0; a < dvs.size(); ++a) {
    const IndexVar src = schedule.distributed_source(dvs[a]);
    std::vector<IndexVar> roots = schedule.fused_sources(src);
    // Every inner grid axis blocks one statement variable.
    SPD_CHECK(a == 0 || roots.empty(), ScheduleError,
              "distribute(" << dvs[a].name() << "): source variable "
                            << src.name()
                            << " comes from fuse(), but only the first "
                               "distributed axis may be fused");
    if (roots.empty()) roots.push_back(src);
    for (const IndexVar& r : roots) {
      SPD_CHECK(std::find(vars.begin(), vars.end(), r) != vars.end(),
                ScheduleError,
                "distribute(" << dvs[a].name() << "): source variable "
                              << r.name() << " indexes no tensor in `"
                              << stmt.str() << "`");
    }
  }
  for (const sched::Command& c : schedule.commands()) {
    if (c.kind == sched::CommandKind::DividePos) {
      const std::string& tensor = c.tensors[0];
      const auto it = stmt.bindings.find(tensor);
      SPD_CHECK(it != stmt.bindings.end(), ScheduleError,
                "divide_pos targets tensor `" << tensor
                                              << "` which the statement `"
                                              << stmt.str()
                                              << "` does not reference");
      // The split cuts the position space after the fused chain's last
      // level, so the chain cannot be deeper than the tensor.
      const size_t depth =
          std::max<size_t>(schedule.fused_sources(c.vars[0]).size(), 1);
      const int order = it->second.format().order();
      SPD_CHECK(depth <= static_cast<size_t>(order), ScheduleError,
                "divide_pos(" << c.vars[0].name() << ", ..., \"" << tensor
                              << "\") fuses " << depth
                              << " index variables but `" << tensor
                              << "` has only " << order
                              << " storage levels; the fused chain cannot "
                                 "be deeper than the tensor it splits");
    } else if (c.kind == sched::CommandKind::Parallelize) {
      SPD_CHECK(std::find(dvs.begin(), dvs.end(), c.vars[0]) == dvs.end(),
                ScheduleError,
                "parallelize(" << c.vars[0].name()
                               << ", ...) targets a distributed variable; "
                                  "its iterations already run on different "
                                  "processors — parallelize an inner "
                                  "variable instead");
    } else if (c.kind == sched::CommandKind::Communicate) {
      for (const std::string& t : c.tensors) {
        SPD_CHECK(stmt.bindings.count(t) != 0, ScheduleError,
                  "communicate references tensor `"
                      << t << "` which the statement `" << stmt.str()
                      << "` does not bind");
      }
    }
  }
}

}  // namespace

CompiledKernel CompiledKernel::compile(const Statement& stmt,
                                       const rt::Machine& machine) {
  check_statement(stmt);
  const Tensor& out = stmt.tensor(stmt.assignment.lhs.tensor);
  if (out.schedule().commands().empty()) {
    // No schedule was recorded: compile with a searched one. The plan is
    // deliberately not written back to the tensor — a recorded schedule is
    // machine-specific, and silently replaying it on a different machine
    // would bypass the search (recompiles are cached per machine anyway).
    // Tensor::autoschedule() records explicitly. A *partial* schedule
    // (commands but no distribute()) is a user mistake, not a request for
    // search — it falls through to the clear ScheduleError below.
    return compile(stmt, autosched::autoschedule(stmt, machine), machine);
  }
  return compile(stmt, out.schedule(), machine);
}

CompiledKernel CompiledKernel::compile(const Statement& stmt,
                                       const sched::Schedule& schedule,
                                       const rt::Machine& machine) {
  // Every schedule error is raised here, in every mode.
  check_statement(stmt);
  check_commands(stmt, schedule);

  CompiledKernel ck;
  ck.stmt_ = stmt;
  ck.schedule_ = schedule;
  ck.machine_ = machine;

  const std::vector<IndexVar> dvs = schedule.distributed_vars();
  SPD_CHECK(!dvs.empty(), ScheduleError,
            "schedule must distribute() an index variable: "
                << stmt.str());
  ck.position_space_ = schedule.distributed_is_position_space();
  ck.pieces_ = 1;
  ck.grid_pieces_.clear();
  for (size_t a = 0; a < dvs.size(); ++a) {
    // Non-zero blocks can only drive the outermost loop: inner grid axes
    // must be universe (coordinate-block) divides.
    SPD_CHECK(a == 0 || !schedule.distributed_is_position_space(dvs[a]),
              ScheduleError,
              "only the first distributed axis may be position-space: "
                  << stmt.str());
    const int p = schedule.distributed_pieces(dvs[a]);
    SPD_CHECK(p >= 1, ScheduleError, "non-positive piece count");
    ck.grid_pieces_.push_back(p);
    ck.dist_source_vars_.push_back(schedule.distributed_source(dvs[a]));
    ck.pieces_ *= p;
  }
  ck.dist_source_var_ = ck.dist_source_vars_[0];

  if (ck.position_space_) {
    // Position-space distribution cannot express union co-iteration (the
    // paper: "SpAdd3 on CSR matrices is incompatible with the non-zero
    // splitting scheduling transformation").
    SPD_CHECK(tin::is_pure_product(stmt.assignment.rhs), ScheduleError,
              "position-space (non-zero) distribution is incompatible with "
              "additions (union co-iteration): "
                  << stmt.str());
    ck.split_tensor_ = schedule.position_split_tensor();
    ck.fused_sources_ = schedule.fused_sources(ck.dist_source_var_);
    if (ck.fused_sources_.empty()) {
      ck.fused_sources_ = {ck.dist_source_var_};
    }
    // The fused variables must name the split tensor's leading storage
    // levels, in storage order.
    const std::vector<IndexVar> leading = fused_level_vars(
        stmt, ck.split_tensor_, static_cast<int>(ck.fused_sources_.size()));
    SPD_CHECK(!leading.empty(), ScheduleError,
              "position-split tensor " << ck.split_tensor_
                                       << " is not read by " << stmt.str());
    SPD_CHECK(leading == ck.fused_sources_, ScheduleError,
              "fused variables must name the leading storage dimensions of "
                  << ck.split_tensor_);
    ck.split_level_ = static_cast<int>(ck.fused_sources_.size()) - 1;
    // Inner universe axes of a non-zero x universe grid: any statement
    // variable not consumed by the position split.
    for (size_t a = 1; a < ck.dist_source_vars_.size(); ++a) {
      const IndexVar& u = ck.dist_source_vars_[a];
      SPD_CHECK(std::find(ck.fused_sources_.begin(), ck.fused_sources_.end(),
                          u) == ck.fused_sources_.end(),
                ScheduleError,
                "variable " << u.name()
                            << " is fused into the position split and cannot "
                               "be distributed on another axis");
      for (size_t b = 1; b < a; ++b) {
        SPD_CHECK(!(ck.dist_source_vars_[b] == u), ScheduleError,
                  "variable " << u.name() << " is distributed on two axes");
      }
    }
  } else {
    // The axis-0 distributed variable must be iterated outermost; our leaves
    // assume so (as do the paper's schedules). Inner axes may name any other
    // statement variable — their blocks restrict iteration per piece.
    const auto vars = tin::statement_vars(stmt.assignment);
    SPD_CHECK(!vars.empty() && vars[0] == ck.dist_source_var_, ScheduleError,
              "only outermost-variable distribution is supported (got "
                  << ck.dist_source_var_.name() << " for " << stmt.str()
                  << ")");
    for (size_t a = 1; a < ck.dist_source_vars_.size(); ++a) {
      const IndexVar& v = ck.dist_source_vars_[a];
      for (size_t b = 0; b < a; ++b) {
        SPD_CHECK(!(ck.dist_source_vars_[b] == v), ScheduleError,
                  "variable " << v.name() << " is distributed on two axes");
      }
    }
  }

  auto unit = schedule.leaf_parallel_unit();
  if (unit.has_value() && *unit == sched::ParallelUnit::CPUThread) {
    ck.leaf_threads_ = machine.config().cores_per_node;
  } else {
    ck.leaf_threads_ = 1;
  }

  SelectedLeaf leaf = select_leaf(stmt, ck.position_space_, ck.split_tensor_,
                                  ck.position_space_ ? ck.split_level_ : -1,
                                  ck.dist_source_vars_);
  ck.leaf_ = leaf.fn;
  ck.leaf_name_ = leaf.name;
  // Which leaf implementation the co-iteration dispatch picked ("coiter"
  // is the general engine; the rest are specialized kernels).
  obs::Metrics::global().counter("kernel_select." + ck.leaf_name_).add(1);
  return ck;
}

namespace {

// The logical dimension at which tensor `name` uses `v`, or -1.
int dim_of_var(const Statement& stmt, const std::string& name,
               const IndexVar& v) {
  auto scan = [&](const tin::Access& a) -> int {
    if (a.tensor != name) return -1;
    for (size_t d = 0; d < a.vars.size(); ++d) {
      if (a.vars[d] == v) return static_cast<int>(d);
    }
    return -1;
  };
  int d = scan(stmt.assignment.lhs);
  if (d >= 0) return d;
  for (const auto& a : tin::expr_accesses(stmt.assignment.rhs)) {
    d = scan(a);
    if (d >= 0) return d;
  }
  return -1;
}

}  // namespace

std::unique_ptr<Instance> CompiledKernel::instantiate(
    rt::Runtime& runtime) const {
  // Non-owning: the caller keeps the runtime alive past the Instance.
  return instantiate(std::shared_ptr<rt::Runtime>(&runtime,
                                                  [](rt::Runtime*) {}));
}

std::unique_ptr<Instance> CompiledKernel::instantiate(
    std::shared_ptr<rt::Runtime> runtime_sp) const {
  SPD_ASSERT(runtime_sp != nullptr, "instantiate requires a runtime");
  OBS_SPAN("compiler", "instantiate " + leaf_name_);
  rt::Runtime& runtime = *runtime_sp;
  // Instance setup overlaps trailing execution: partition construction is
  // pure host-side work over immutable coordinate-tree metadata (launches
  // only ever write vals data), so it runs while earlier launches drain on
  // the worker pool. The runtime is only drained at the points that mutate
  // shared state or charge simulated costs — output assembly below, and the
  // placement installation at the end (set_placement drains internally).
  auto inst = std::unique_ptr<Instance>(new Instance());
  inst->runtime_ = std::move(runtime_sp);
  inst->kernel_ = this;
  Statement stmt = stmt_;  // shares tensor handles
  inst->output_ = stmt.tensor(stmt.assignment.lhs.tensor);
  PlanTrace& trace = inst->trace_;

  // --- Sparse output assembly (two-phase, §V-B) ------------------------------
  bool pattern_preserved = false;
  if (kern::needs_assembly(stmt)) {
    // Assembly replaces the output's storage and charges symbolic-phase
    // costs: drain in-flight launches so accounting stays in submission
    // order and nothing still reads the old pattern.
    runtime.flush();
    OBS_SPAN("compiler", "assemble");
    kern::AssemblyResult res = kern::assemble_output(stmt);
    pattern_preserved = res.pattern_preserved;
    trace.append(PlanOpKind::LeafKernel,
                 strprintf("assemble %s: symbolic phase, %lld output "
                           "non-zeros",
                           inst->output_.name().c_str(),
                           static_cast<long long>(res.output_nnz)));
    // Symbolic execution runs once, distributed; charge each piece's share
    // to the processor that will own it (grid-aware, same mapping as the
    // compute launch below).
    rt::IndexLaunch shape_only;
    shape_only.domain = pieces_;
    shape_only.domain_shape = grid_pieces_;
    const std::string asm_name = "assemble " + inst->output_.name();
    for (int p = 0; p < pieces_; ++p) {
      rt::WorkEstimate w{res.symbolic_work.flops / pieces_,
                         res.symbolic_work.bytes / pieces_};
      runtime.sim().run_task(runtime.proc_for_point(p, shape_only), w,
                             leaf_threads_, 0.0, asm_name.c_str());
    }
  }

  // --- Partitioning phase (Figure 9a) ----------------------------------------
  std::optional<obs::Span> partition_span;
  partition_span.emplace("compiler", "partition");
  auto own = [&](Partition p) -> Partition* {
    inst->parts_.push_back(std::make_unique<Partition>(std::move(p)));
    return inst->parts_.back().get();
  };

  // One builder for the launch's coordinate trees and then the placements:
  // a TDN statement that matches a tree built here installs it.
  fmt::TreeBuilder trees(trace);
  rt::IndexLaunch& launch = inst->launch_;
  launch.name = leaf_name_;
  launch.domain = pieces_;
  launch.leaf_threads = leaf_threads_;

  // Adds requirements for a sparse tensor partitioned by `tp`, through its
  // region mapping, with two whole-region overrides. When the distributed
  // (seed) level of a universe distribution stores coordinates, the leaf
  // scans that level's entire crd array and filters by the piece's
  // coordinate block (coiter's non-unique/driver loop), so `scan_level`
  // declares its crd whole-region — the partitioned subset would
  // under-declare what every point actually reads. Position-split leaves
  // binary-search, or build owner maps over, the complete pos array of every
  // Compressed level at or above the split, so `whole_pos_upto` declares
  // those pos regions whole.
  auto add_sparse_reqs = [&](const fmt::TensorStorage& st,
                             const TensorPartition& tp, Privilege vals_priv,
                             Privilege meta_priv, int scan_level = -1,
                             int whole_pos_upto = -1) {
    using Role = fmt::RegionPart::Role;
    for (fmt::RegionPart& r : tp.regions(st)) {
      const bool whole =
          !r.part || (r.role == Role::Crd && r.level == scan_level) ||
          (r.role == Role::Pos && r.level <= whole_pos_upto);
      launch.reqs.push_back(rt::RegionReq{
          r.region, whole ? nullptr : own(std::move(*r.part)),
          r.role == Role::Vals ? vals_priv : meta_priv});
    }
  };
  // Adds whole-region (replicated) requirements for a tensor.
  auto add_replicated_reqs = [&](const fmt::TensorStorage& st,
                                 Privilege priv) {
    launch.reqs.push_back(rt::RegionReq{st.vals(), nullptr, priv});
    for (int l = 0; l < st.num_levels(); ++l) {
      const auto& level = st.level(l);
      if (level.kind.has_crd()) {
        launch.reqs.push_back(
            rt::RegionReq{level.crd, nullptr, Privilege::RO});
      }
      if (level.kind.has_pos()) {
        launch.reqs.push_back(
            rt::RegionReq{level.pos, nullptr, Privilege::RO});
      }
    }
  };

  inst->piece_bounds_.resize(static_cast<size_t>(pieces_));

  // Per-color blocks of each distributed axis: equal coordinate blocks of
  // its source variable, or, for a position-space axis 0, equal non-zero
  // blocks of the split level. Piece colors enumerate the axis blocks
  // row-major (the 2-D grid of the paper's Machine(Grid(x, y)) schedules
  // when two variables distribute).
  const int axes = static_cast<int>(dist_source_vars_.size());
  std::vector<std::vector<rt::Rect1>> axis_bounds(static_cast<size_t>(axes));
  for (int a = 0; a < axes; ++a) {
    const IndexVar& v = dist_source_vars_[static_cast<size_t>(a)];
    const Coord n =
        a == 0 && position_space_
            ? std::max<Coord>(stmt.tensor(split_tensor_)
                                  .storage().level(split_level_).positions,
                              1)
            : var_extent(stmt, v);
    SPD_ASSERT(n >= 0, "variable " << v.name() << " not used in statement");
    axis_bounds[static_cast<size_t>(a)] = fmt::color_blocks(
        grid_pieces_, a,
        rt::equal_bounds(n, grid_pieces_[static_cast<size_t>(a)]));
  }
  auto block_of = [&](int c, int a) {
    return axis_bounds[static_cast<size_t>(a)][static_cast<size_t>(c)];
  };
  // The cuts of dense tensor `name` for fmt::dense_tiles: each distributed
  // axis from `first_axis` on that indexes it cuts its level to the axis's
  // blocks.
  auto level_cuts = [&](const std::string& name, const Tensor& tensor,
                        int first_axis) {
    std::vector<fmt::LevelCut> cuts;
    for (int a = first_axis; a < axes; ++a) {
      const int d =
          dim_of_var(stmt, name, dist_source_vars_[static_cast<size_t>(a)]);
      if (d < 0) continue;
      cuts.push_back(fmt::LevelCut{tensor.format().level_of_dim(d),
                                   axis_bounds[static_cast<size_t>(a)]});
    }
    return cuts;
  };
  // Inner universe axes restrict their variable per piece in both
  // iteration styles.
  for (int c = 0; c < pieces_; ++c) {
    auto& pb = inst->piece_bounds_[static_cast<size_t>(c)];
    for (int a = 1; a < axes; ++a) {
      pb.var_coords.push_back(
          {dist_source_vars_[static_cast<size_t>(a)].id(), block_of(c, a)});
    }
  }
  launch.domain_shape = grid_pieces_;

  if (!position_space_) {
    // === Coordinate-value iteration: universe partitions =====================
    for (int c = 0; c < pieces_; ++c) {
      inst->piece_bounds_[static_cast<size_t>(c)].dist_coords =
          block_of(c, 0);
    }
    if (axes == 1) {
      trace.append(PlanOpKind::DistributedFor,
                   strprintf("distributed for %so in [0, %d) over %s blocks",
                             dist_source_var_.name().c_str(), pieces_,
                             dist_source_var_.name().c_str()));
    } else {
      std::vector<std::string> shape, names;
      for (int a = 0; a < axes; ++a) {
        shape.push_back(
            std::to_string(grid_pieces_[static_cast<size_t>(a)]));
        names.push_back(dist_source_vars_[static_cast<size_t>(a)].name() +
                        "o");
      }
      trace.append(PlanOpKind::DistributedFor,
                   strprintf("distributed for (%s) over %s grid blocks",
                             join(names, ", ").c_str(),
                             join(shape, "x").c_str()));
    }

    // First pass: sparse and var-partitioned tensors; remember each sparse
    // tensor's coordinate-tree partition so the second pass can derive the
    // data other operands actually need (the "infers what data to
    // communicate" behavior of §II-C).
    std::map<std::string, const TensorPartition*> sparse_tps;
    for (const auto& [name, tensor] : stmt.bindings) {
      const bool is_output = name == stmt.assignment.lhs.tensor;
      // Which tensor dimension (if any) each distribution axis indexes.
      std::vector<int> axis_dim(static_cast<size_t>(axes));
      int indexed_axes = 0;
      for (int a = 0; a < axes; ++a) {
        axis_dim[static_cast<size_t>(a)] =
            dim_of_var(stmt, name, dist_source_vars_[static_cast<size_t>(a)]);
        if (axis_dim[static_cast<size_t>(a)] >= 0) ++indexed_axes;
      }
      const fmt::TensorStorage& st = tensor.storage();
      if (indexed_axes == 0) continue;  // second pass
      if (tensor.format().all_dense()) {
        // Cross-product of the axis blocks: a true grid partition when every
        // axis indexes the tensor (Figure 4c tiles), a row/column-block
        // partition replicated across the remaining axes otherwise.
        Partition grid = rt::partition_by_bounds(
            st.vals()->space(),
            fmt::dense_tiles(st, pieces_, level_cuts(name, tensor, 0)));
        // Pieces replicated across an axis that does not index the output
        // write overlapping subsets, which must merge by reduction.
        const Privilege out_priv =
            indexed_axes == axes ? Privilege::WO : Privilege::REDUCE;
        launch.reqs.push_back(rt::RegionReq{
            st.vals(), own(std::move(grid)),
            is_output ? out_priv : Privilege::RO});
        continue;
      }
      // Sparse: partition the coordinate tree along the first axis indexing
      // it; further axes restrict iteration through the leaf's piece bounds
      // (their pieces read overlapping subsets of this tree).
      int part_axis = 0;
      while (axis_dim[static_cast<size_t>(part_axis)] < 0) ++part_axis;
      const int level = tensor.format().level_of_dim(
          axis_dim[static_cast<size_t>(part_axis)]);
      const TensorPartition& tp = trees.build(
          st, fmt::TreeSpec{level, false,
                            axis_bounds[static_cast<size_t>(part_axis)]});
      const Privilege vals_priv =
          !is_output ? Privilege::RO
                     : (axes == 1 ? Privilege::WO : Privilege::REDUCE);
      add_sparse_reqs(st, tp, vals_priv, Privilege::RO, level);
      sparse_tps.emplace(name, &tp);
    }
    // Second pass: tensors not indexed by the distributed variable. A 1-D
    // dense operand indexed by a Compressed level's variable of some
    // partitioned sparse tensor only needs the coordinates that level's
    // pieces actually store (e.g. the halo of c in a banded SpMV) — the
    // point-valued image of the level's crd partition, the fine-grained
    // data movement Legion's dependent partitioning infers (§II-C).
    // Everything else is replicated.
    for (const auto& [name, tensor] : stmt.bindings) {
      const bool is_output = name == stmt.assignment.lhs.tensor;
      bool indexed = false;
      for (const auto& dv : dist_source_vars_) {
        if (dim_of_var(stmt, name, dv) >= 0) indexed = true;
      }
      if (indexed) continue;
      const fmt::TensorStorage& st = tensor.storage();
      bool derived = false;
      if (!is_output && tensor.format().all_dense() &&
          tensor.format().order() == 1) {
        // The operand's single variable.
        IndexVar u = dist_source_var_;  // placeholder; replaced below
        bool found = false;
        for (const auto& a : tin::expr_accesses(stmt.assignment.rhs)) {
          if (a.tensor == name && a.vars.size() == 1) {
            u = a.vars[0];
            found = true;
          }
        }
        if (found) {
          for (const auto& [sname, tp] : sparse_tps) {
            const Tensor& s = stmt.tensor(sname);
            const int sdim = dim_of_var(stmt, sname, u);
            if (sdim < 0) continue;
            const int slevel = s.format().level_of_dim(sdim);
            const fmt::LevelStorage& sl = s.storage().level(slevel);
            if (!sl.kind.has_crd()) continue;
            Partition p = rt::image(
                *sl.crd, tp->level_parts[static_cast<size_t>(slevel)],
                st.vals()->space());
            trace.append(PlanOpKind::Image,
                         strprintf("%s_part = neededCoordinates(%s%d_crd)",
                                   name.c_str(), sname.c_str(), slevel + 1));
            launch.reqs.push_back(
                rt::RegionReq{st.vals(), own(std::move(p)), Privilege::RO});
            derived = true;
            break;
          }
        }
      }
      if (!derived) {
        add_replicated_reqs(st,
                            is_output ? Privilege::REDUCE : Privilege::RO);
      }
    }
  } else {
    // === Coordinate-position iteration: non-zero partitions ==================
    // Axis 0 iterates equal non-zero blocks; inner universe axes (a non-zero
    // x universe grid) clamp their variable through var_coords above.
    const fmt::TensorStorage& tst = stmt.tensor(split_tensor_).storage();
    // Blocks cover max(positions, 1): clamp an empty level's [0, 0] away.
    const rt::Rect1 stored{0, tst.level(split_level_).positions - 1};
    for (int c = 0; c < pieces_; ++c) {
      auto& pb = inst->piece_bounds_[static_cast<size_t>(c)];
      pb.dist_pos = block_of(c, 0).intersect(stored);
      pb.pos_tensor = split_tensor_;
      pb.pos_level = split_level_;
    }
    trace.append(
        PlanOpKind::DistributedFor,
        strprintf("distributed for over %d equal non-zero blocks of %s%s",
                  grid_pieces_[0], split_tensor_.c_str(),
                  axes > 1 ? " x universe grid axes" : ""));

    const TensorPartition& ttp =
        trees.build(tst, fmt::TreeSpec{split_level_, true, axis_bounds[0]});
    add_sparse_reqs(tst, ttp, Privilege::RO, Privilege::RO,
                    /*scan_level=*/-1, /*whole_pos_upto=*/split_level_);

    const IndexVar v0 = fused_sources_[0];
    // The split tensor's top-level (possibly overlapping) partition derives
    // the partitions of every other tensor (Figure 9a,
    // partitionRemainingCoordinateTrees) — expressed over v0's *coordinate*
    // space. A Dense top level's positions are its coordinates; a
    // Compressed top (COO, DCSR) derives the exact coordinate sets each
    // piece stores from the root crd.
    const Coord v0_extent = var_extent(stmt, v0);
    Partition top;
    if (tst.level(0).kind.is_dense()) {
      top = rt::copy_partition(ttp.level_parts[0],
                               rt::IndexSpace(v0_extent));
    } else {
      top = rt::image(*tst.level(0).crd, ttp.level_parts[0],
                      rt::IndexSpace(v0_extent));
      trace.append(PlanOpKind::Image,
                   strprintf("%s_top_coords = neededCoordinates(%s1_crd)",
                             split_tensor_.c_str(), split_tensor_.c_str()));
    }
    for (const auto& [name, tensor] : stmt.bindings) {
      if (name == split_tensor_) continue;
      const bool is_output = name == stmt.assignment.lhs.tensor;
      const fmt::TensorStorage& st = tensor.storage();
      if (is_output && pattern_preserved &&
          stmt.assignment.lhs.vars ==
              std::vector<IndexVar>(fused_sources_.begin(),
                                    fused_sources_.end())) {
        // Output pattern aligns 1:1 with the split tensor's positions
        // (SDDMM): reuse the split tensor's level partitions directly —
        // a disjoint, statically load-balanced output distribution.
        TensorPartition otp;
        for (int l = 0; l <= split_level_; ++l) {
          otp.level_parts.push_back(rt::copy_partition(
              ttp.level_parts[static_cast<size_t>(l)],
              l == split_level_
                  ? rt::IndexSpace(std::max<Coord>(
                        st.level(l).positions, 1))
                  : rt::IndexSpace(st.level(l).positions)));
        }
        otp.vals_part =
            rt::copy_partition(ttp.vals_part, st.vals()->space());
        trace.append(PlanOpKind::CopyPartition,
                     strprintf("%s partitions copied from %s (aligned "
                               "pattern)",
                               name.c_str(), split_tensor_.c_str()));
        add_sparse_reqs(st, otp, Privilege::WO, Privilege::RO);
        continue;
      }
      const int dim = dim_of_var(stmt, name, v0);
      if (dim >= 0 && tensor.format().all_dense()) {
        // Partition this dense tensor by the split tensor's (overlapping)
        // top-level row partition, clamped to any inner universe axis block
        // (the piece's 2-D tile under a non-zero x universe grid).
        const int level = tensor.format().level_of_dim(dim);
        Partition lifted = rt::lift_to_dim(
            rt::copy_partition(
                top, rt::IndexSpace(tensor.dims()[static_cast<size_t>(dim)])),
            st.vals()->space(), level);
        if (axes > 1) {
          const std::vector<rt::RectN> clamps =
              fmt::dense_tiles(st, pieces_, level_cuts(name, tensor, 1));
          std::vector<rt::IndexSubset> subs;
          subs.reserve(static_cast<size_t>(pieces_));
          for (int c = 0; c < pieces_; ++c) {
            subs.push_back(
                lifted.subset(c).intersect(clamps[static_cast<size_t>(c)]));
          }
          lifted = Partition(st.vals()->space(), std::move(subs));
        }
        launch.reqs.push_back(rt::RegionReq{
            st.vals(), own(std::move(lifted)),
            is_output ? Privilege::REDUCE : Privilege::RO});
        continue;
      }
      if (dim >= 0 && !tensor.format().all_dense()) {
        // Sparse tensor sharing the top-level variable (e.g. the SpTTV
        // output): universe-partition its coordinate tree by the bounds of
        // the split tensor's (possibly overlapping) row subsets.
        const int level = tensor.format().level_of_dim(dim);
        std::vector<rt::Rect1> row_bounds;
        for (int c = 0; c < pieces_; ++c) {
          if (top.subset(c).empty()) {
            row_bounds.push_back(rt::Rect1{0, -1});
          } else {
            const rt::RectN b = top.subset(c).bounds();
            row_bounds.push_back(rt::Rect1{b.lo[0], b.hi[0]});
          }
        }
        const TensorPartition& otp =
            trees.build(st, fmt::TreeSpec{level, false, row_bounds});
        // Overlapping row ranges => reduction privilege for outputs.
        add_sparse_reqs(st, otp,
                        is_output ? Privilege::REDUCE : Privilege::RO,
                        Privilege::RO);
        continue;
      }
      // 1-D dense operands indexed by the split tensor's innermost fused
      // variable need only the coordinates each non-zero piece stores.
      if (!is_output && tensor.format().all_dense() &&
          tensor.format().order() == 1) {
        const IndexVar inner = fused_sources_.back();
        if (dim_of_var(stmt, name, inner) == 0 &&
            tst.level(split_level_).kind.has_crd()) {
          Partition p = rt::image(
              *tst.level(split_level_).crd,
              ttp.level_parts[static_cast<size_t>(split_level_)],
              st.vals()->space());
          trace.append(PlanOpKind::Image,
                       strprintf("%s_part = neededCoordinates(%s%d_crd)",
                                 name.c_str(), split_tensor_.c_str(),
                                 split_level_ + 1));
          launch.reqs.push_back(
              rt::RegionReq{st.vals(), own(std::move(p)), Privilege::RO});
          continue;
        }
      }
      // Dense tensors indexed by an inner universe axis of a non-zero x
      // universe grid need only their axis block per piece (replicated
      // across the non-zero axis) — e.g. C's column blocks in 2-D SpMM.
      if (tensor.format().all_dense()) {
        const std::vector<fmt::LevelCut> cuts = level_cuts(name, tensor, 1);
        if (!cuts.empty()) {
          Partition grid = rt::partition_by_bounds(
              st.vals()->space(), fmt::dense_tiles(st, pieces_, cuts));
          launch.reqs.push_back(rt::RegionReq{
              st.vals(), own(std::move(grid)),
              is_output ? Privilege::REDUCE : Privilege::RO});
          continue;
        }
      }
      // Everything else is replicated (the paper's non-zero algorithms
      // replicate the remaining dense operands, e.g. C in the load-balanced
      // GPU SpMM).
      add_replicated_reqs(st, is_output ? Privilege::REDUCE : Privilege::RO);
    }
  }

  partition_span.reset();

  // --- Install data distributions (TDN statements) ---------------------------
  // Deferred to the end of setup: set_placement drains in-flight launches,
  // so everything above it (the expensive partition construction) already
  // overlapped their execution.
  {
    OBS_SPAN("compiler", "place");
    for (const auto& [name, tensor] : stmt.bindings) {
      if (tensor.distribution().has_value() && tensor.has_storage()) {
        tdn::distribute_tensor(trees, runtime, tensor.storage(),
                               *tensor.distribution(), machine_);
      }
    }
  }

  // --- The distributed loop ---------------------------------------------------
  Instance* raw = inst.get();
  const LeafFn leaf = leaf_;
  // Leaf-kind dispatch count, resolved once here (stable address); add()
  // self-gates on obs::enabled(), so the hot path pays one relaxed load.
  obs::Counter& leaf_hits =
      obs::Metrics::global().counter("leaf." + leaf_name_);
  launch.body = [raw, leaf, &leaf_hits](const rt::TaskContext& ctx) {
    leaf_hits.add(1);
    return leaf(raw->piece_bounds_[static_cast<size_t>(ctx.color())]);
  };
  trace.append(PlanOpKind::LeafKernel,
               strprintf("leaf kernel: %s x%d pieces", leaf_name_.c_str(),
                         pieces_));
  return inst;
}

}  // namespace spdistal::comp
