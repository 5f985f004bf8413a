#include "autosched/cost.h"

#include <algorithm>
#include <cmath>

#include "baselines/common.h"
#include "compiler/lower.h"
#include "data/generators.h"

namespace spdistal::autosched {

using rt::Coord;

AnalyticModel::AnalyticModel(const Statement& stmt,
                             const rt::Machine& machine)
    : stmt_(stmt), machine_(machine) {
  // Per-stored-nonzero work profile of the statement's kernel class.
  const base::Operands ops = base::classify(stmt);
  fpn_ = base::flops_per_nnz(ops);
  bpn_ = base::bytes_per_nnz(ops);
}

const std::vector<int64_t>& AnalyticModel::histogram(
    const std::string& tensor, int dim) {
  const std::string key = tensor + ":" + std::to_string(dim);
  auto it = hists_.find(key);
  if (it != hists_.end()) return it->second;
  const Tensor& t = stmt_.tensor(tensor);
  std::vector<int64_t> hist(
      static_cast<size_t>(t.dims()[static_cast<size_t>(dim)]), 0);
  t.storage().for_each([&](const std::array<Coord, rt::kMaxDim>& c, double) {
    hist[static_cast<size_t>(c[static_cast<size_t>(dim)])]++;
  });
  return hists_.emplace(key, std::move(hist)).first->second;
}

double AnalyticModel::estimate(const Recipe& recipe) {
  const rt::MachineConfig& cfg = machine_.config();
  const int procs = std::max(1, machine_.num_procs());
  const int PX = std::max(1, recipe.pieces);
  const int PY = std::max(1, recipe.pieces_y);
  const int PZ = std::max(1, recipe.pieces_z);
  const int P = PX * PY * PZ;
  const int threads = (recipe.unit.has_value() &&
                       *recipe.unit == sched::ParallelUnit::CPUThread)
                          ? cfg.cores_per_node
                          : 1;
  const rt::Proc p0 = machine_.proc(0);

  double piece_max_nnz = 1;
  double comm_bytes = 0;  // per-iteration inter-memory traffic

  auto output_bytes = [&]() {
    const Tensor& out = stmt_.tensor(stmt_.assignment.lhs.tensor);
    if (out.has_storage()) {
      return static_cast<double>(out.storage().vals()->size_bytes());
    }
    double vol = 1;
    for (Coord d : out.dims()) vol *= static_cast<double>(d);
    return 8.0 * vol;
  };

  if (recipe.position_space) {
    // Equal non-zero blocks: perfectly balanced work by construction.
    const Tensor& T = stmt_.tensor(recipe.split_tensor);
    const double total =
        T.has_storage() ? static_cast<double>(T.storage().nnz()) : 1.0;
    piece_max_nnz = std::ceil(std::max(total, 1.0) / P);
    // Piece boundaries overlap coordinate rows, so outputs merge under
    // reduction privileges every iteration: charge one pass over the
    // output's values (an upper bound; aligned-pattern outputs pay none).
    comm_bytes = output_bytes();
  } else {
    // Universe split: bucket each sparse operand's non-zeros over the
    // distributed variables' coordinate blocks; the slowest piece is the
    // maximum bucket (the load-imbalance term that separates universe from
    // non-zero splits on skewed data).
    const auto vars = tin::statement_vars(stmt_.assignment);
    const tin::IndexVar v = vars.front();
    const bool grid = PY > 1 && vars.size() >= 2;
    // Distribution axes: (variable, pieces) per grid rank, in order.
    std::vector<std::pair<tin::IndexVar, int>> grid_axes{{v, PX}};
    if (vars.size() >= 2) grid_axes.push_back({vars[1], PY});
    if (PZ > 1 && vars.size() >= 3) grid_axes.push_back({vars[2], PZ});
    auto dim_of = [](const tin::Access& a, const tin::IndexVar& u) {
      int d = -1;
      for (size_t k = 0; k < a.vars.size(); ++k) {
        if (a.vars[k] == u) d = static_cast<int>(k);
      }
      return d;
    };
    if (grid) {
      // (px, py[, pz]) grid over the leading statement variables. Per-axis
      // fractions: an axis variable indexing the operand keeps its worst
      // coordinate block; one that only splits a surrounding dense loop
      // scales the per-non-zero work by 1/pieces. The per-operand products
      // sum over co-iterated operands (independence approximation between
      // the axes).
      double total_piece = 0;
      double total = 0;
      bool bucketed = false;
      for (const auto& a : tin::expr_accesses(stmt_.assignment.rhs)) {
        const Tensor& t = stmt_.tensor(a.tensor);
        if (t.format().all_dense() || !t.has_storage()) continue;
        const double nnz =
            std::max(1.0, static_cast<double>(t.storage().nnz()));
        total += nnz;
        auto axis_frac = [&](const tin::IndexVar& u, int pieces_a) {
          const int d = dim_of(a, u);
          if (d < 0) return 1.0 / pieces_a;
          const auto blocks = base::block_sums(histogram(a.tensor, d),
                                               pieces_a);
          return static_cast<double>(
                     *std::max_element(blocks.begin(), blocks.end())) /
                 nnz;
        };
        bucketed = true;
        double frac = 1.0;
        for (const auto& [u, pa] : grid_axes) frac *= axis_frac(u, pa);
        total_piece += nnz * frac;
      }
      piece_max_nnz = bucketed ? std::max(total_piece, 1.0)
                               : std::ceil(std::max(total, 1.0) / P);
      // An axis whose variable does not index the output merges partial
      // results by reduction every iteration: one pass over the output.
      const auto& lhs = stmt_.assignment.lhs.vars;
      for (const auto& [u, pa] : grid_axes) {
        if (pa > 1 &&
            std::find(lhs.begin(), lhs.end(), u) == lhs.end()) {
          comm_bytes += output_bytes();
        }
      }
    } else {
      std::vector<int64_t> piece(static_cast<size_t>(P), 0);
      double total = 0;
      bool bucketed = false;
      for (const auto& a : tin::expr_accesses(stmt_.assignment.rhs)) {
        const Tensor& t = stmt_.tensor(a.tensor);
        if (t.format().all_dense() || !t.has_storage()) continue;
        total += static_cast<double>(t.storage().nnz());
        const int d = dim_of(a, v);
        if (d < 0) continue;
        bucketed = true;
        const auto blocks = base::block_sums(histogram(a.tensor, d), P);
        for (int c = 0; c < P; ++c) {
          piece[static_cast<size_t>(c)] += blocks[static_cast<size_t>(c)];
        }
      }
      if (bucketed) {
        piece_max_nnz = static_cast<double>(
            *std::max_element(piece.begin(), piece.end()));
      } else {
        piece_max_nnz = std::ceil(std::max(total, 1.0) / P);
      }
    }
    // Per-axis replication pricing: a dense input operand not indexed by a
    // distribution axis is replicated across that axis's pieces (1-D row
    // SpMM copies all of C everywhere; a (px, py) grid copies column blocks
    // px ways — the communication win of 2-D grids). Instances persist in
    // steady state, so charge one replica-set refill amortized over a
    // nominal serving window.
    constexpr double kReplAmortIters = 16.0;
    double repl_bytes = 0;
    for (const auto& a : tin::expr_accesses(stmt_.assignment.rhs)) {
      const Tensor& t = stmt_.tensor(a.tensor);
      if (!t.format().all_dense()) continue;
      double bytes = 8.0;
      for (Coord d : t.dims()) bytes *= static_cast<double>(d);
      double split = 1;
      int copies = 1;
      for (const auto& [u, pa] : grid_axes) {
        if (dim_of(a, u) >= 0) {
          split *= pa;
        } else {
          copies *= pa;
        }
      }
      repl_bytes += bytes / split * (copies - 1);
    }
    comm_bytes += repl_bytes / kReplAmortIters;
  }

  // Pieces beyond the processor count serialize on their processors.
  const int rounds = (P + procs - 1) / procs;
  const double t_comp =
      rounds *
      std::max(piece_max_nnz * fpn_ / machine_.proc_flops(p0, threads),
               piece_max_nnz * bpn_ / machine_.proc_mem_bw(p0, threads));
  const double overhead = rounds * cfg.task_overhead_s;
  const double net_bw = cfg.net_bw_gbs * 1e9 / cfg.time_scale;
  const double t_comm =
      procs > 1 ? comm_bytes / (net_bw * procs) + cfg.net_latency_s : 0.0;
  return overhead + t_comp + t_comm;
}

double analytic_estimate(const Statement& stmt, const Recipe& recipe,
                         const rt::Machine& machine) {
  return AnalyticModel(stmt, machine).estimate(recipe);
}

Statement make_proxy(const Statement& stmt) {
  Statement proxy;
  proxy.assignment = stmt.assignment;
  for (const auto& [name, t] : stmt.bindings) {
    Tensor clone(name, t.dims(), t.format(), t.distribution());
    if (t.format().all_dense()) {
      if (t.has_storage()) {
        clone.storage().vals()->data() = t.storage().vals()->data();
      }
    } else if (t.has_storage()) {
      fmt::Coo coo = t.storage().to_coo();
      if (coo.nnz() > kMaxProxyNnz) {
        coo = data::sample_coo(coo, kMaxProxyNnz, /*seed=*/1);
      }
      clone.from_coo(std::move(coo));
    }
    // Sparse tensors without storage (unassembled outputs) stay empty: the
    // compiler's assembly phase builds them during instantiation.
    proxy.bindings.emplace(name, std::move(clone));
  }
  return proxy;
}

Statement clone_proxy_output(const Statement& proxy) {
  Statement s;
  s.assignment = proxy.assignment;
  const std::string& out = proxy.assignment.lhs.tensor;
  for (const auto& [name, t] : proxy.bindings) {
    if (name == out) {
      // Fresh output: dense tensors get zeroed storage from the
      // constructor; sparse outputs stay unassembled (the compiler's
      // assembly phase builds them during instantiation).
      s.bindings.emplace(name,
                         Tensor(name, t.dims(), t.format(), t.distribution()));
    } else {
      s.bindings.emplace(name, t);
    }
  }
  return s;
}

double simulate_candidate(Statement& proxy, const sched::Schedule& schedule,
                          const rt::Machine& machine) {
  // Dense outputs accumulate across candidate runs; zero between candidates
  // so every simulation sees the same starting state.
  Tensor out = proxy.tensor(proxy.assignment.lhs.tensor);
  if (out.format().all_dense() && out.has_storage()) out.zero();

  rt::Runtime scratch(machine);
  // Proxy simulations run concurrently across the pool; detached from the
  // trace recorder and per-kernel rows, they can't perturb the
  // application runtime's deterministic simulated timeline or the process
  // totals.
  scratch.set_observability(false);
  comp::CompiledKernel ck =
      comp::CompiledKernel::compile(proxy, schedule, machine);
  auto inst = ck.instantiate(scratch);
  inst->run(1);  // warm-up: placement + first-touch communication
  scratch.reset_timing();
  const int iters = 2;  // timed steady-state iterations
  inst->run(iters);
  return inst->report().sim_time / iters;
}

}  // namespace spdistal::autosched
