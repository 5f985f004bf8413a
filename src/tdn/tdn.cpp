#include "tdn/tdn.h"

#include <map>

#include "common/str_util.h"

namespace spdistal::tdn {

using fmt::TensorPartition;
using fmt::TensorStorage;
using rt::Coord;
using rt::Mem;

Distribution::Distribution(std::vector<DistVar> tensor_vars,
                           std::vector<DistVar> machine_vars)
    : tensor_vars_(std::move(tensor_vars)),
      machine_vars_(std::move(machine_vars)) {}

Distribution& Distribution::fuse(std::vector<DistVar> from, DistVar to) {
  SPD_CHECK(from.size() >= 2, NotationError, "fuse needs >= 2 variables");
  fusions_.push_back(Fusion{std::move(from), std::move(to)});
  return *this;
}

Distribution& Distribution::nonzero(const DistVar& v) {
  nonzero_.insert(v.id());
  return *this;
}

std::string Distribution::str(const std::string& tensor_name) const {
  std::vector<std::string> tv;
  for (const auto& v : tensor_vars_) tv.push_back(v.name());
  std::string s = tensor_name + "(" + join(tv, ", ") + ")";
  for (const auto& f : fusions_) {
    std::vector<std::string> fv;
    for (const auto& v : f.from) fv.push_back(v.name());
    s += " fuse(" + join(fv, ", ") + " -> " + f.to.name() + ")";
  }
  std::vector<std::string> mv;
  for (const auto& v : machine_vars_) {
    mv.push_back((is_nonzero(v) ? "~" : "") + v.name());
  }
  return s + " -> M(" + join(mv, ", ") + ")";
}

Distribution parse_tdn(const std::string& stmt) {
  // Grammar: Name '(' vars ')' [ 'fuse' '(' vars '->' var ')' ]* '->'
  //          Name '(' ['~']var [',' ...] ')'
  const size_t arrow = stmt.rfind("->");
  SPD_CHECK(arrow != std::string::npos, NotationError,
            "TDN statement needs '->': " << stmt);
  std::string lhs = trim(stmt.substr(0, arrow));
  std::string rhs = trim(stmt.substr(arrow + 2));

  auto parse_parens = [](const std::string& s, size_t from,
                         size_t* close) -> std::vector<std::string> {
    const size_t open = s.find('(', from);
    SPD_CHECK(open != std::string::npos, NotationError, "expected '(' in " << s);
    const size_t end = s.find(')', open);
    SPD_CHECK(end != std::string::npos, NotationError, "expected ')' in " << s);
    *close = end;
    return split(s.substr(open + 1, end - open - 1), ',');
  };

  // Named variables are shared by name within one statement.
  std::map<std::string, DistVar> vars;
  auto var_of = [&](const std::string& raw) -> DistVar {
    std::string name = trim(raw);
    SPD_CHECK(!name.empty(), NotationError, "empty variable in " << stmt);
    auto it = vars.find(name);
    if (it != vars.end()) return it->second;
    DistVar v(name);
    vars.emplace(name, v);
    return v;
  };

  size_t close = 0;
  std::vector<std::string> tvars_raw = parse_parens(lhs, 0, &close);
  std::vector<DistVar> tvars;
  for (const auto& r : tvars_raw) tvars.push_back(var_of(r));

  // Optional fuse clauses.
  std::vector<Distribution::Fusion> fusions;
  size_t at = close + 1;
  while (true) {
    const size_t f = lhs.find("fuse", at);
    if (f == std::string::npos) break;
    size_t fc = 0;
    std::vector<std::string> inner = parse_parens(lhs, f, &fc);
    // inner looks like {"x", "y -> f"}; the arrow lives in the last piece.
    SPD_CHECK(!inner.empty(), NotationError, "empty fuse() in " << stmt);
    std::string last = inner.back();
    const size_t a2 = last.find("->");
    SPD_CHECK(a2 != std::string::npos, NotationError,
              "fuse needs '->' in " << stmt);
    std::string last_src = trim(last.substr(0, a2));
    std::string target = trim(last.substr(a2 + 2));
    std::vector<DistVar> from;
    for (size_t i = 0; i + 1 < inner.size(); ++i) from.push_back(var_of(inner[i]));
    from.push_back(var_of(last_src));
    fusions.push_back(Distribution::Fusion{from, var_of(target)});
    at = fc + 1;
  }

  size_t mclose = 0;
  std::vector<std::string> mvars_raw = parse_parens(rhs, 0, &mclose);
  std::vector<DistVar> mvars;
  std::vector<DistVar> nz;
  for (auto r : mvars_raw) {
    r = trim(r);
    bool tilde = !r.empty() && r[0] == '~';
    if (tilde) r = trim(r.substr(1));
    DistVar v = var_of(r);
    if (tilde) nz.push_back(v);
    mvars.push_back(v);
  }

  Distribution d(tvars, mvars);
  for (auto& f : fusions) d.fuse(f.from, f.to);
  for (auto& v : nz) d.nonzero(v);
  return d;
}

namespace {

// Mapping color -> the memory of the machine's processor with that flat id.
std::vector<Mem> color_mems(const rt::Machine& machine, int colors) {
  std::vector<Mem> mems;
  mems.reserve(static_cast<size_t>(colors));
  for (int c = 0; c < colors; ++c) {
    mems.push_back(machine.proc_mem(machine.proc(c % machine.num_procs())));
  }
  return mems;
}

// What a statement asks of one tensor's storage, before anything is built:
// replication, the coordinate-tree spec of a sparse tensor, or the tiles of
// a dense one (a vals-only partition). `colors` counts the grid's points.
struct Resolved {
  bool replicated = false;
  int colors = 0;
  std::optional<fmt::TreeSpec> tree;
  TensorPartition tiles;
};

Resolved resolve(const TensorStorage& storage, const Distribution& dist,
                 const rt::Machine& machine) {
  SPD_CHECK(static_cast<int>(dist.tensor_vars().size()) == storage.order(),
            NotationError,
            "TDN statement names " << dist.tensor_vars().size()
                                   << " dims but tensor " << storage.name()
                                   << " has " << storage.order());
  SPD_CHECK(machine.grid().ndims() == 1 ||
                static_cast<int>(dist.machine_vars().size()) ==
                    machine.grid().ndims(),
            NotationError, "machine vars must match grid rank");

  // Effective tensor variables after fusion.
  struct Slot {
    DistVar var;
    std::vector<int> dims;  // logical dims covered (1 normally, >1 if fused)
  };
  std::vector<Slot> slots;
  for (int d = 0; d < storage.order(); ++d) {
    slots.push_back(
        Slot{dist.tensor_vars()[static_cast<size_t>(d)], {d}});
  }
  for (const auto& f : dist.fusions()) {
    // Replace the run of slots matching f.from with one fused slot.
    size_t start = 0;
    bool found = false;
    for (size_t s = 0; s + f.from.size() <= slots.size() && !found; ++s) {
      bool match = true;
      for (size_t k = 0; k < f.from.size(); ++k) {
        if (!(slots[s + k].var == f.from[k])) match = false;
      }
      if (match) {
        start = s;
        found = true;
      }
    }
    SPD_CHECK(found, NotationError,
              "fused variables are not consecutive tensor dimensions in "
                  << dist.str(storage.name()));
    Slot fused{f.to, {}};
    for (size_t k = 0; k < f.from.size(); ++k) {
      for (int d : slots[start + k].dims) fused.dims.push_back(d);
    }
    slots.erase(slots.begin() + static_cast<long>(start),
                slots.begin() + static_cast<long>(start + f.from.size()));
    slots.insert(slots.begin() + static_cast<long>(start), fused);
  }

  // Find the shared machine variables per *grid axis* (dense tensors may
  // share several — the Grid(x, y) tiling of Figure 4c; sparse tensors at
  // most one). On a rank-1 grid every machine variable names the single
  // axis, preserving the legacy behavior of placement strings like
  // "C(x, y) -> M(z, y)" on Machine(Grid(p)).
  const rt::Grid& grid = machine.grid();
  std::vector<const Slot*> matches(static_cast<size_t>(grid.ndims()),
                                   nullptr);
  int num_matches = 0;
  for (size_t k = 0; k < dist.machine_vars().size(); ++k) {
    for (const auto& s : slots) {
      if (s.var == dist.machine_vars()[k]) {
        const size_t axis = grid.ndims() == 1 ? 0 : k;
        SPD_CHECK(matches[axis] == nullptr, NotationError,
                  "two tensor dimensions mapped to one machine dimension: "
                      << dist.str(storage.name()));
        matches[axis] = &s;
        ++num_matches;
      }
    }
  }
  Resolved r;
  r.colors = grid.total();
  // Each matched axis splits its dimension (or non-zeros) in equal blocks;
  // a color takes the block of its grid coordinate on that axis, so each
  // block is replicated onto every processor sharing that coordinate.
  auto blocks = [&](int axis, Coord n) {
    return fmt::color_blocks(grid.dims(), axis,
                             rt::equal_bounds(n, grid.dim(axis)));
  };

  if (storage.format().all_dense()) {
    if (num_matches == 0) {
      r.replicated = true;
      return r;
    }
    // One tile per grid point: the matched dimensions cut to their axis
    // blocks, whole across unmatched axes.
    std::vector<fmt::LevelCut> cuts;
    for (size_t k = 0; k < matches.size(); ++k) {
      if (matches[k] == nullptr) continue;
      SPD_CHECK(matches[k]->dims.size() == 1, NotationError,
                "fused distributions of dense tensors are not supported");
      SPD_CHECK(!dist.is_nonzero(matches[k]->var), NotationError,
                "non-zero partitions of dense tensors are meaningless: "
                    << dist.str(storage.name()));
      const int d = matches[k]->dims[0];
      cuts.push_back(fmt::LevelCut{
          storage.format().level_of_dim(d),
          blocks(static_cast<int>(k),
                 storage.dims()[static_cast<size_t>(d)])});
    }
    r.tiles.vals_part = rt::partition_by_bounds(
        storage.vals()->space(), fmt::dense_tiles(storage, r.colors, cuts));
    return r;
  }

  SPD_CHECK(num_matches <= 1, NotationError,
            "multi-dimensional sparse distributions are not supported: "
                << dist.str(storage.name()));
  if (num_matches == 0) {
    r.replicated = true;
    return r;
  }
  int match_machine_dim = 0;
  while (matches[static_cast<size_t>(match_machine_dim)] == nullptr) {
    ++match_machine_dim;
  }
  const Slot* match_slot = matches[static_cast<size_t>(match_machine_dim)];

  const bool nz = dist.is_nonzero(match_slot->var);
  int level;
  if (match_slot->dims.size() > 1) {
    // Fused: the fused dims must occupy the leading storage levels in order;
    // the initial partition is a non-zero partition of the last fused level.
    SPD_CHECK(nz, NotationError,
              "fused distribution variables must be non-zero (~) partitioned: "
                  << dist.str(storage.name()));
    for (size_t k = 0; k < match_slot->dims.size(); ++k) {
      SPD_CHECK(storage.format().dim_of_level(static_cast<int>(k)) ==
                    match_slot->dims[k],
                NotationError,
                "fused dimensions must be the leading storage dimensions of "
                    << storage.name());
    }
    level = static_cast<int>(match_slot->dims.size()) - 1;
  } else {
    level = storage.format().level_of_dim(match_slot->dims[0]);
  }
  const fmt::LevelStorage& ls = storage.level(level);
  r.tree = fmt::TreeSpec{
      level, nz, blocks(match_machine_dim, nz ? ls.positions : ls.extent)};
  return r;
}

}  // namespace

Materialized materialize(comp::PlanTrace& trace, const TensorStorage& storage,
                         const Distribution& dist,
                         const rt::Machine& machine) {
  const Resolved r = resolve(storage, dist, machine);
  Materialized m;
  m.replicated = r.replicated;
  if (r.replicated) return m;
  fmt::TreeBuilder builder(trace);
  m.partition = r.tree ? builder.build(storage, *r.tree) : r.tiles;
  m.mems = color_mems(machine, r.colors);
  return m;
}

void distribute_tensor(comp::PlanTrace& trace, rt::Runtime& runtime,
                       const TensorStorage& storage, const Distribution& dist,
                       const rt::Machine& machine) {
  fmt::TreeBuilder builder(trace);
  distribute_tensor(builder, runtime, storage, dist, machine);
}

void distribute_tensor(fmt::TreeBuilder& builder, rt::Runtime& runtime,
                       const TensorStorage& storage, const Distribution& dist,
                       const rt::Machine& machine) {
  const Resolved r = resolve(storage, dist, machine);
  const TensorPartition& tp =
      r.tree ? builder.build(storage, *r.tree) : r.tiles;
  builder.trace().append(
      comp::PlanOpKind::SetPlacement,
      strprintf("placement: %s", dist.str(storage.name()).c_str()));
  if (r.replicated) {
    runtime.replicate_sys(*storage.vals());
    for (int l = 0; l < storage.num_levels(); ++l) {
      const auto& level = storage.level(l);
      if (level.kind.has_pos()) runtime.replicate_sys(*level.pos);
      if (level.kind.has_crd()) runtime.replicate_sys(*level.crd);
    }
    return;
  }
  const std::vector<Mem> mems = color_mems(machine, r.colors);
  for (const fmt::RegionPart& rp : tp.regions(storage)) {
    if (rp.part) {
      runtime.set_placement(*rp.region, *rp.part, mems);
    } else {
      runtime.replicate_sys(*rp.region);
    }
  }
}

}  // namespace spdistal::tdn
