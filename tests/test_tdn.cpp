// Tests for tensor distribution notation: parsing, materialization of
// universe / non-zero / fused partitions (Figure 5), placement
// installation, and the PlacementReference differential suite.
#include <gtest/gtest.h>

#include <functional>

#include "common/rng.h"
#include "tdn/tdn.h"

namespace spdistal::tdn {
namespace {

using fmt::Coo;
using rt::Coord;

rt::Machine cpu_machine(int nodes) {
  rt::MachineConfig cfg;
  cfg.nodes = nodes;
  return rt::Machine(cfg, rt::Grid(nodes), rt::ProcKind::CPU);
}

fmt::TensorStorage skewed_csr(Coord n) {
  // Row 0 holds half of all non-zeros; remaining rows one each.
  Coo coo;
  coo.dims = {n, n};
  for (Coord j = 0; j < n; ++j) coo.push({0, j}, 1.0);
  for (Coord i = 1; i < n; ++i) coo.push({i, 0}, 2.0);
  return fmt::pack("B", fmt::csr(), {n, n}, std::move(coo));
}

TEST(TdnParse, RowWise) {
  Distribution d = parse_tdn("B(x, y) -> M(x)");
  EXPECT_EQ(d.tensor_vars().size(), 2u);
  EXPECT_EQ(d.machine_vars().size(), 1u);
  EXPECT_TRUE(d.tensor_vars()[0] == d.machine_vars()[0]);
  EXPECT_FALSE(d.is_nonzero(d.machine_vars()[0]));
  EXPECT_EQ(d.str("B"), "B(x, y) -> M(x)");
}

TEST(TdnParse, Replicated) {
  Distribution d = parse_tdn("c(x) -> M(y)");
  EXPECT_FALSE(d.tensor_vars()[0] == d.machine_vars()[0]);
}

TEST(TdnParse, NonZero) {
  Distribution d = parse_tdn("v(x) -> M(~x)");
  EXPECT_TRUE(d.is_nonzero(d.machine_vars()[0]));
  EXPECT_EQ(d.str("v"), "v(x) -> M(~x)");
}

TEST(TdnParse, FusedNonZero) {
  Distribution d = parse_tdn("B(x, y) fuse(x, y -> f) -> M(~f)");
  ASSERT_EQ(d.fusions().size(), 1u);
  EXPECT_EQ(d.fusions()[0].from.size(), 2u);
  EXPECT_TRUE(d.fusions()[0].to == d.machine_vars()[0]);
  EXPECT_TRUE(d.is_nonzero(d.machine_vars()[0]));
  EXPECT_EQ(d.str("B"), "B(x, y) fuse(x, y -> f) -> M(~f)");
}

TEST(TdnParse, RejectsGarbage) {
  EXPECT_THROW(parse_tdn("B(x, y) M(x)"), NotationError);
  EXPECT_THROW(parse_tdn("nonsense"), NotationError);
}

// Figure 5a analogue: universe partition of a skewed matrix's rows gives
// unbalanced non-zeros.
TEST(TdnMaterialize, UniverseRowPartitionIsImbalanced) {
  auto st = skewed_csr(16);
  comp::PlanTrace trace;
  Materialized m = materialize(trace, st, parse_tdn("B(x, y) -> M(x)"),
                               cpu_machine(4));
  ASSERT_FALSE(m.replicated);
  ASSERT_EQ(m.partition.vals_part.num_colors(), 4);
  // Color 0 holds rows 0..3: 16 + 3 = 19 of the 31 values.
  EXPECT_EQ(m.partition.vals_part.subset(0).volume(), 19);
  EXPECT_EQ(m.partition.vals_part.subset(3).volume(), 4);
}

// Figure 5c analogue: the fused non-zero partition balances values evenly.
TEST(TdnMaterialize, FusedNonZeroBalances) {
  auto st = skewed_csr(16);
  comp::PlanTrace trace;
  Materialized m = materialize(
      trace, st, parse_tdn("B(x, y) fuse(x, y -> f) -> M(~f)"),
      cpu_machine(4));
  ASSERT_FALSE(m.replicated);
  // 31 non-zeros over 4 pieces: 7/8/8/8.
  int64_t mx = 0, mn = 1 << 30;
  for (int c = 0; c < 4; ++c) {
    mx = std::max(mx, m.partition.vals_part.subset(c).volume());
    mn = std::min(mn, m.partition.vals_part.subset(c).volume());
  }
  EXPECT_LE(mx - mn, 1);
  EXPECT_TRUE(m.partition.vals_part.complete());
  EXPECT_TRUE(m.partition.vals_part.disjoint());
}

// Non-zero partition of the first dimension (~x): splits *stored rows*
// equally, not coordinates.
TEST(TdnMaterialize, NonZeroDim0OnDcsr) {
  Coo coo;
  coo.dims = {100, 4};
  // Only rows 90..97 are non-empty.
  for (Coord i = 90; i < 98; ++i) coo.push({i, 0}, 1.0);
  auto st = fmt::pack("B", fmt::dcsr(), {100, 4}, std::move(coo));
  comp::PlanTrace trace;
  Materialized m = materialize(trace, st, parse_tdn("B(x, y) -> M(~x)"),
                               cpu_machine(4));
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(m.partition.vals_part.subset(c).volume(), 2);
  }
}

TEST(TdnMaterialize, ReplicatedSparse) {
  auto st = skewed_csr(8);
  comp::PlanTrace trace;
  Materialized m = materialize(trace, st, parse_tdn("B(x, y) -> M(z)"),
                               cpu_machine(2));
  EXPECT_TRUE(m.replicated);
}

TEST(TdnMaterialize, DenseMatrixColumnPartition) {
  Coo coo;
  coo.dims = {6, 8};
  auto st = fmt::pack("C", fmt::dense_matrix(), {6, 8}, std::move(coo));
  comp::PlanTrace trace;
  Materialized m = materialize(trace, st, parse_tdn("C(x, y) -> M(y)"),
                               cpu_machine(4));
  ASSERT_FALSE(m.replicated);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(m.partition.vals_part.subset(c).volume(), 6 * 2);
  }
  EXPECT_TRUE(m.partition.vals_part.disjoint());
  EXPECT_TRUE(m.partition.vals_part.complete());
}

// 2-D machine-tuple placement strings keep working on a rank-1 grid: every
// machine variable names the single axis, so "C(x, y) -> M(z, y)" is a
// column partition across all processors (legacy behavior).
TEST(TdnMaterialize, TwoDimTupleOnRankOneGrid) {
  Coo coo;
  coo.dims = {6, 8};
  auto st = fmt::pack("C", fmt::dense_matrix(), {6, 8}, std::move(coo));
  comp::PlanTrace trace;
  Materialized m = materialize(trace, st, parse_tdn("C(x, y) -> M(z, y)"),
                               cpu_machine(4));
  ASSERT_FALSE(m.replicated);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(m.partition.vals_part.subset(c).volume(), 6 * 2);
  }
}

// Figure 4c: a dense matrix tiled on both axes of a Grid(x, y) machine.
TEST(TdnMaterialize, DenseGridTiles) {
  Coo coo;
  coo.dims = {6, 8};
  auto st = fmt::pack("A", fmt::dense_matrix(), {6, 8}, std::move(coo));
  rt::MachineConfig cfg;
  cfg.nodes = 4;
  rt::Machine machine(cfg, rt::Grid(2, 2), rt::ProcKind::CPU);
  comp::PlanTrace trace;
  Materialized m = materialize(trace, st, parse_tdn("A(x, y) -> M(x, y)"),
                               machine);
  ASSERT_FALSE(m.replicated);
  ASSERT_EQ(m.partition.vals_part.num_colors(), 4);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(m.partition.vals_part.subset(c).volume(), 3 * 4);
  }
  EXPECT_TRUE(m.partition.vals_part.disjoint());
  EXPECT_TRUE(m.partition.vals_part.complete());
  // Sparse row blocks on the same machine replicate across the column axis:
  // colors (x, 0) and (x, 1) hold the same rows.
  auto bst = skewed_csr(8);
  Materialized mb = materialize(trace, bst, parse_tdn("B(x, y) -> M(x, z)"),
                                machine);
  ASSERT_EQ(mb.partition.level_parts[0].num_colors(), 4);
  EXPECT_EQ(mb.partition.level_parts[0].subset(0).str(),
            mb.partition.level_parts[0].subset(1).str());
  EXPECT_EQ(mb.partition.level_parts[0].subset(2).str(),
            mb.partition.level_parts[0].subset(3).str());
}

TEST(TdnMaterialize, RejectsNonZeroOnDense) {
  Coo coo;
  coo.dims = {6, 8};
  auto st = fmt::pack("C", fmt::dense_matrix(), {6, 8}, std::move(coo));
  comp::PlanTrace trace;
  EXPECT_THROW(
      materialize(trace, st, parse_tdn("C(x, y) -> M(~x)"), cpu_machine(2)),
      NotationError);
}

TEST(TdnMaterialize, RejectsWrongArity) {
  auto st = skewed_csr(8);
  comp::PlanTrace trace;
  EXPECT_THROW(
      materialize(trace, st, parse_tdn("B(x) -> M(x)"), cpu_machine(2)),
      NotationError);
}

// distribute_tensor installs placements such that reading each color's vals
// subset on its assigned node costs no communication.
TEST(TdnDistribute, PlacementMatchesPartition) {
  auto machine = cpu_machine(4);
  rt::Runtime runtime(machine);
  auto st = skewed_csr(16);
  comp::PlanTrace trace;
  Materialized m = materialize(trace, st, parse_tdn("B(x, y) -> M(x)"),
                               machine);
  distribute_tensor(trace, runtime, st, parse_tdn("B(x, y) -> M(x)"),
                    machine);
  runtime.reset_timing();
  // A launch that reads each color's vals on its own node moves nothing.
  rt::IndexLaunch launch;
  launch.name = "read_local";
  launch.domain = 4;
  launch.reqs = {
      rt::RegionReq{st.vals(), &m.partition.vals_part, rt::Privilege::RO}};
  launch.body = [](const rt::TaskContext&) { return rt::WorkEstimate{1, 1}; };
  runtime.execute(launch);
  EXPECT_DOUBLE_EQ(runtime.report().inter_node_bytes, 0.0);
}

TEST(TdnDistribute, ReplicationPlacesEverywhere) {
  auto machine = cpu_machine(3);
  rt::Runtime runtime(machine);
  auto st = skewed_csr(9);
  comp::PlanTrace trace;
  distribute_tensor(trace, runtime, st, parse_tdn("B(x, y) -> M(q)"),
                    machine);
  runtime.reset_timing();
  rt::IndexLaunch launch;
  launch.name = "read_all";
  launch.domain = 3;
  launch.reqs = {rt::RegionReq{st.vals(), nullptr, rt::Privilege::RO}};
  launch.body = [](const rt::TaskContext&) { return rt::WorkEstimate{1, 1}; };
  runtime.execute(launch);
  EXPECT_DOUBLE_EQ(runtime.report().inter_node_bytes, 0.0);
}

TEST(EqualBounds, SplitsLikePartitionEqual) {
  auto b = rt::equal_bounds(10, 3);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0].size() + b[1].size() + b[2].size(), 10);
  EXPECT_EQ(b[0].lo, 0);
  EXPECT_EQ(b[2].hi, 9);
}

// --- PlacementReference: the shared builder and tiler against the private
// walks they replaced ---------------------------------------------------------
//
// The references below are the earlier code, kept verbatim in behavior:
// materialize with its own equal blocks, row-major grid decomposition, tile
// loop and level-function calls; distribute_tensor's own region walk; and
// the runtime's former Figure 4c tiler. Each case compares exact subsets
// per color, memories, replication flags, plan ops and thrown errors.

std::vector<rt::Rect1> ref_equal_bounds(Coord n, int pieces) {
  std::vector<rt::Rect1> out;
  const Coord base = n / pieces;
  const Coord rem = n % pieces;
  Coord at = 0;
  for (int c = 0; c < pieces; ++c) {
    const Coord len = base + (c >= pieces - rem ? 1 : 0);
    out.push_back(rt::Rect1{at, at + len - 1});
    at += len;
  }
  return out;
}

int ref_grid_coord(const rt::Grid& g, int flat, int d) {
  for (int k = g.ndims() - 1; k > d; --k) flat /= g.dim(k);
  return flat % g.dim(d);
}

Materialized ref_materialize(comp::PlanTrace& trace,
                             const fmt::TensorStorage& storage,
                             const Distribution& dist,
                             const rt::Machine& machine) {
  SPD_CHECK(static_cast<int>(dist.tensor_vars().size()) == storage.order(),
            NotationError, "arity");
  SPD_CHECK(machine.grid().ndims() == 1 ||
                static_cast<int>(dist.machine_vars().size()) ==
                    machine.grid().ndims(),
            NotationError, "machine vars must match grid rank");
  struct Slot {
    DistVar var;
    std::vector<int> dims;
  };
  std::vector<Slot> slots;
  for (int d = 0; d < storage.order(); ++d) {
    slots.push_back(Slot{dist.tensor_vars()[static_cast<size_t>(d)], {d}});
  }
  for (const auto& f : dist.fusions()) {
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
    SPD_CHECK(found, NotationError, "fuse");
    Slot fused{f.to, {}};
    for (size_t k = 0; k < f.from.size(); ++k) {
      for (int d : slots[start + k].dims) fused.dims.push_back(d);
    }
    slots.erase(slots.begin() + static_cast<long>(start),
                slots.begin() + static_cast<long>(start + f.from.size()));
    slots.insert(slots.begin() + static_cast<long>(start), fused);
  }
  const rt::Grid& grid = machine.grid();
  std::vector<const Slot*> matches(static_cast<size_t>(grid.ndims()),
                                   nullptr);
  int num_matches = 0;
  for (size_t k = 0; k < dist.machine_vars().size(); ++k) {
    for (const auto& s : slots) {
      if (s.var == dist.machine_vars()[k]) {
        const size_t axis = grid.ndims() == 1 ? 0 : k;
        SPD_CHECK(matches[axis] == nullptr, NotationError, "two dims");
        matches[axis] = &s;
        ++num_matches;
      }
    }
  }
  const int colors = grid.total();
  auto mems_of = [&] {
    std::vector<rt::Mem> mems;
    for (int c = 0; c < colors; ++c) {
      mems.push_back(machine.proc_mem(machine.proc(c % machine.num_procs())));
    }
    return mems;
  };
  Materialized m;
  if (storage.format().all_dense()) {
    if (num_matches == 0) {
      m.replicated = true;
      return m;
    }
    std::vector<rt::RectN> tiles;
    std::vector<std::vector<rt::Rect1>> axis_blocks(matches.size());
    for (size_t k = 0; k < matches.size(); ++k) {
      if (matches[k] == nullptr) continue;
      SPD_CHECK(matches[k]->dims.size() == 1, NotationError, "fused dense");
      SPD_CHECK(!dist.is_nonzero(matches[k]->var), NotationError, "~ dense");
      axis_blocks[k] = ref_equal_bounds(
          storage.dims()[static_cast<size_t>(matches[k]->dims[0])],
          grid.dim(static_cast<int>(k)));
    }
    for (int c = 0; c < colors; ++c) {
      rt::RectN t = storage.vals()->space().bounds();
      for (size_t k = 0; k < matches.size(); ++k) {
        if (matches[k] == nullptr) continue;
        const int level = storage.format().level_of_dim(matches[k]->dims[0]);
        const rt::Rect1 b = axis_blocks[k][static_cast<size_t>(
            ref_grid_coord(grid, c, static_cast<int>(k)))];
        t.lo[level] = std::max(t.lo[level], b.lo);
        t.hi[level] = std::min(t.hi[level], b.hi);
      }
      tiles.push_back(t);
    }
    m.partition.vals_part =
        rt::partition_by_bounds(storage.vals()->space(), tiles);
    m.mems = mems_of();
    return m;
  }
  SPD_CHECK(num_matches <= 1, NotationError, "multi-dimensional sparse");
  if (num_matches == 0) {
    m.replicated = true;
    return m;
  }
  int dim = 0;
  while (matches[static_cast<size_t>(dim)] == nullptr) ++dim;
  const Slot* slot = matches[static_cast<size_t>(dim)];
  const bool nz = dist.is_nonzero(slot->var);
  int level;
  if (slot->dims.size() > 1) {
    SPD_CHECK(nz, NotationError, "fused must be ~");
    for (size_t k = 0; k < slot->dims.size(); ++k) {
      SPD_CHECK(storage.format().dim_of_level(static_cast<int>(k)) ==
                    slot->dims[k],
                NotationError, "fused not leading");
    }
    level = static_cast<int>(slot->dims.size()) - 1;
  } else {
    level = storage.format().level_of_dim(slot->dims[0]);
  }
  const fmt::LevelStorage& ls = storage.level(level);
  const fmt::LevelFuncs& funcs = fmt::LevelFuncs::get(ls.kind);
  const std::vector<rt::Rect1> axis =
      ref_equal_bounds(nz ? ls.positions : ls.extent, grid.dim(dim));
  std::vector<rt::Rect1> bounds;
  for (int c = 0; c < colors; ++c) {
    bounds.push_back(axis[static_cast<size_t>(ref_grid_coord(grid, c, dim))]);
  }
  const fmt::LevelPartitions init =
      nz ? funcs.nonzero_partition(trace, storage.name(), level, ls, bounds)
         : funcs.universe_partition(trace, storage.name(), level, ls, bounds);
  m.partition = fmt::partition_coordinate_tree(trace, storage, level, init);
  m.mems = mems_of();
  return m;
}

// distribute_tensor's former region walk over a reference materialization.
void ref_distribute(rt::Runtime& runtime, const fmt::TensorStorage& storage,
                    const Materialized& m) {
  if (m.replicated) {
    runtime.replicate_sys(*storage.vals());
    for (int l = 0; l < storage.num_levels(); ++l) {
      const auto& level = storage.level(l);
      if (level.kind.has_pos()) runtime.replicate_sys(*level.pos);
      if (level.kind.has_crd()) runtime.replicate_sys(*level.crd);
    }
    return;
  }
  runtime.set_placement(*storage.vals(), m.partition.vals_part, m.mems);
  for (int l = 0; l < storage.num_levels(); ++l) {
    const auto& level = storage.level(l);
    if (!level.kind.has_crd()) continue;
    runtime.set_placement(*level.crd,
                          m.partition.level_parts[static_cast<size_t>(l)],
                          m.mems);
    if (!level.kind.has_pos()) continue;
    if (l == 0) {
      runtime.replicate_sys(*level.pos);
    } else {
      const auto& parent = m.partition.level_parts[static_cast<size_t>(l - 1)];
      runtime.set_placement(
          *level.pos, rt::copy_partition(parent, level.pos->space()), m.mems);
    }
  }
}

rt::Partition ref_partition_grid2(const rt::IndexSpace& space, int pieces_x,
                                  int pieces_y) {
  const rt::Partition px = rt::partition_equal(space, pieces_x, 0);
  std::vector<rt::RectN> tiles;
  rt::RectN empty_row;
  empty_row.dim = 2;
  for (int x = 0; x < pieces_x; ++x) {
    const rt::RectN row = px.subset(x).rects().empty()
                              ? empty_row
                              : px.subset(x).rects()[0];
    const rt::Rect1 cols = space.bounds().dim_rect(1);
    const Coord n = cols.size();
    const Coord base = n / pieces_y;
    const Coord rem = n % pieces_y;
    Coord at = cols.lo;
    for (int y = 0; y < pieces_y; ++y) {
      const Coord len = base + (y >= pieces_y - rem ? 1 : 0);
      rt::RectN t = row;
      t.lo[1] = at;
      t.hi[1] = at + len - 1;
      at += len;
      tiles.push_back(t);
    }
  }
  return rt::partition_by_bounds(space, tiles);
}

void expect_same_partition(const rt::Partition& got, const rt::Partition& want,
                           const std::string& what) {
  ASSERT_EQ(got.num_colors(), want.num_colors()) << what;
  EXPECT_EQ(got.parent().bounds(), want.parent().bounds()) << what;
  for (int c = 0; c < got.num_colors(); ++c) {
    EXPECT_EQ(got.subset(c).rects(), want.subset(c).rects())
        << what << " color " << c << ": got " << got.subset(c).str()
        << ", want " << want.subset(c).str();
  }
}

void expect_same_report(const rt::SimReport& a, const rt::SimReport& b) {
  EXPECT_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.inter_node_bytes, b.inter_node_bytes);
  EXPECT_EQ(a.intra_node_bytes, b.intra_node_bytes);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.peak_sysmem, b.peak_sysmem);
  EXPECT_EQ(a.peak_fbmem, b.peak_fbmem);
}

std::vector<std::string> op_texts(const comp::PlanTrace& trace) {
  std::vector<std::string> out;
  for (const auto& op : trace.ops()) out.push_back(op.text);
  return out;
}

// Which error a call throws, or "" when it returns.
std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const NotationError&) {
    return "NotationError";
  } catch (const ScheduleError&) {
    return "ScheduleError";
  }
  return "";
}

// One statement checked against the references: the same partition,
// memories, flag, plan ops and error from materialize, and the same
// placement traffic and memory from distribute_tensor.
void expect_matches_reference(const fmt::TensorStorage& st,
                              const std::string& stmt,
                              const rt::Machine& machine) {
  SCOPED_TRACE(stmt + " on " + std::to_string(machine.grid().ndims()) +
               "-D grid of " + std::to_string(machine.grid().total()));
  const Distribution dist = parse_tdn(stmt);
  comp::PlanTrace ref_trace, got_trace;
  Materialized want, got;
  const std::string ref_err = error_of(
      [&] { want = ref_materialize(ref_trace, st, dist, machine); });
  const std::string got_err =
      error_of([&] { got = materialize(got_trace, st, dist, machine); });
  ASSERT_EQ(got_err, ref_err);
  if (!ref_err.empty()) return;
  EXPECT_EQ(got.replicated, want.replicated);
  EXPECT_EQ(got.mems, want.mems);
  EXPECT_EQ(op_texts(got_trace), op_texts(ref_trace));
  if (!want.replicated) {
    expect_same_partition(got.partition.vals_part, want.partition.vals_part,
                          "vals");
    ASSERT_EQ(got.partition.level_parts.size(),
              want.partition.level_parts.size());
    for (size_t l = 0; l < want.partition.level_parts.size(); ++l) {
      expect_same_partition(got.partition.level_parts[l],
                            want.partition.level_parts[l],
                            "level " + std::to_string(l));
    }
  }
  rt::Runtime ref_rt(machine, 1), got_rt(machine, 1);
  ref_distribute(ref_rt, st, want);
  comp::PlanTrace trace;
  distribute_tensor(trace, got_rt, st, dist, machine);
  expect_same_report(got_rt.report(), ref_rt.report());
}

rt::Machine grid_machine(const rt::Grid& grid) {
  rt::MachineConfig cfg;
  cfg.nodes = grid.total();
  return rt::Machine(cfg, grid, rt::ProcKind::CPU);
}

class PlacementReference : public ::testing::TestWithParam<int> {
 protected:
  Rng rng{static_cast<uint64_t>(GetParam()) * 104729 + 3};

  Coord below(Coord n) {
    return static_cast<Coord>(rng.next_below(static_cast<uint64_t>(n)));
  }
  // Random entries over random small dims; every fourth seed is empty.
  // Extents of 1..7 against up to 6 colors per axis give more colors than
  // rows or positions on most seeds.
  Coo random_coo(int order) {
    Coo coo;
    for (int d = 0; d < order; ++d) coo.dims.push_back(1 + below(7));
    const int64_t nnz = GetParam() % 4 == 0 ? 0 : below(24);
    for (int64_t e = 0; e < nnz; ++e) {
      std::array<Coord, rt::kMaxDim> c{};
      for (int d = 0; d < order; ++d) c[d] = below(coo.dims[d]);
      coo.push(c, 1.0 + static_cast<double>(e));
    }
    return coo;
  }
  // A 1-D and a 2-D machine grid.
  std::vector<rt::Machine> machines() {
    const int p = 1 + static_cast<int>(below(6));
    const int px = 1 + static_cast<int>(below(4));
    const int py = 1 + static_cast<int>(below(4));
    return {grid_machine(rt::Grid(p)), grid_machine(rt::Grid(px, py))};
  }
};

// Every TDN statement shape for a tensor of `order`: universe and ~ on each
// dim, fused ~ (and the fusions that must fail), replication, and a
// two-dimension mapping; on a 2-D grid the matched variable takes either
// axis. Also a wrong arity.
std::vector<std::string> statements(int order, int grid_rank) {
  const std::vector<std::string> v = {"x", "y", "z"};
  std::string lhs = "T(";
  for (int d = 0; d < order; ++d) {
    lhs += (d ? ", " : "") + v[static_cast<size_t>(d)];
  }
  lhs += ")";
  std::vector<std::pair<std::string, std::string>> maps;  // (fusions, var)
  for (int d = 0; d < order; ++d) {
    maps.push_back({"", v[static_cast<size_t>(d)]});
    maps.push_back({"", "~" + v[static_cast<size_t>(d)]});
  }
  if (order >= 2) {
    maps.push_back({" fuse(x, y -> f)", "~f"});
    maps.push_back({" fuse(x, y -> f)", "f"});
  }
  if (order == 3) {
    maps.push_back({" fuse(x, y -> g) fuse(g, z -> h)", "~h"});
    maps.push_back({" fuse(y, z -> f)", "~f"});
  }
  std::vector<std::string> out;
  for (const auto& [fusions, var] : maps) {
    if (grid_rank == 1) {
      out.push_back(lhs + fusions + " -> M(" + var + ")");
    } else {
      out.push_back(lhs + fusions + " -> M(" + var + ", q)");
      out.push_back(lhs + fusions + " -> M(q, " + var + ")");
    }
  }
  out.push_back(lhs + (grid_rank == 1 ? " -> M(q)" : " -> M(q, r)"));
  if (order >= 2) {
    out.push_back(lhs + " -> M(x, y)");
    out.push_back(lhs + " -> M(y, x)");
  }
  out.push_back(order == 1 ? "T(x, y) -> M(x)" : "T(x) -> M(x)");
  return out;
}

TEST_P(PlacementReference, SparseFormatsMatch) {
  const std::vector<std::pair<std::string, fmt::Format>> formats = {
      {"csr", fmt::csr()},     {"csc", fmt::csc()},   {"dcsr", fmt::dcsr()},
      {"coo2", fmt::coo(2)},   {"coo3", fmt::coo(3)}, {"csf", fmt::csf3()},
      {"ddc", fmt::ddc3()}};
  for (const auto& [name, format] : formats) {
    const Coo coo = random_coo(format.order());
    const fmt::TensorStorage st = fmt::pack("T", format, coo.dims, coo);
    SCOPED_TRACE(name + " nnz " + std::to_string(st.nnz()));
    for (const rt::Machine& machine : machines()) {
      for (const std::string& stmt :
           statements(format.order(), machine.grid().ndims())) {
        expect_matches_reference(st, stmt, machine);
      }
    }
  }
}

// Dense rows, columns, tiles and replication, on vectors and matrices.
TEST_P(PlacementReference, DenseTilesMatch) {
  for (int order : {1, 2}) {
    Coo coo = random_coo(order);
    const fmt::Format format =
        order == 1 ? fmt::dense_vector() : fmt::dense_matrix();
    const fmt::TensorStorage st = fmt::pack("T", format, coo.dims, coo);
    for (const rt::Machine& machine : machines()) {
      const int rank = machine.grid().ndims();
      for (const std::string& stmt : statements(order, rank)) {
        expect_matches_reference(st, stmt, machine);
      }
      if (order == 2 && machine.grid().ndims() == 1) {
        // Placement strings naming two machine variables on a rank-1 grid.
        expect_matches_reference(st, "T(x, y) -> M(z, y)", machine);
      }
    }
  }
}

// The shared tiler against the former Figure 4c tiler over every small case:
// n, m <= 13 and px, py <= 6, more pieces than rows included.
TEST(PlacementReferenceGrid2, SharedTilerMatchesFormerTiler) {
  for (Coord n = 1; n <= 13; ++n) {
    for (Coord m = 1; m <= 13; ++m) {
      Coo coo;
      coo.dims = {n, m};
      const fmt::TensorStorage st =
          fmt::pack("A", fmt::dense_matrix(), {n, m}, coo);
      for (int px = 1; px <= 6; ++px) {
        for (int py = 1; py <= 6; ++py) {
          const std::vector<int> shape = {px, py};
          const rt::Partition got = rt::partition_by_bounds(
              st.vals()->space(),
              fmt::dense_tiles(
                  st, px * py,
                  {fmt::LevelCut{0, fmt::color_blocks(
                                        shape, 0, rt::equal_bounds(n, px))},
                   fmt::LevelCut{1, fmt::color_blocks(
                                        shape, 1, rt::equal_bounds(m, py))}}));
          expect_same_partition(
              got, ref_partition_grid2(st.vals()->space(), px, py),
              std::to_string(n) + "x" + std::to_string(m) + " on " +
                  std::to_string(px) + "x" + std::to_string(py));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementReference, ::testing::Range(0, 24));

}  // namespace
}  // namespace spdistal::tdn
