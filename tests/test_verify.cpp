// Fault-injection tests for src/verify/: the privilege checker and the
// dependence-race auditor must each catch a deliberately seeded violation
// with an actionable message — and stay silent (and cheap) on correct
// programs. Schedule errors are compile's (test_compiler.cpp,
// ScheduleErrors).
#include <gtest/gtest.h>

#include "compiler/lower.h"
#include "data/generators.h"
#include "kernels/assembly.h"
#include "kernels/leaf_kernels.h"
#include "runtime/region.h"
#include "runtime/runtime.h"
#include "runtime/touch_log.h"
#include "verify/verify.h"

namespace spdistal {
namespace {

using rt::Coord;
using rt::IndexLaunch;
using rt::IndexSpace;
using rt::Machine;
using rt::Partition;
using rt::Privilege;
using rt::RectN;
using rt::RegionReq;
using rt::Runtime;
using rt::TaskContext;
using rt::WorkEstimate;

Machine cpu_machine(int nodes) {
  rt::MachineConfig cfg;
  cfg.nodes = nodes;
  return Machine(cfg, rt::Grid(nodes), rt::ProcKind::CPU);
}

// Arms the verifiers for one test and restores the previous global state on
// exit (other suites in the process may run with them off).
struct VerifyGuard {
  bool prev;
  VerifyGuard() : prev(verify::enabled()) { verify::set_enabled(true); }
  ~VerifyGuard() { verify::set_enabled(prev); }
};

// --- privilege checker -------------------------------------------------------

TEST(VerifyPrivilege, CatchesOutOfSubsetWrite) {
  VerifyGuard guard;
  Machine m = cpu_machine(2);
  Runtime rt(m, 1);
  auto r = rt.create_region<double>(IndexSpace(100), "out");
  Partition p = rt::partition_equal(r->space(), 2);
  IndexLaunch launch;
  launch.name = "escape";
  launch.domain = 2;
  launch.reqs = {RegionReq{r, &p, Privilege::WO}};
  // Seeded defect: every point writes the whole region, not just its half.
  launch.body = [&](const TaskContext&) {
    for (Coord x = 0; x < 100; ++x) (*r)[x] = 1.0;
    return WorkEstimate{100, 800};
  };
  rt.execute(launch);
  try {
    rt.flush();
    FAIL() << "privilege checker missed an out-of-subset write";
  } catch (const VerifyError& e) {
    EXPECT_NE(std::string(e.what()).find("outside its declared subset"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("escape["), std::string::npos)
        << e.what();
  }
}

TEST(VerifyPrivilege, CatchesTouchOfUndeclaredRegion) {
  VerifyGuard guard;
  Machine m = cpu_machine(2);
  Runtime rt(m, 1);
  auto r = rt.create_region<double>(IndexSpace(64), "declared");
  auto q = rt.create_region<double>(IndexSpace(64), "undeclared");
  q->fill(0.0);
  rt.flush();
  Partition p = rt::partition_equal(r->space(), 2);
  IndexLaunch launch;
  launch.name = "stray";
  launch.domain = 2;
  launch.reqs = {RegionReq{r, &p, Privilege::WO}};
  launch.body = [&](const TaskContext& ctx) {
    const rt::IndexSubset s = ctx.subset(0);
    for (const auto& rect : s.rects()) {
      for (Coord x = rect.lo[0]; x <= rect.hi[0]; ++x) (*r)[x] = 1.0;
    }
    (*q)[0] = 1.0;  // seeded defect: region held by no RegionReq
    return WorkEstimate{32, 256};
  };
  rt.execute(launch);
  try {
    rt.flush();
    FAIL() << "privilege checker missed a touch of an undeclared region";
  } catch (const VerifyError& e) {
    EXPECT_NE(std::string(e.what()).find("no RegionReq"), std::string::npos)
        << e.what();
  }
}

TEST(VerifyPrivilege, CatchesWriteUnderReadOnly) {
  VerifyGuard guard;
  Machine m = cpu_machine(2);
  Runtime rt(m, 1);
  auto r = rt.create_region<double>(IndexSpace(50), "ro");
  r->fill(2.0);
  rt.flush();
  IndexLaunch launch;
  launch.name = "ro_writer";
  launch.domain = 1;
  launch.reqs = {RegionReq{r, nullptr, Privilege::RO}};
  // Seeded defect: mutation under a read-only requirement. The in-subset
  // write is invisible to the footprint check; the content fingerprint
  // taken before/after the launch catches it.
  launch.body = [&](const TaskContext&) {
    (*r)[7] = -1.0;
    return WorkEstimate{1, 8};
  };
  rt.execute(launch);
  try {
    rt.flush();
    FAIL() << "privilege checker missed a write under RO";
  } catch (const VerifyError& e) {
    EXPECT_NE(std::string(e.what()).find("read-only privilege"),
              std::string::npos)
        << e.what();
  }
}

TEST(VerifyPrivilege, CatchesInSubsetReadUnderWriteOnly) {
  VerifyGuard guard;
  Machine m = cpu_machine(2);
  Runtime rt(m, 1);
  auto r = rt.create_region<double>(IndexSpace(100), "wo_out");
  r->fill(0.0);
  rt.flush();
  Partition p = rt::partition_equal(r->space(), 2);
  IndexLaunch launch;
  launch.name = "wo_reader";
  launch.domain = 2;
  launch.reqs = {RegionReq{r, &p, Privilege::WO}};
  // Seeded defect: the body *reads* its own subset before writing it. The
  // footprint stays fully in-subset — only the read/write separation in the
  // touch log can see it.
  launch.body = [&](const TaskContext& ctx) {
    const rt::IndexSubset s = ctx.subset(0);
    const rt::RegionAccessor<double> acc(*r, rt::Access::Read);
    double sum = 0;
    for (const auto& rect : s.rects()) {
      for (Coord x = rect.lo[0]; x <= rect.hi[0]; ++x) sum += acc[x];
    }
    for (const auto& rect : s.rects()) {
      for (Coord x = rect.lo[0]; x <= rect.hi[0]; ++x) (*r)[x] = sum;
    }
    return WorkEstimate{100, 800};
  };
  rt.execute(launch);
  try {
    rt.flush();
    FAIL() << "privilege checker missed an in-subset read under WO";
  } catch (const VerifyError& e) {
    EXPECT_NE(std::string(e.what()).find("write-only privilege"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("wo_reader"), std::string::npos)
        << e.what();
  }
  // Control: the same body under RW privilege is legal (fresh runtime — the
  // one above threw mid-flush).
  Runtime rt2(m, 1);
  auto r2 = rt2.create_region<double>(IndexSpace(100), "rw_out");
  r2->fill(0.0);
  rt2.flush();
  Partition p2 = rt::partition_equal(r2->space(), 2);
  IndexLaunch ok;
  ok.name = "rw_reader";
  ok.domain = 2;
  ok.reqs = {RegionReq{r2, &p2, Privilege::RW}};
  ok.body = [&](const TaskContext& ctx) {
    const rt::IndexSubset s = ctx.subset(0);
    const rt::RegionAccessor<double> acc(*r2, rt::Access::Read);
    double sum = 0;
    for (const auto& rect : s.rects()) {
      for (Coord x = rect.lo[0]; x <= rect.hi[0]; ++x) sum += acc[x];
    }
    for (const auto& rect : s.rects()) {
      for (Coord x = rect.lo[0]; x <= rect.hi[0]; ++x) (*r2)[x] = sum;
    }
    return WorkEstimate{100, 800};
  };
  rt2.execute(ok);
  EXPECT_NO_THROW(rt2.flush());
}

// A point reads every other element of a 20,000-element region, declared as
// exactly those 10,000 one-element rects. Every touch is checked against
// the declaration, however scattered: one extra read between two declared
// elements is an error naming that element, in a message that does not
// print the declaration.
TEST(VerifyPrivilege, ScatteredFootprintIsExact) {
  VerifyGuard guard;
  Machine m = cpu_machine(1);
  auto run = [&](bool stray) {
    Runtime rt(m, 1);
    auto r = rt.create_region<double>(IndexSpace(20000), "scattered");
    r->fill(1.0);
    rt.flush();
    rt::IndexSubset evens(1);
    for (Coord x = 0; x < 20000; x += 2) evens.add(RectN::make1(x, x));
    const Partition p(r->space(), {evens});
    IndexLaunch launch;
    launch.name = "scatter";
    launch.domain = 1;
    launch.reqs = {RegionReq{r, &p, Privilege::RO}};
    launch.body = [r, stray](const TaskContext&) {
      const rt::RegionAccessor<double> acc(*r, rt::Access::Read);
      double sum = 0;
      for (Coord x = 0; x < 20000; x += 2) sum += acc[x];
      if (stray) sum += acc[9999];
      return WorkEstimate{sum, 80000};
    };
    rt.execute(launch);
    rt.flush();
  };
  const verify::Stats before = verify::stats();
  EXPECT_NO_THROW(run(false));
  EXPECT_EQ(verify::stats().violations, before.violations);
  EXPECT_EQ(verify::stats().warnings, before.warnings);
  try {
    run(true);
    FAIL() << "privilege checker missed a read between declared elements";
  } catch (const VerifyError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[9999..9999]"), std::string::npos) << what;
    EXPECT_LT(what.size(), 2048u) << what;
  }
  EXPECT_EQ(verify::stats().warnings, before.warnings);
}

// --- dependence-race auditor -------------------------------------------------

// Two points whose RW subsets overlap at element 50: the plan must order
// them with a conflict edge.
IndexLaunch overlapping_rw(std::shared_ptr<rt::Region<double>> r,
                           Partition& p) {
  IndexLaunch launch;
  launch.name = "overlap_rw";
  launch.domain = 2;
  launch.reqs = {RegionReq{r, &p, Privilege::RW}};
  launch.body = [r](const TaskContext& ctx) {
    const rt::IndexSubset s = ctx.subset(0);
    for (const auto& rect : s.rects()) {
      for (Coord x = rect.lo[0]; x <= rect.hi[0]; ++x) (*r)[x] += 1.0;
    }
    return WorkEstimate{50, 400};
  };
  return launch;
}

TEST(VerifyRace, CatchesDroppedConflictEdge) {
  VerifyGuard guard;
  Machine m = cpu_machine(2);
  Runtime rt(m, 1);
  auto r = rt.create_region<double>(IndexSpace(100), "acc");
  r->fill(0.0);
  Partition p = rt::partition_by_bounds(
      r->space(), {RectN::make1(0, 50), RectN::make1(50, 99)});
  const auto prepared = rt.prepare(overlapping_rw(r, p));
  rt.execute(prepared);  // audit passes
  rt.flush();
  ASSERT_TRUE(
      rt.inject_plan_fault(prepared, Runtime::PlanFault::DropConflictEdge));
  try {
    rt.execute(prepared);  // replays the corrupted plan
    FAIL() << "race auditor missed a dropped conflict edge";
  } catch (const VerifyError& e) {
    EXPECT_NE(std::string(e.what()).find("RACE"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("overlap_rw"), std::string::npos)
        << e.what();
  }
}

TEST(VerifyRace, WarnsOnSpuriousConflictEdge) {
  VerifyGuard guard;
  Machine m = cpu_machine(2);
  Runtime rt(m, 1);
  auto r = rt.create_region<double>(IndexSpace(100), "acc");
  r->fill(0.0);
  // Disjoint halves: no pair of points conflicts.
  Partition p = rt::partition_equal(r->space(), 2);
  IndexLaunch launch = overlapping_rw(r, p);
  launch.name = "disjoint_rw";
  const auto prepared = rt.prepare(launch);
  rt.execute(prepared);
  rt.flush();
  ASSERT_TRUE(
      rt.inject_plan_fault(prepared, Runtime::PlanFault::AddSpuriousEdge));
  const verify::Stats before = verify::stats();
  // Lost parallelism: warn, don't fail.
  EXPECT_NO_THROW(rt.execute(prepared));
  rt.flush();
  const verify::Stats after = verify::stats();
  EXPECT_GT(after.warnings, before.warnings);
  EXPECT_EQ(after.violations, before.violations);
}

// --- residency memo audit ----------------------------------------------------

// Two points reading the halves of `c`.
IndexLaunch halves_reader(std::shared_ptr<rt::Region<double>> c,
                          Partition& p) {
  IndexLaunch launch;
  launch.name = "halves_reader";
  launch.domain = 2;
  launch.reqs = {RegionReq{c, &p, Privilege::RO}};
  launch.body = [c](const TaskContext& ctx) {
    const rt::IndexSubset s = ctx.subset(0);
    const rt::RegionAccessor<double> acc(*c, rt::Access::Read);
    double sum = 0;
    for (const auto& rect : s.rects()) {
      for (Coord x = rect.lo[0]; x <= rect.hi[0]; ++x) sum += acc[x];
    }
    return WorkEstimate{sum, 400};
  };
  return launch;
}

// invalidate(c) bumps c's placement epoch, so the warm plan's residency
// slots no longer match and the next retire fetches again. A fault that
// re-stamps the slots with the current epochs makes the retire trust a
// residency that is gone: the audit must name the launch, point and region.
TEST(VerifyResidency, CatchesStaleResidencySlot) {
  VerifyGuard guard;
  Machine m = cpu_machine(2);
  auto run = [&](bool inject) {
    Runtime rt(m, 1);
    auto c = rt.create_region<double>(IndexSpace(100), "c_vec");
    c->fill(1.0);
    Partition p = rt::partition_equal(c->space(), 2);
    const auto prepared = rt.prepare(halves_reader(c, p));
    rt.execute(prepared);  // stamps both points' residency slots
    rt.flush();
    rt.invalidate(*c);
    if (inject) {
      EXPECT_TRUE(
          rt.inject_plan_fault(prepared, Runtime::PlanFault::StaleResidency));
    }
    rt.execute(prepared);  // replays the plan
    rt.flush();
  };
  // Control: without the fault the dropped placement misses the memo.
  const verify::Stats before = verify::stats();
  EXPECT_NO_THROW(run(false));
  EXPECT_EQ(verify::stats().violations, before.violations);
  try {
    run(true);
    FAIL() << "residency audit missed a stale memo slot";
  } catch (const VerifyError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("residency memo"), std::string::npos) << what;
    EXPECT_NE(what.find("halves_reader"), std::string::npos) << what;
    EXPECT_NE(what.find("point 0"), std::string::npos) << what;
    EXPECT_NE(what.find("c_vec"), std::string::npos) << what;
  }
}

// --- leaf kernels in verify mode ---------------------------------------------

// Every region of `t`'s storage: each level's pos and crd, then its vals.
std::vector<std::shared_ptr<rt::RegionBase>> regions_of(const Tensor& t) {
  std::vector<std::shared_ptr<rt::RegionBase>> out;
  const fmt::TensorStorage& st = t.storage();
  for (int l = 0; l < st.num_levels(); ++l) {
    if (st.level(l).pos) out.push_back(st.level(l).pos);
    if (st.level(l).crd) out.push_back(st.level(l).crd);
  }
  out.push_back(st.vals());
  return out;
}

// A real leaf, the tensors it reads and the one it writes, and the region
// whose declared subset the test cuts short: the last-level crd of one
// operand, which a whole piece reads to its last position.
struct LeafCase {
  std::string name;
  kern::Leaf leaf;
  std::vector<Tensor> operands;
  Tensor out;
  std::shared_ptr<rt::RegionBase> cut;
};

// leaf_cases()' names, in order: the test names, which gtest builds
// without running the builders.
constexpr const char* kLeafNames[] = {"spmv_row", "spmv_nz",  "spmm",
                                      "sddmm",    "spadd3_row", "spttv",
                                      "spmttkrp"};

std::vector<LeafCase> leaf_cases() {
  IndexVar i("i"), j("j"), k("k");
  auto matrix = [](const std::string& name, uint64_t seed) {
    Tensor t(name, {64, 64}, fmt::csr());
    t.from_coo(data::uniform_matrix(64, 64, 400, seed));
    return t;
  };
  auto dense = [](const std::string& name, std::vector<Coord> dims) {
    Tensor t(name, dims,
             dims.size() == 1 ? fmt::dense_vector() : fmt::dense_matrix());
    t.init_dense([](const auto& x) {
      return 1.0 + 0.25 * static_cast<double>(x[0] % 5);
    });
    return t;
  };
  auto last_crd = [](const Tensor& t) -> std::shared_ptr<rt::RegionBase> {
    return t.storage().level(t.storage().num_levels() - 1).crd;
  };
  std::vector<LeafCase> cases;
  {
    Tensor a = dense("a", {64}), B = matrix("B", 7), c = dense("c", {64});
    cases.push_back({"spmv_row", kern::make_spmv_row(a, B, c), {B, c}, a,
                     last_crd(B)});
    cases.push_back({"spmv_nz", kern::make_spmv_nz(a, B, c), {B, c}, a,
                     last_crd(B)});
  }
  {
    Tensor A = dense("A", {64, 8}), B = matrix("B", 8),
           C = dense("C", {64, 8});
    cases.push_back({"spmm", kern::make_spmm(A, B, C), {B, C}, A,
                     last_crd(B)});
  }
  {
    Tensor A("A", {64, 64}, fmt::csr()), B = matrix("B", 9),
        C = dense("C", {64, 6}), D = dense("D", {6, 64});
    kern::assemble_output(A(i, j) = B(i, j) * C(i, k) * D(k, j));
    cases.push_back({"sddmm", kern::make_sddmm(A, B, C, D), {B, C, D}, A,
                     last_crd(B)});
  }
  {
    Tensor A("A", {64, 64}, fmt::csr()), B = matrix("B", 10),
        C = matrix("C", 11), D = matrix("D", 12);
    kern::assemble_output(A(i, j) = B(i, j) + C(i, j) + D(i, j));
    cases.push_back({"spadd3_row", kern::make_spadd3_row(A, B, C, D),
                     {B, C, D}, A, last_crd(D)});
  }
  auto tensor3 = [] {
    Tensor t("B", {20, 15, 25}, fmt::csf3());
    t.from_coo(data::uniform_3tensor(20, 15, 25, 300, 5));
    return t;
  };
  {
    Tensor A("A", {20, 15}, fmt::csr()), B = tensor3(), c = dense("c", {25});
    kern::assemble_output(A(i, j) = B(i, j, k) * c(k));
    cases.push_back({"spttv", kern::make_spttv(A, B, c), {B, c}, A,
                     last_crd(B)});
  }
  {
    Tensor A = dense("A", {20, 4}), B = tensor3(), C = dense("C", {15, 4}),
           D = dense("D", {25, 4});
    cases.push_back({"spmttkrp", kern::make_spmttkrp(A, B, C, D), {B, C, D},
                     A, last_crd(B)});
  }
  return cases;
}

// Runs the case's leaf on the whole piece as the body of a one-point
// verify-mode launch. Every region is declared whole (operands and the
// output's pattern RO, the output's values RW); with `cut_short`, the cut
// region's subset ends one position before its last. Returns the launch's
// VerifyError message, or "" when it ran clean.
std::string run_verified(const LeafCase& c, bool cut_short) {
  Runtime rt(cpu_machine(1), 1);
  const Coord last = c.cut->space().bounds().hi[0];
  const Partition short_of_last(
      c.cut->space(), {rt::IndexSubset(RectN::make1(0, last - 1))});
  IndexLaunch launch;
  launch.name = c.name;
  launch.domain = 1;
  for (const Tensor& t : c.operands) {
    for (const auto& r : regions_of(t)) {
      const bool cut = cut_short && r == c.cut;
      launch.reqs.push_back(
          RegionReq{r, cut ? &short_of_last : nullptr, Privilege::RO});
    }
  }
  for (const auto& r : regions_of(c.out)) {
    launch.reqs.push_back(RegionReq{
        r, nullptr,
        r == c.out.storage().vals() ? Privilege::RW : Privilege::RO});
  }
  launch.body = [&c](const TaskContext&) {
    return c.leaf(kern::PieceBounds{});
  };
  try {
    rt.execute(launch);
    rt.flush();
  } catch (const VerifyError& e) {
    return e.what();
  }
  return "";
}

// Verify mode sees every leaf's touches: a leaf run in a verify-mode point
// task whose declared subset of one operand stops one element short of
// what the piece reads fails with the privilege checker's error naming
// that region. A leaf that ran its plain instantiation in verify mode
// would record nothing, or be refused when it built a plain accessor.
class VerifyLeafTouches : public ::testing::TestWithParam<int> {};

TEST_P(VerifyLeafTouches, ShortDeclaredSubsetIsCaught) {
  VerifyGuard guard;
  const std::vector<LeafCase> cases = leaf_cases();
  const LeafCase& c = cases.at(static_cast<size_t>(GetParam()));
  ASSERT_EQ(c.name, kLeafNames[GetParam()]);
  ASSERT_GT(c.cut->space().volume(), 1) << c.name;
  EXPECT_EQ(run_verified(c, false), "") << c.name << " with whole subsets";
  const std::string what = run_verified(c, true);
  EXPECT_NE(what.find("outside its declared subset"), std::string::npos)
      << c.name << ": " << what;
  EXPECT_NE(what.find("accessed " + c.cut->name() + " at"), std::string::npos)
      << c.name << ": " << what;
}

INSTANTIATE_TEST_SUITE_P(Leaves, VerifyLeafTouches, ::testing::Range(0, 7),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(kLeafNames[info.param]);
                         });

// A plain accessor (no touch recording) is refused on a thread that records
// touches, so a leaf cannot skip verification silently; the dispatch hands
// such a thread the recording instantiation.
TEST(TouchLog, PlainAccessorRefusedWhileRecording) {
  auto r = rt::make_region<double>(IndexSpace(8), "plain_target");
  r->fill(1.0);
  auto recording = [](auto rec) { return decltype(rec)::value; };
  EXPECT_FALSE(rt::with_touch_recording(recording));
  EXPECT_EQ((rt::RegionAccessor<double, 1, false>(*r, rt::Access::Read)[3]),
            1.0);
  rt::TouchLog log;
  {
    rt::ScopedTouchLog scope(&log);
    EXPECT_TRUE(rt::with_touch_recording(recording));
    try {
      const rt::RegionAccessor<double, 1, false> plain(*r, rt::Access::Read);
      FAIL() << "a plain accessor was built while recording, valid="
             << plain.valid();
    } catch (const VerifyError& e) {
      EXPECT_NE(std::string(e.what()).find("plain_target"), std::string::npos)
          << e.what();
    }
    EXPECT_NO_THROW(rt::RegionAccessor<double>(*r, rt::Access::Read));
  }
  EXPECT_FALSE(rt::with_touch_recording(recording));
}

// --- clean programs and the off switch ---------------------------------------

TEST(Verify, CleanLaunchesStaySilent) {
  VerifyGuard guard;
  Machine m = cpu_machine(2);
  Runtime rt(m, 1);
  auto r = rt.create_region<double>(IndexSpace(100), "acc");
  r->fill(0.0);
  Partition p = rt::partition_equal(r->space(), 2);
  const verify::Stats before = verify::stats();
  IndexLaunch launch = overlapping_rw(r, p);
  launch.name = "clean";
  const auto prepared = rt.prepare(launch);
  rt.execute(prepared);
  rt.execute(prepared);
  rt.flush();
  const verify::Stats after = verify::stats();
  EXPECT_EQ(after.violations, before.violations);
  // Every execution is audited, the replay too: 2 launches of 2 points
  // each.
  EXPECT_EQ(after.plans_checked - before.plans_checked, 2u);
  EXPECT_EQ(after.tasks_checked - before.tasks_checked, 4u);
}

TEST(Verify, DisabledModeChecksNothing) {
  const bool prev = verify::enabled();
  verify::set_enabled(false);
  Machine m = cpu_machine(2);
  Runtime rt(m, 1);
  auto r = rt.create_region<double>(IndexSpace(100), "acc");
  r->fill(0.0);
  Partition p = rt::partition_equal(r->space(), 2);
  const verify::Stats before = verify::stats();
  IndexLaunch launch = overlapping_rw(r, p);
  launch.name = "unverified";
  rt.execute(launch);
  rt.flush();
  const verify::Stats after = verify::stats();
  EXPECT_EQ(after.plans_checked, before.plans_checked);
  EXPECT_EQ(after.tasks_checked, before.tasks_checked);
  verify::set_enabled(prev);
}

}  // namespace
}  // namespace spdistal
