// Tests for the profile-guided calibration store (src/obs/calibrate.*) and
// its feedback loop into the auto-scheduler's analytic cost model: recorded
// leaf rates are robust (EWMA + outlier clamp), persist across processes
// through the versioned JSON file (a corrupt document merges nothing, an
// out-of-range entry is skipped alone), reach candidate pricing as
// calib.hits — and turning calibration off reproduces searched schedules
// exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "autosched/autosched.h"
#include "autosched/cost.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "obs/obs.h"

namespace spdistal {
namespace {

using rt::Coord;

rt::Machine cpu_machine(int nodes) {
  return rt::Machine(data::paper_machine_config(nodes), rt::Grid(nodes),
                     rt::ProcKind::CPU);
}

// Arms calibration + metrics for one test and restores the previous global
// state (and an empty rate store) on exit.
struct CalibGuard {
  bool prev_calib;
  bool prev_obs;
  CalibGuard()
      : prev_calib(obs::calibration_enabled()), prev_obs(obs::enabled()) {
    obs::set_calibration(true);
    obs::set_enabled(true);
    obs::Calibration::global().clear();
  }
  ~CalibGuard() {
    obs::Calibration::global().clear();
    obs::set_calibration(prev_calib);
    obs::set_enabled(prev_obs);
  }
};

struct BuiltStmt {
  Tensor out;
  Statement* stmt = nullptr;
};

BuiltStmt build_spmv(uint64_t seed) {
  IndexVar i("i"), j("j");
  const Coord n = 300;
  Tensor a("a", {n}, fmt::dense_vector());
  Tensor B("B", {n, n}, fmt::csr());
  Tensor c("c", {n}, fmt::dense_vector());
  B.from_coo(data::powerlaw_matrix(n, n, 4000, 1.3, seed));
  c.init_dense([](const auto& x) {
    return 1.0 + 0.01 * static_cast<double>(x[0] % 17);
  });
  BuiltStmt b;
  b.stmt = &(a(i) = B(i, j) * c(j));
  b.out = a;
  return b;
}

TEST(Calibrate, RecordedRatesAreLookedUpExactly) {
  CalibGuard guard;
  obs::Calibration& c = obs::Calibration::global();
  c.record("spmv_row", "CPU", 1e6, 2e6, 1e-3);
  auto r = c.lookup("spmv_row", "CPU");
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->wall_per_flop, 1e-9);
  EXPECT_DOUBLE_EQ(r->wall_per_byte, 5e-10);
  EXPECT_EQ(r->samples, 1u);
  EXPECT_FALSE(c.lookup("spmv_row", "GPU").has_value());
  EXPECT_FALSE(c.lookup("spmm_row", "CPU").has_value());
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(c.total_samples(), 1u);
}

TEST(Calibrate, EwmaClampsOutlierSamples) {
  CalibGuard guard;
  obs::Calibration& c = obs::Calibration::global();
  // Baseline rate 1e-9 s/flop, then a 1000x-slower outlier (a preempted
  // leaf). The clamp squeezes the outlier to 8x the current estimate before
  // the EWMA blends it: 0.8 * 1e-9 + 0.2 * 8e-9 = 2.4e-9 — not the 2e-7 an
  // unclamped EWMA would produce.
  c.record("spmv_row", "CPU", 1e6, 0, 1e-3);
  c.record("spmv_row", "CPU", 1e6, 0, 1.0);
  auto r = c.lookup("spmv_row", "CPU");
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->wall_per_flop, 2.4e-9, 1e-15);
  EXPECT_EQ(r->samples, 2u);
}

TEST(Calibrate, FamilyLookupFallsThroughTiers) {
  CalibGuard guard;
  obs::Calibration& c = obs::Calibration::global();
  c.record("spmv_row", "CPU", 1e6, 0, 1e-3);
  c.record("spmv_nz", "CPU", 1e6, 0, 3e-3);
  c.record("sddmm_nz", "CPU", 1e6, 0, 5e-3);
  // Tier 2: the case-insensitive family prefix "SpMV" blends exactly the two
  // spmv_* leaves, samples-weighted.
  auto fam = c.lookup_family("SpMV", "CPU");
  ASSERT_TRUE(fam.has_value());
  EXPECT_EQ(fam->samples, 2u);
  EXPECT_NEAR(fam->wall_per_flop, 2e-9, 1e-15);
  // Tier 3: a family nothing was measured for blends everything on the
  // processor kind.
  auto any = c.lookup_family("SpTTV", "CPU");
  ASSERT_TRUE(any.has_value());
  EXPECT_EQ(any->samples, 3u);
  // No measurements at all on this processor kind.
  EXPECT_FALSE(c.lookup_family("SpMV", "GPU").has_value());
}

TEST(Calibrate, JsonPersistRoundTrip) {
  CalibGuard guard;
  obs::Calibration& c = obs::Calibration::global();
  c.record("spmv_row", "CPU", 1e6, 2e6, 1e-3);
  c.record("sddmm_nz", "CPU", 4e6, 0, 2e-3);
  const std::string doc = c.json();
  EXPECT_NE(doc.find("\"version\": 1"), std::string::npos);

  // In-memory round trip through the versioned schema.
  c.clear();
  EXPECT_EQ(c.merge_json(doc), 2u);
  auto r = c.lookup("spmv_row", "CPU");
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->wall_per_flop, 1e-9);

  // File round trip (ctest runs in the build tree). load() merges
  // samples-weighted and counts calib.loaded_rates.
  const std::string path = "calib_test_roundtrip.json";
  ASSERT_TRUE(c.save(path));
  c.clear();
  const int64_t loaded_before =
      obs::Metrics::global().counter("calib.loaded_rates").value();
  ASSERT_TRUE(c.load(path));
  EXPECT_EQ(c.size(), 2u);
  EXPECT_GE(obs::Metrics::global().counter("calib.loaded_rates").value(),
            loaded_before + 2);
  r = c.lookup("sddmm_nz", "CPU");
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->wall_per_flop, 5e-10);
  std::remove(path.c_str());

  // An unknown schema version merges nothing.
  c.clear();
  EXPECT_EQ(c.merge_json("{\"version\": 99, \"rates\": {\"x|CPU\": "
                         "{\"wall_per_flop\": 1, \"samples\": 1}}}"),
            0u);
  EXPECT_EQ(c.size(), 0u);
}

// Kernel names become keys of the persisted JSON: json() escapes them and
// the reader decodes them, so quotes, backslashes and braces survive
// repeated save/merge cycles unchanged and lookup still finds the rates.
TEST(Calibrate, HostileKernelNamesRoundTrip) {
  CalibGuard guard;
  obs::Calibration& c = obs::Calibration::global();
  const std::vector<std::string> names = {"a\\b", "q\"x", "t\t{x}"};
  for (const std::string& n : names) c.record(n.c_str(), "CPU", 1e6, 0, 1e-3);
  std::string doc = c.json();
  for (int cycle = 0; cycle < 2; ++cycle) {
    c.clear();
    EXPECT_EQ(c.merge_json(doc), names.size());
    for (const std::string& n : names) {
      auto r = c.lookup(n, "CPU");
      ASSERT_TRUE(r.has_value()) << n;
      EXPECT_DOUBLE_EQ(r->wall_per_flop, 1e-9) << n;
    }
    const std::string again = c.json();
    EXPECT_EQ(again, doc) << "cycle " << cycle;
    doc = again;
  }
}

// Two recorded kernels: "spmv_nz|CPU" is the document's first entry,
// "spmv_row|CPU" its second.
std::string two_entry_document() {
  obs::Calibration& c = obs::Calibration::global();
  c.record("spmv_nz", "CPU", 1e6, 2e6, 2e-3);
  c.record("spmv_row", "CPU", 1e6, 2e6, 1e-3);
  const std::string doc = c.json();
  c.clear();
  return doc;
}

// `doc` with the first entry's value of `field` replaced by `value`.
std::string with_first(const std::string& doc, const std::string& field,
                       const std::string& value) {
  const std::string needle = "\"" + field + "\": ";
  const size_t at = doc.find(needle) + needle.size();
  std::string out = doc;
  out.replace(at, doc.find_first_of(",}", at) - at, value);
  return out;
}

// A document that is not JSON merges nothing: a file cut off inside its
// second entry must not apply its first, and a rate JSON cannot express
// (nan, inf) or one outside double's range rejects the document.
TEST(Calibrate, CorruptDocumentsMergeNothing) {
  CalibGuard guard;
  obs::Calibration& c = obs::Calibration::global();
  const std::string doc = two_entry_document();
  ASSERT_EQ(c.merge_json(doc), 2u);
  c.clear();

  const std::string truncated = doc.substr(0, doc.find("spmv_row") + 20);
  EXPECT_EQ(c.merge_json(truncated), 0u);
  EXPECT_EQ(c.size(), 0u);
  const std::string path = "calib_test_truncated.json";
  {
    std::ofstream out(path, std::ios::trunc);
    out << truncated;
  }
  EXPECT_TRUE(c.load(path));
  EXPECT_EQ(c.size(), 0u);
  std::remove(path.c_str());

  for (const std::string bad : {"nan", "-nan", "inf", "1e999"}) {
    EXPECT_EQ(c.merge_json(with_first(doc, "wall_per_flop", bad)), 0u) << bad;
    EXPECT_EQ(c.size(), 0u) << bad;
  }
}

// Entries are checked one by one: a negative or mistyped rate, or a
// samples count that is not an integer in [1, 2^53], skips that entry
// alone and the rest of the document still merges.
TEST(Calibrate, OutOfRangeEntriesAreSkippedAlone) {
  CalibGuard guard;
  obs::Calibration& c = obs::Calibration::global();
  const std::string doc = two_entry_document();
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"wall_per_flop", "-1e-9"}, {"wall_per_byte", "-1"},
      {"wall_per_flop", "\"1e-9\""}, {"samples", "0"},
      {"samples", "-3"},          {"samples", "2.5"},
      {"samples", "1e30"},        {"samples", "9007199254740994"},
      {"samples", "null"}};
  for (const auto& [field, value] : bad) {
    c.clear();
    EXPECT_EQ(c.merge_json(with_first(doc, field, value)), 1u)
        << field << ": " << value;
    EXPECT_FALSE(c.lookup("spmv_nz", "CPU").has_value()) << value;
    EXPECT_TRUE(c.lookup("spmv_row", "CPU").has_value()) << value;
  }
  // The largest count that is still exact in a double loads.
  c.clear();
  EXPECT_EQ(c.merge_json(with_first(doc, "samples", "9007199254740992")), 2u);
  EXPECT_EQ(c.lookup("spmv_nz", "CPU")->samples, uint64_t{1} << 53);
}

TEST(Calibrate, LearnedRatesPriceAutoschedCandidates) {
  CalibGuard guard;
  obs::Calibration& c = obs::Calibration::global();
  // Measured leaves for the statement's kernel family ("SpMV" matches
  // "spmv_row" case-insensitively in the family tier).
  c.record("spmv_row", "CPU", 1e6, 2e6, 1e-3);
  BuiltStmt b = build_spmv(11);
  autosched::Recipe recipe;
  recipe.pieces = 2;
  obs::Counter& hits = obs::Metrics::global().counter("calib.hits");
  const int64_t before = hits.value();
  const double priced =
      autosched::analytic_estimate(*b.stmt, recipe, cpu_machine(2));
  EXPECT_GT(priced, 0.0);
  EXPECT_GT(hits.value(), before);

  // With nothing learned on the processor kind the model falls back to the
  // static tables and counts a miss instead.
  c.clear();
  obs::Counter& misses = obs::Metrics::global().counter("calib.misses");
  const int64_t misses_before = misses.value();
  const double static_priced =
      autosched::analytic_estimate(*b.stmt, recipe, cpu_machine(2));
  EXPECT_GT(static_priced, 0.0);
  EXPECT_GT(misses.value(), misses_before);
}

TEST(Calibrate, SearchIsDeterministicWithCalibrationOff) {
  CalibGuard guard;
  BuiltStmt b1 = build_spmv(23);
  obs::set_calibration(false);
  autosched::PlanCache::global().clear();  // force a real search both times
  const autosched::Result r1 =
      autosched::autoschedule_search(*b1.stmt, cpu_machine(2));
  // Populate learned rates in between; with calibration forced off they must
  // not leak into the second search.
  obs::set_calibration(true);
  obs::Calibration::global().record("spmv_row", "CPU", 1e6, 2e6, 1e-3);
  obs::set_calibration(false);
  BuiltStmt b2 = build_spmv(23);
  autosched::PlanCache::global().clear();
  const autosched::Result r2 =
      autosched::autoschedule_search(*b2.stmt, cpu_machine(2));
  EXPECT_FALSE(r1.from_cache);
  EXPECT_FALSE(r2.from_cache);
  EXPECT_EQ(r1.schedule.str(), r2.schedule.str());
  EXPECT_EQ(r1.recipe, r2.recipe);
  EXPECT_DOUBLE_EQ(r1.best_cost, r2.best_cost);
}

}  // namespace
}  // namespace spdistal
