// Tests for the persistent plan service (src/autosched/plan_store.*,
// src/autosched/cache.*): the versioned JSON store round-trips every recipe
// field, corrupt, too deeply nested or version-mismatched documents are
// rejected wholesale, an entry with a hostile number is skipped alone, a
// warm process compiles with zero searches, the exit-time save still reads
// a live cache whichever plan-service call came first, concurrent writers
// sharing one file lose no entries, lookups match the key exactly,
// concurrent Runtimes sharing one store are race-free, set_plan_store(false)
// restores bit-identical searched schedules, a stored recipe the search
// could not have emitted is searched again, and files older builds wrote
// still load.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "autosched/autosched.h"
#include "autosched/plan_store.h"
#include "common/str_util.h"
#include "compiler/lower.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "tensor/dense_ref.h"

namespace spdistal::autosched {
namespace {

using rt::Coord;

rt::Machine cpu_machine(int nodes) {
  return rt::Machine(data::paper_machine_config(nodes), rt::Grid(nodes),
                     rt::ProcKind::CPU);
}

// Arms the plan service for one test (clean cache, store on) and restores
// the previous global state on exit.
struct StoreGuard {
  bool prev_on;
  StoreGuard() : prev_on(plan_store_enabled()) {
    PlanCache::global().clear();
    set_plan_store(true);
  }
  ~StoreGuard() {
    PlanCache::global().clear();
    set_plan_store(prev_on);
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

// A pattern-bearing fingerprint with deterministic sketch content.
data::SparsityFingerprint pattern_fp(int64_t nnz) {
  data::SparsityFingerprint fp;
  fp.dims = {100, 100};
  fp.has_pattern = true;
  fp.nnz = nnz;
  for (int b = 0; b < data::SparsityFingerprint::kHistBuckets; ++b) {
    fp.hist[static_cast<size_t>(b)] = nnz / 16;
  }
  fp.degree[3] = 100;
  return fp;
}

StoredPlan make_entry(const std::string& structural, const Recipe& r,
                      const std::vector<data::SparsityFingerprint>& fps,
                      double cost) {
  StoredPlan e;
  e.structural = structural;
  e.sig = data::fingerprints_str(fps);
  e.plan = CachedPlan{r, cost, false};
  return e;
}

void write_file(const std::string& path, const std::string& doc) {
  std::ofstream out(path, std::ios::trunc);
  out << doc;
}

// --- serialization ------------------------------------------------------------

TEST(PlanStore, JsonRoundTripPreservesEveryRecipeField) {
  Recipe universe;
  universe.position_space = false;
  universe.pieces = 4;
  universe.pieces_y = 2;
  universe.pieces_z = 2;
  universe.communicate_all = true;
  universe.unit = sched::ParallelUnit::CPUThread;

  Recipe pos;
  pos.position_space = true;
  pos.pieces = 8;
  pos.split_tensor = "B";
  pos.fuse_depth = 2;
  pos.unit = sched::ParallelUnit::GPUWarp;

  Recipe minimal;  // defaults: 1 piece, no unit

  // Structural halves carry format signatures with JSON-hostile punctuation
  // ({}, [], quotes, backslashes) — the codec must escape them losslessly.
  const std::string s1 = "a(i)=B(i,j)*c(j);B:{d,s}ord[0,1];m:CPUx4";
  const std::string s2 = "odd \"quoted\" and back\\slashed key";
  const std::vector<StoredPlan> in = {
      make_entry(s1, universe, {data::dense_fingerprint({300}),
                                pattern_fp(4000)}, 1.25e-3),
      make_entry(s2, pos, {pattern_fp(777)}, 3.5e-2),
      make_entry("minimal", minimal, {data::dense_fingerprint({7, 9})}, 0.0),
  };
  const std::vector<StoredPlan> out = parse_plan_store(plan_store_json(in));
  ASSERT_EQ(out.size(), in.size());
  for (size_t k = 0; k < in.size(); ++k) {
    EXPECT_EQ(out[k].structural, in[k].structural) << k;
    EXPECT_EQ(out[k].sig, in[k].sig) << k;
    EXPECT_EQ(out[k].plan.recipe, in[k].plan.recipe) << k;
    EXPECT_DOUBLE_EQ(out[k].plan.cost, in[k].plan.cost) << k;
  }
}

TEST(PlanStore, CorruptDocumentsAreRejectedWholesale) {
  EXPECT_TRUE(parse_plan_store("").empty());
  EXPECT_TRUE(parse_plan_store("not json at all").empty());
  EXPECT_TRUE(parse_plan_store("{}").empty());  // no version field
  const std::string good = plan_store_json(
      {make_entry("k", Recipe{}, {pattern_fp(100)}, 1.0),
       make_entry("k2", Recipe{}, {pattern_fp(200)}, 2.0)});
  ASSERT_EQ(parse_plan_store(good).size(), 2u);
  // Structural damage anywhere poisons the whole document — a half-written
  // file must never be partially applied.
  EXPECT_TRUE(parse_plan_store(good.substr(0, good.size() / 2)).empty());
  std::string truncated = good;
  truncated.resize(truncated.find("k2") + 1);
  EXPECT_TRUE(parse_plan_store(truncated).empty());
}

TEST(PlanStore, UnknownSchemaVersionIsRejected) {
  std::string doc = plan_store_json(
      {make_entry("k", Recipe{}, {pattern_fp(100)}, 1.0)});
  const std::string needle = "\"version\": 2";
  const size_t at = doc.find(needle);
  ASSERT_NE(at, std::string::npos);
  doc.replace(at, needle.size(), "\"version\": 99");
  EXPECT_TRUE(parse_plan_store(doc).empty());
  // Below the readable floor is rejected too.
  std::string old = plan_store_json({});
  const size_t at0 = old.find(needle);
  ASSERT_NE(at0, std::string::npos);
  old.replace(at0, needle.size(), "\"version\": 0");
  EXPECT_TRUE(parse_plan_store(old).empty());
}

TEST(PlanStore, EntryFromNewerBuildIsSkippedAlone) {
  std::string doc = plan_store_json(
      {make_entry("k1", Recipe{}, {pattern_fp(100)}, 1.0),
       make_entry("k2", Recipe{}, {pattern_fp(200)}, 2.0)});
  // A parallel unit this build does not know: that entry is unusable, but
  // the rest of a well-formed document still loads.
  const std::string needle = "\"key\": \"k1\"";
  const size_t at = doc.find(needle);
  ASSERT_NE(at, std::string::npos);
  std::string mutated = doc;
  const std::string unit_needle = "\"unit\": \"\"";
  const size_t ua = mutated.find(unit_needle, at);
  ASSERT_NE(ua, std::string::npos);
  mutated.replace(ua, unit_needle.size(), "\"unit\": \"QPULane\"");
  const auto out = parse_plan_store(mutated);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].structural, "k2");
}

TEST(PlanStore, LoadRejectsMissingAndCorruptFiles) {
  StoreGuard guard;
  EXPECT_EQ(load_plan_store("definitely_missing_plan_store.json"), 0u);
  const std::string path = "test_plan_store_corrupt.json";
  write_file(path, "{\"version\": 1, \"plans\": [{\"key\": \"trunc");
  EXPECT_EQ(load_plan_store(path), 0u);
  EXPECT_EQ(PlanCache::global().size(), 0u);
  std::remove(path.c_str());
}

// Each count, flag and the cost is checked per entry. A value JSON can
// express but the recipe cannot hold — a fraction, a count outside int
// range, a flag other than 0 or 1, a string or null, or a missing field —
// skips that entry alone; a token JSON does not have (nan, inf, 01, +1)
// or a number outside double's range rejects the whole document.
TEST(PlanStore, HostileNumbersSkipTheEntryAlone) {
  const std::string doc = plan_store_json(
      {make_entry("k1", Recipe{}, {pattern_fp(100)}, 1.0),
       make_entry("k2", Recipe{}, {pattern_fp(200)}, 2.0)});
  const size_t k1 = doc.find("\"key\": \"k1\"");
  ASSERT_NE(k1, std::string::npos);
  // `doc` with k1's value of `field` replaced by `value`.
  auto with = [&](const std::string& field, const std::string& value) {
    const std::string needle = "\"" + field + "\": ";
    const size_t at = doc.find(needle, k1) + needle.size();
    std::string out = doc;
    out.replace(at, doc.find_first_of(",}", at) - at, value);
    return out;
  };
  auto expect_only_k2 = [&](const std::string& mutated) {
    const auto out = parse_plan_store(mutated);
    ASSERT_EQ(out.size(), 1u) << mutated;
    EXPECT_EQ(out[0].structural, "k2");
  };
  for (const std::string field : {"pieces", "py", "pz", "fuse"}) {
    for (const std::string value :
         {"3.7", "1e300", "2147483648", "-2147483649", "\"4\"", "null"}) {
      expect_only_k2(with(field, value));
    }
  }
  for (const std::string field : {"pos", "comm"}) {
    for (const std::string value : {"2", "-1", "0.5", "true"}) {
      expect_only_k2(with(field, value));
    }
  }
  expect_only_k2(with("cost", "\"1\""));
  std::string missing = doc;
  const std::string pieces = "\"pieces\": 1, ";
  missing.erase(missing.find(pieces, k1), pieces.size());
  expect_only_k2(missing);

  for (const std::string value :
       {"nan", "inf", "-inf", "01", "+1", "0x10", "1e999"}) {
    EXPECT_TRUE(parse_plan_store(with("pieces", value)).empty()) << value;
  }
  // Integral spellings of a count are still counts.
  for (const std::string value : {"4.0", "4e0", "0.4e1"}) {
    const auto out = parse_plan_store(with("pieces", value));
    ASSERT_EQ(out.size(), 2u) << value;
    EXPECT_EQ(out[0].plan.recipe.pieces, 4) << value;
  }
}

// An unknown field is ignored only while it is JSON within the nesting
// limit: one holding 100,000 nested arrays rejects the document, without
// recursing 100,000 levels deep.
TEST(PlanStore, DeeplyNestedFieldRejectsTheDocument) {
  StoreGuard guard;
  const std::string doc =
      plan_store_json({make_entry("k", Recipe{}, {pattern_fp(100)}, 1.0)});
  const size_t at = doc.find("\"key\": ");
  ASSERT_NE(at, std::string::npos);
  std::string shallow = doc;
  shallow.insert(at, "\"extra\": [[{\"a\": [1]}]], ");
  EXPECT_EQ(parse_plan_store(shallow).size(), 1u);

  constexpr size_t kDepth = 100000;
  std::string deep = doc;
  deep.insert(at, "\"extra\": " + std::string(kDepth, '[') +
                      std::string(kDepth, ']') + ", ");
  EXPECT_TRUE(parse_plan_store(deep).empty());
  const std::string path = "test_plan_store_deep.json";
  write_file(path, deep);
  EXPECT_EQ(load_plan_store(path), 0u);
  EXPECT_EQ(PlanCache::global().size(), 0u);
  std::remove(path.c_str());
}

// --- warm-process serving -----------------------------------------------------

TEST(PlanStore, WarmProcessCompilesWithZeroSearches) {
  StoreGuard guard;
  const rt::Machine m = cpu_machine(4);
  const std::string path = "test_plan_store_warm.json";
  std::remove(path.c_str());

  BuiltStmt a = build_spmv(3);
  const Result cold = autoschedule_search(*a.stmt, m);
  EXPECT_FALSE(cold.from_cache);
  EXPECT_GT(cold.enumerated, 0);
  ASSERT_TRUE(save_plan_store(path));

  // A warm sibling process: empty cache, store loaded from disk.
  PlanCache::global().clear();
  ASSERT_GE(load_plan_store(path), 1u);
  EXPECT_GE(PlanCache::global().loaded(), 1);

  BuiltStmt b = build_spmv(3);  // fresh tensors, same logical computation
  const Result warm = autoschedule_search(*b.stmt, m);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(warm.enumerated, 0);
  EXPECT_EQ(warm.simulated, 0);
  EXPECT_EQ(warm.recipe, cold.recipe);
  EXPECT_GE(PlanCache::global().hits(), 1);

  // The served schedule must still compute the right answer.
  rt::Runtime runtime(m);
  auto inst = comp::CompiledKernel::compile(*b.stmt, warm.schedule, m)
                  .instantiate(runtime);
  inst->run(1);
  EXPECT_LE(ref::max_abs_diff(b.out, ref::eval(*b.stmt)), 1e-10);
  std::remove(path.c_str());
}

// A process whose first plan-service call is set_plan_store(), with
// SPDISTAL_PLAN_STORE naming a file that does not exist yet, registers the
// exit-time save before the cache is first used. The save must still read
// a live cache when that process exits normally. The scenario runs in a
// child that re-executes this binary (threadsafe death-test style), so it
// starts with fresh statics; the parent then reads the file it wrote.
TEST(PlanStore, ExitTimeSaveOutlivesTheCache) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const rt::Machine m = cpu_machine(4);
  const std::string path = "test_plan_store_exit_order.json";
  std::remove(path.c_str());
  const char* prev = std::getenv("SPDISTAL_PLAN_STORE");
  const std::string prev_path = prev != nullptr ? prev : "";
  setenv("SPDISTAL_PLAN_STORE", path.c_str(), 1);
  EXPECT_EXIT(
      {
        set_plan_store(true);
        BuiltStmt a = build_spmv(13);
        autoschedule_search(*a.stmt, m);
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
  if (prev != nullptr) {
    setenv("SPDISTAL_PLAN_STORE", prev_path.c_str(), 1);
  } else {
    unsetenv("SPDISTAL_PLAN_STORE");
  }

  std::string doc;
  {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "the child wrote no store";
    doc.assign(std::istreambuf_iterator<char>(in), {});
  }
  std::remove(path.c_str());
  const std::vector<StoredPlan> stored = parse_plan_store(doc);
  ASSERT_EQ(stored.size(), 1u) << doc;

  // The one entry is the child's searched plan, under its real key.
  StoreGuard guard;
  BuiltStmt b = build_spmv(13);
  const PlanKey key = plan_key(*b.stmt, m);
  EXPECT_EQ(stored[0].structural, key.structural);
  EXPECT_EQ(stored[0].sig, key.sig);
  EXPECT_EQ(stored[0].plan.recipe, autoschedule_search(*b.stmt, m).recipe);
}

TEST(PlanStore, ConcurrentWritersUnionThroughOneFile) {
  StoreGuard guard;
  const std::string path = "test_plan_store_union.json";
  std::remove(path.c_str());

  // Writer 1 persists entry A.
  Recipe ra;
  ra.pieces = 2;
  PlanCache::global().insert_stored(
      {make_entry("shape-A", ra, {pattern_fp(100)}, 1.0)});
  ASSERT_TRUE(save_plan_store(path));

  // Writer 2 (a sibling process that never saw A) persists entry B to the
  // same file: the save re-reads, unions, and loses nothing.
  PlanCache::global().clear();
  Recipe rb;
  rb.pieces = 8;
  PlanCache::global().insert_stored(
      {make_entry("shape-B", rb, {pattern_fp(200)}, 2.0)});
  ASSERT_TRUE(save_plan_store(path));

  PlanCache::global().clear();
  EXPECT_EQ(load_plan_store(path), 2u);
  EXPECT_EQ(PlanCache::global().size(), 2u);

  // On a key collision the in-memory entry (fresher) wins over the disk one.
  PlanCache::global().clear();
  Recipe ra2;
  ra2.pieces = 16;
  PlanCache::global().insert_stored(
      {make_entry("shape-A", ra2, {pattern_fp(100)}, 9.0)});
  ASSERT_TRUE(save_plan_store(path));
  PlanCache::global().clear();
  EXPECT_EQ(load_plan_store(path), 2u);
  bool saw_a = false;
  for (const StoredPlan& e : PlanCache::global().entries()) {
    if (e.structural == "shape-A") {
      saw_a = true;
      EXPECT_EQ(e.plan.recipe.pieces, 16);
    }
  }
  EXPECT_TRUE(saw_a);
  std::remove(path.c_str());
}

// --- fingerprints -------------------------------------------------------------

TEST(PlanStore, FingerprintEncodingSeparatesShapes) {
  const auto fp = pattern_fp(1000);
  // Different dimensionality, or pattern vs structural-only of the same
  // dims, encode (and therefore key) differently.
  EXPECT_NE(fp.str(), data::dense_fingerprint({100}).str());
  EXPECT_NE(fp.str(), data::dense_fingerprint({100, 100}).str());
  // Round-trip through the canonical encoding is exact.
  const auto parsed = data::SparsityFingerprint::parse(fp.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, fp);
}

// --- concurrency --------------------------------------------------------------

// Concurrent Runtimes in one process sharing the global plan service:
// threads search (warm store hits), insert fresh synthetic plans, and
// save/load the same file. Run under TSan in CI; values checked here.
TEST(PlanStore, ConcurrentRuntimesShareOneStoreCleanly) {
  StoreGuard guard;
  const rt::Machine m = cpu_machine(2);
  const std::string path = "test_plan_store_conc.json";
  std::remove(path.c_str());

  // One cold search seeds the store.
  BuiltStmt seed = build_spmv(11);
  const Result cold = autoschedule_search(*seed.stmt, m);
  ASSERT_TRUE(save_plan_store(path));
  PlanCache::global().clear();
  ASSERT_GE(load_plan_store(path), 1u);

  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  std::vector<int> warm_hits(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int it = 0; it < 3; ++it) {
        // Each iteration: its own Runtime compiling the shared shape.
        BuiltStmt b = build_spmv(11);
        const Result r = autoschedule_search(*b.stmt, m);
        if (r.from_cache) ++warm_hits[static_cast<size_t>(t)];
        rt::Runtime runtime(m);
        auto inst =
            comp::CompiledKernel::compile(*b.stmt, r.schedule, m)
                .instantiate(runtime);
        inst->run(1);
        EXPECT_LE(ref::max_abs_diff(b.out, ref::eval(*b.stmt)), 1e-10);
        // Interleave service traffic: fresh inserts and file round-trips.
        Recipe synth;
        synth.pieces = 2 + t;
        PlanCache::global().insert(
            PlanKey{strprintf("synthetic-%d-%d", t, it),
                    data::fingerprints_str({pattern_fp(100 + t)})},
            synth, 1.0);
        if (t % 2 == 0) {
          save_plan_store(path);
        } else {
          load_plan_store(path);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  // Every search after the seed was served warm from the shared store.
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(warm_hits[static_cast<size_t>(t)], 3) << "thread " << t;
  }
  EXPECT_EQ(PlanCache::global().misses(), 0);
  BuiltStmt check = build_spmv(11);
  EXPECT_EQ(autoschedule_search(*check.stmt, m).recipe, cold.recipe);
  std::remove(path.c_str());
}

// --- bit-identity with the store disabled -------------------------------------

TEST(PlanStore, DisabledStoreRestoresSearchedSchedules) {
  StoreGuard guard;
  const rt::Machine m = cpu_machine(4);

  // Baseline: two cold full searches are deterministic and bit-identical.
  BuiltStmt a = build_spmv(7);
  set_plan_store(false);
  const Result base = autoschedule_search(*a.stmt, m);
  EXPECT_FALSE(base.from_cache);
  PlanCache::global().clear();
  const Result again = autoschedule_search(*a.stmt, m);
  EXPECT_EQ(again.recipe, base.recipe);
  EXPECT_EQ(again.schedule.str(), base.schedule.str());
  EXPECT_EQ(again.best_cost, base.best_cost);

  // Poison the cache with a *stored* entry for this exact key whose recipe
  // differs from the searched winner.
  const PlanKey key = plan_key(*a.stmt, m);
  Recipe poison = base.recipe;
  poison.pieces = base.recipe.pieces == 2 ? 4 : 2;
  StoredPlan sp;
  sp.structural = key.structural;
  sp.sig = key.sig;
  sp.plan = CachedPlan{poison, 123.0, false};
  PlanCache::global().clear();
  ASSERT_EQ(PlanCache::global().insert_stored({sp}), 1u);

  // Store on: the poisoned entry is served.
  set_plan_store(true);
  const Result served = autoschedule_search(*a.stmt, m);
  EXPECT_TRUE(served.from_cache);
  EXPECT_EQ(served.recipe, poison);

  // Store off: the stored entry is invisible; the full search reproduces
  // the bit-identical baseline even though the entry is still cached.
  set_plan_store(false);
  const Result fresh = autoschedule_search(*a.stmt, m);
  EXPECT_FALSE(fresh.from_cache);
  EXPECT_EQ(fresh.recipe, base.recipe);
  EXPECT_EQ(fresh.schedule.str(), base.schedule.str());
  set_plan_store(true);

  // Lookups match the key exactly: a nearby fingerprint misses, a different
  // structural half never matches, and exact hits on plans searched in this
  // process survive set_plan_store(false).
  PlanCache& cache = PlanCache::global();
  cache.clear();
  Recipe r;
  r.pieces = 4;
  const PlanKey key_a{"same-structural",
                      data::fingerprints_str({pattern_fp(1000)})};
  const PlanKey key_b{"same-structural",
                      data::fingerprints_str({pattern_fp(1150)})};
  const PlanKey other{"other-structural", key_a.sig};
  cache.insert(key_a, r, 1.0);
  const auto any = [](const Recipe&) { return true; };
  auto exact = cache.lookup(key_a, any);
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->recipe, r);
  EXPECT_FALSE(cache.lookup(key_b, any).has_value());
  EXPECT_FALSE(cache.lookup(other, any).has_value());
  set_plan_store(false);
  EXPECT_TRUE(cache.lookup(key_a, any).has_value());
}

// --- stored recipes outside the search space ----------------------------------

// Replaces the value of the first `"field": ` in `doc` with `value`.
std::string with_field(const std::string& doc, const std::string& field,
                       const std::string& value) {
  const std::string needle = "\"" + field + "\": ";
  const size_t at = doc.find(needle);
  if (at == std::string::npos) return doc;
  const size_t from = at + needle.size();
  std::string out = doc;
  out.replace(from, doc.find_first_of(",}", from) - from, value);
  return out;
}

// A stored entry is outside input. One whose recipe the search could not
// have emitted on this machine (more pieces than kOverdecompose per
// processor, or a unit the machine's processor kind does not offer) is not
// served: the search runs, returns the recipe a cold search finds, and
// replaces the entry, so the next lookup hits.
TEST(PlanStore, StoredRecipeOutsideSearchSpaceIsSearched) {
  StoreGuard guard;
  const rt::Machine m = cpu_machine(4);
  const std::string path = "test_plan_store_space.json";
  BuiltStmt a = build_spmv(5);
  const Result cold = autoschedule_search(*a.stmt, m);
  ASSERT_FALSE(cold.from_cache);
  ASSERT_TRUE(in_search_space(cold.recipe, m));
  const std::string saved = plan_store_json(PlanCache::global().entries());

  for (const auto& [field, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"pieces", "100000000"},
           {"pieces", "5000"},
           {"unit", "\"GPUThread\""}}) {
    const std::string doc = with_field(saved, field, value);
    ASSERT_NE(doc, saved) << field;
    write_file(path, doc);
    PlanCache::global().clear();
    ASSERT_EQ(load_plan_store(path), 1u) << value;
    const Recipe stored = PlanCache::global().entries().at(0).plan.recipe;
    EXPECT_FALSE(in_search_space(stored, m)) << value;

    BuiltStmt b = build_spmv(5);
    const Result searched = autoschedule_search(*b.stmt, m);
    EXPECT_FALSE(searched.from_cache) << value;
    EXPECT_GT(searched.enumerated, 0) << value;
    EXPECT_EQ(searched.recipe, cold.recipe) << value;
    EXPECT_EQ(PlanCache::global().hits(), 0) << value;
    EXPECT_EQ(PlanCache::global().misses(), 1) << value;

    const Result next = autoschedule_search(*b.stmt, m);
    EXPECT_TRUE(next.from_cache) << value;
    EXPECT_EQ(next.recipe, cold.recipe) << value;
    EXPECT_EQ(PlanCache::global().hits(), 1) << value;
  }
  std::remove(path.c_str());
}

// --- schema compatibility -----------------------------------------------------

// Files older builds wrote still load: v1 documents, and v2 documents
// with the per-entry "used" stamps this build no longer writes (unknown
// fields are ignored).
TEST(PlanStore, V1DocumentsStillLoad) {
  StoreGuard guard;
  Recipe r;
  r.pieces = 4;
  const std::string doc =
      plan_store_json({make_entry("old-shape", r, {pattern_fp(100)}, 2.5)});
  std::string v1 = doc;
  const std::string vneedle = "\"version\": 2";
  const size_t at = v1.find(vneedle);
  ASSERT_NE(at, std::string::npos);
  v1.replace(at, vneedle.size(), "\"version\": 1");
  std::string stamped = doc;
  const size_t pos = stamped.find("\"pos\": ");
  ASSERT_NE(pos, std::string::npos);
  stamped.insert(pos, "\"used\": 7, ");
  for (const std::string& old : {v1, stamped}) {
    const auto parsed = parse_plan_store(old);
    ASSERT_EQ(parsed.size(), 1u) << old;
    EXPECT_EQ(parsed[0].structural, "old-shape");
    EXPECT_EQ(parsed[0].plan.recipe, r);
    EXPECT_DOUBLE_EQ(parsed[0].plan.cost, 2.5);

    PlanCache::global().clear();
    const std::string path = "test_plan_store_old.json";
    write_file(path, old);
    EXPECT_EQ(load_plan_store(path), 1u);
    EXPECT_EQ(PlanCache::global().size(), 1u);
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace spdistal::autosched
