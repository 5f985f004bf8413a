#include "autosched/plan_store.h"

#include <atomic>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <utility>

#include "common/config.h"
#include "common/json.h"
#include "common/str_util.h"
#include "obs/persist.h"

namespace spdistal::autosched {

namespace {

// v2 added a per-entry "used" stamp, which this build neither writes nor
// reads. The version stays 2 so that builds which do read it still load
// these files; v1 and v2 files both load here.
constexpr int kSchemaVersion = 2;
constexpr int kOldestReadableVersion = 1;

std::atomic<bool> g_enabled{true};
std::once_flag g_load_once;

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  out += json_escape(s);
  out += '"';
}

// Reads one plan entry. Returns false (entry skipped) if a field is missing
// or has the wrong type, a count is not an integer in int range, a flag is
// not 0 or 1, the sig does not parse, or the unit is unknown to this build.
// Fields this build does not read are ignored.
bool read_entry(const json::Value& v, StoredPlan* e) {
  auto text = [&](const char* f, std::string* out) {
    const json::Value* x = v.find(f);
    const std::string* s = x != nullptr ? x->string() : nullptr;
    if (s != nullptr) *out = *s;
    return s != nullptr;
  };
  auto integer = [&](const char* f, int lo, int hi, int* out) {
    const json::Value* x = v.find(f);
    const auto n = x != nullptr ? x->integer(lo, hi) : std::nullopt;
    if (n) *out = static_cast<int>(*n);
    return n.has_value();
  };
  const json::Value* cost = v.find("cost");
  if (cost == nullptr || !cost->number()) return false;
  e->plan.cost = *cost->number();
  Recipe& r = e->plan.recipe;
  int pos = 0;
  int comm = 0;
  std::string unit;
  if (!text("key", &e->structural) || !text("sig", &e->sig) ||
      !integer("pos", 0, 1, &pos) ||
      !integer("pieces", INT_MIN, INT_MAX, &r.pieces) ||
      !integer("py", INT_MIN, INT_MAX, &r.pieces_y) ||
      !integer("pz", INT_MIN, INT_MAX, &r.pieces_z) ||
      !integer("fuse", INT_MIN, INT_MAX, &r.fuse_depth) ||
      !text("split", &r.split_tensor) || !integer("comm", 0, 1, &comm) ||
      !text("unit", &unit)) {
    return false;
  }
  r.position_space = pos != 0;
  r.communicate_all = comm != 0;
  if (!data::parse_fingerprints(e->sig)) return false;
  if (!unit.empty()) {
    const auto u = sched::parse_parallel_unit(unit);
    if (!u) return false;
    r.unit = *u;
  }
  return true;
}

// Loads the configured store ($SPDISTAL_PLAN_STORE) and registers its
// exit-time save.
void load_configured_store() {
  const std::string& path = config().plan_store;
  if (path.empty()) return;
  load_plan_store(path);  // absent file on cold start is fine
  std::atexit([] {
    if (!g_enabled.load(std::memory_order_relaxed)) return;
    if (!save_plan_store(config().plan_store)) {
      std::fprintf(stderr, "spdistal: failed to write plan store to %s\n",
                   config().plan_store.c_str());
    }
  });
}

}  // namespace

bool plan_store_enabled() {
  std::call_once(g_load_once, load_configured_store);
  return g_enabled.load(std::memory_order_relaxed);
}

void set_plan_store(bool on) {
  std::call_once(g_load_once, load_configured_store);
  g_enabled.store(on, std::memory_order_relaxed);
}

std::string plan_store_json(const std::vector<StoredPlan>& entries) {
  std::string out =
      strprintf("{\n  \"version\": %d,\n  \"plans\": [", kSchemaVersion);
  bool first = true;
  for (const StoredPlan& e : entries) {
    out += first ? "\n" : ",\n";
    first = false;
    const Recipe& r = e.plan.recipe;
    out += "    {\"key\": ";
    append_escaped(out, e.structural);
    out += ", \"sig\": ";
    append_escaped(out, e.sig);
    out += strprintf(
        ", \"cost\": %.17g, \"pos\": %d, \"pieces\": %d, \"py\": %d, "
        "\"pz\": %d, \"fuse\": %d",
        e.plan.cost, r.position_space ? 1 : 0, r.pieces, r.pieces_y,
        r.pieces_z, r.fuse_depth);
    out += ", \"split\": ";
    append_escaped(out, r.split_tensor);
    out += strprintf(", \"comm\": %d", r.communicate_all ? 1 : 0);
    out += ", \"unit\": ";
    append_escaped(out,
                   r.unit ? sched::parallel_unit_name(*r.unit) : "");
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::vector<StoredPlan> parse_plan_store(const std::string& doc) {
  const std::optional<json::Value> root = json::parse(doc);
  if (!root) return {};
  const json::Value* version = root->find("version");
  if (version == nullptr ||
      !version->integer(kOldestReadableVersion, kSchemaVersion)) {
    return {};
  }
  const json::Value* plans = root->find("plans");
  if (plans == nullptr || plans->array() == nullptr) return {};
  std::vector<StoredPlan> out;
  for (const json::Value& v : *plans->array()) {
    StoredPlan e;
    if (read_entry(v, &e)) out.push_back(std::move(e));
  }
  return out;
}

size_t load_plan_store(const std::string& path) {
  std::string doc;
  if (!obs::read_text_file(path, &doc)) return 0;
  const std::vector<StoredPlan> entries = parse_plan_store(doc);
  if (entries.empty()) return 0;
  return PlanCache::global().insert_stored(entries);
}

bool save_plan_store(const std::string& path) {
  std::vector<StoredPlan> merged = PlanCache::global().entries();
  std::set<std::string> have;
  for (const StoredPlan& e : merged) {
    have.insert(e.structural + PlanKey::kSep + e.sig);
  }
  // Union with what concurrent writers persisted since we loaded: our
  // entries win on collisions, theirs ride along.
  std::string doc;
  if (obs::read_text_file(path, &doc)) {
    for (StoredPlan& e : parse_plan_store(doc)) {
      if (have.insert(e.structural + PlanKey::kSep + e.sig).second) {
        merged.push_back(std::move(e));
      }
    }
  }
  return obs::write_text_file_atomic(path, plan_store_json(merged));
}

}  // namespace spdistal::autosched
