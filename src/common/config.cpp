#include "common/config.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/json.h"
#include "common/str_util.h"

namespace spdistal {

namespace {

constexpr int kMaxExecThreads = 64;
// The default width is the hardware's concurrency, capped here.
constexpr unsigned kMaxDefaultExecThreads = 8;

// A sink path: any non-empty value.
void parse_path(const char* name, const char* raw, std::string* out,
                std::vector<std::string>* errors) {
  if (raw == nullptr) return;
  if (raw[0] == '\0') {
    errors->push_back(strprintf(
        "spdistal: ignoring %s: expected a non-empty path; it stays unset",
        name));
    return;
  }
  *out = raw;
}

std::string json_path(const std::string& p) {
  if (p.empty()) return "null";
  // Built with append: GCC 12 at -O3 misreads `"\"" + s + "\""` as an
  // overlapping memcpy and warns (-Wrestrict).
  const std::string escaped = json_escape(p);
  std::string out;
  out.reserve(escaped.size() + 2);
  out.append(1, '"').append(escaped).append(1, '"');
  return out;
}

}  // namespace

Config parse_config(const ConfigEnv& env, unsigned hardware_threads,
                    std::vector<std::string>* errors) {
  Config cfg;
  cfg.exec_threads = static_cast<int>(
      std::clamp(hardware_threads, 1u, kMaxDefaultExecThreads));
  if (const char* raw = env.exec_threads; raw != nullptr) {
    const char* end = raw + std::strlen(raw);
    int n = 0;
    const auto [at, ec] = std::from_chars(raw, end, n);
    if (ec == std::errc() && at == end && n >= 1 && n <= kMaxExecThreads) {
      cfg.exec_threads = n;
    } else {
      errors->push_back(strprintf(
          "spdistal: ignoring SPDISTAL_EXEC_THREADS=\"%s\": expected an "
          "integer in [1, %d]; using %d",
          raw, kMaxExecThreads, cfg.exec_threads));
    }
  }
  if (const char* raw = env.verify; raw != nullptr) {
    if (std::strcmp(raw, "0") == 0 || std::strcmp(raw, "1") == 0) {
      cfg.verify = raw[0] == '1';
    } else {
      errors->push_back(strprintf(
          "spdistal: ignoring SPDISTAL_VERIFY=\"%s\": expected 0 or 1; "
          "verification stays off",
          raw));
    }
  }
  parse_path("SPDISTAL_TRACE", env.trace, &cfg.trace, errors);
  parse_path("SPDISTAL_METRICS", env.metrics, &cfg.metrics, errors);
  return cfg;
}

const Config& config() {
  static const Config cfg = [] {
    ConfigEnv env;
    env.exec_threads = std::getenv("SPDISTAL_EXEC_THREADS");
    env.verify = std::getenv("SPDISTAL_VERIFY");
    env.trace = std::getenv("SPDISTAL_TRACE");
    env.metrics = std::getenv("SPDISTAL_METRICS");
    std::vector<std::string> errors;
    Config c = parse_config(env, std::thread::hardware_concurrency(), &errors);
    for (const std::string& e : errors) std::fprintf(stderr, "%s\n", e.c_str());
    return c;
  }();
  return cfg;
}

std::string config_json(const Config& cfg) {
  return strprintf("{\"exec_threads\": %d, \"verify\": %s, ", cfg.exec_threads,
                   cfg.verify ? "true" : "false") +
         "\"trace\": " + json_path(cfg.trace) +
         ", \"metrics\": " + json_path(cfg.metrics) + "}";
}

}  // namespace spdistal
