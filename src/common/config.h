// The process-wide configuration: every SPDISTAL_* environment variable,
// read once (on the first call of config()) into one immutable Config.
// This is the library's only reader of the environment; each subsystem
// reads the field it needs.
//
//   SPDISTAL_EXEC_THREADS=N     execution contexts of the shared worker
//                               pool, an integer in [1, 64] (default:
//                               hardware concurrency clamped to [1, 8];
//                               1 = serial, no worker threads)
//   SPDISTAL_VERIFY=0|1         arm the verifiers (verify/verify.h)
//   SPDISTAL_TRACE=f.json       capture a Chrome/Perfetto trace, written at
//                               exit (obs/trace.h)
//   SPDISTAL_METRICS=f.json     dump the metrics registry at exit
//                               (obs/metrics.h)
//
// A malformed value (a verify switch other than 0 or 1, a width outside
// [1, 64] or not a number, an empty path) prints one line on stderr that
// names the variable, and that setting keeps its default. The trace and
// the metrics snapshot echo the Config (config_json) so each artifact
// records what produced it.
#pragma once

#include <string>
#include <vector>

namespace spdistal {

struct Config {
  int exec_threads = 1;
  bool verify = false;
  // Sink paths; empty = not configured.
  std::string trace;
  std::string metrics;
};

// The raw value of each variable, nullptr when unset.
struct ConfigEnv {
  const char* exec_threads = nullptr;
  const char* verify = nullptr;
  const char* trace = nullptr;
  const char* metrics = nullptr;
};

// Parses `env` strictly; a pure function, so tests can feed it values.
// `hardware_threads` gives the default exec width. Each malformed value
// appends one message that names its variable to `*errors`.
Config parse_config(const ConfigEnv& env, unsigned hardware_threads,
                    std::vector<std::string>* errors);

// The process's configuration, parsed from the environment on first call;
// the messages of malformed values go to stderr then.
const Config& config();

// `cfg` as one JSON object: {"exec_threads": n, "verify": b, "trace": p,
// "metrics": p}, an unset path as null.
std::string config_json(const Config& cfg);

}  // namespace spdistal
