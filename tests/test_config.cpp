// Tests for the one configuration surface (common/config.h): the strict
// parse of every SPDISTAL_* variable, fed raw strings without touching the
// environment, and the configuration echo in the two artifacts the library
// writes, the trace document ("otherData") and the metrics snapshot
// ("config").
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/json.h"
#include "compiler/lower.h"
#include "data/generators.h"
#include "obs/obs.h"
#include "tensor/tensor.h"

namespace spdistal {
namespace {

// Parses `env` and returns the config with the messages it produced.
std::pair<Config, std::vector<std::string>> parse(const ConfigEnv& env,
                                                  unsigned hw = 4) {
  std::vector<std::string> errors;
  Config cfg = parse_config(env, hw, &errors);
  return {cfg, errors};
}

bool names(const std::string& message, const std::string& var) {
  return message.find(var) != std::string::npos;
}

TEST(Config, UnsetVariablesKeepTheDefaults) {
  const auto [cfg, errors] = parse(ConfigEnv{});
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(cfg.exec_threads, 4);
  EXPECT_FALSE(cfg.verify);
  EXPECT_TRUE(cfg.trace.empty());
  EXPECT_TRUE(cfg.metrics.empty());
}

TEST(Config, DefaultExecWidthIsHardwareClampedToOneThroughEight) {
  EXPECT_EQ(parse(ConfigEnv{}, 0).first.exec_threads, 1);
  EXPECT_EQ(parse(ConfigEnv{}, 1).first.exec_threads, 1);
  EXPECT_EQ(parse(ConfigEnv{}, 6).first.exec_threads, 6);
  EXPECT_EQ(parse(ConfigEnv{}, 96).first.exec_threads, 8);
}

TEST(Config, ExecThreadsAcceptsOneThroughSixtyFour) {
  for (const auto& [raw, want] :
       {std::pair{"1", 1}, std::pair{"4", 4}, std::pair{"64", 64}}) {
    ConfigEnv env;
    env.exec_threads = raw;
    const auto [cfg, errors] = parse(env);
    EXPECT_EQ(cfg.exec_threads, want) << raw;
    EXPECT_TRUE(errors.empty()) << raw;
  }
}

TEST(Config, MalformedExecThreadsWarnsAndKeepsTheDefault) {
  for (const char* raw :
       {"abc", "0", "65", "100", "-2", "+4", " 4", "4 ", "4x", "2.5", "",
        "99999999999999999999"}) {
    ConfigEnv env;
    env.exec_threads = raw;
    const auto [cfg, errors] = parse(env, 6);
    EXPECT_EQ(cfg.exec_threads, 6) << '"' << raw << '"';
    ASSERT_EQ(errors.size(), 1u) << '"' << raw << '"';
    EXPECT_TRUE(names(errors[0], "SPDISTAL_EXEC_THREADS")) << errors[0];
    EXPECT_EQ(errors[0].find('\n'), std::string::npos) << errors[0];
  }
}

TEST(Config, VerifyAcceptsOnlyZeroOrOne) {
  ConfigEnv env;
  env.verify = "1";
  EXPECT_TRUE(parse(env).first.verify);
  env.verify = "0";
  EXPECT_FALSE(parse(env).first.verify);
  EXPECT_TRUE(parse(env).second.empty());
  // Any other value is malformed, boolean-looking spellings included, and
  // leaves verification off.
  for (const char* raw : {"false", "true", "yes", "on", "2", "01", " 1", ""}) {
    env.verify = raw;
    const auto [cfg, errors] = parse(env);
    EXPECT_FALSE(cfg.verify) << '"' << raw << '"';
    ASSERT_EQ(errors.size(), 1u) << '"' << raw << '"';
    EXPECT_TRUE(names(errors[0], "SPDISTAL_VERIFY")) << errors[0];
  }
}

TEST(Config, SinkPathsMustBeNonEmpty) {
  ConfigEnv env;
  env.trace = "t.json";
  env.metrics = "dir/m.json";
  auto [cfg, errors] = parse(env);
  EXPECT_TRUE(errors.empty());
  EXPECT_EQ(cfg.trace, "t.json");
  EXPECT_EQ(cfg.metrics, "dir/m.json");

  // Each empty path is reported once, by name, and stays unset.
  env.trace = env.metrics = "";
  std::tie(cfg, errors) = parse(env);
  EXPECT_TRUE(cfg.trace.empty());
  EXPECT_TRUE(cfg.metrics.empty());
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_TRUE(names(errors[0], "SPDISTAL_TRACE")) << errors[0];
  EXPECT_TRUE(names(errors[1], "SPDISTAL_METRICS")) << errors[1];
}

TEST(Config, OneMalformedValueLeavesTheOthersParsed) {
  ConfigEnv env;
  env.exec_threads = "abc";
  env.verify = "1";
  env.trace = "t.json";
  const auto [cfg, errors] = parse(env);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_TRUE(names(errors[0], "SPDISTAL_EXEC_THREADS"));
  EXPECT_TRUE(cfg.verify);
  EXPECT_EQ(cfg.trace, "t.json");
}

TEST(Config, JsonEchoRoundTrips) {
  Config cfg;
  cfg.exec_threads = 3;
  cfg.verify = true;
  cfg.trace = "a \"quoted\"\\path.json";
  const auto doc = json::parse(config_json(cfg));
  ASSERT_TRUE(doc.has_value()) << config_json(cfg);
  // The echo holds each setting exactly once, and nothing else.
  ASSERT_NE(doc->members(), nullptr);
  std::vector<std::string> keys;
  for (const auto& [key, value] : *doc->members()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"exec_threads", "verify", "trace",
                                            "metrics"}));
  EXPECT_EQ(doc->find("exec_threads")->integer(1, 64), 3);
  EXPECT_EQ(doc->find("verify")->boolean(), true);
  ASSERT_NE(doc->find("trace")->string(), nullptr);
  EXPECT_EQ(*doc->find("trace")->string(), cfg.trace);
  // Unset paths echo as null.
  EXPECT_EQ(doc->find("metrics")->type(), json::Value::Type::Null);
}

// Checks that `v` is the echo of this process's config().
void expect_process_config(const json::Value* v) {
  ASSERT_NE(v, nullptr);
  ASSERT_NE(v->members(), nullptr);
  EXPECT_EQ(v->find("exec_threads")->integer(1, 64), config().exec_threads);
  EXPECT_EQ(v->find("verify")->boolean(), config().verify);
  for (const char* sink : {"trace", "metrics"}) {
    EXPECT_NE(v->find(sink), nullptr) << sink;
  }
}

rt::Machine cpu_machine(int nodes) {
  rt::MachineConfig cfg;
  cfg.nodes = nodes;
  return rt::Machine(cfg, rt::Grid(nodes), rt::ProcKind::CPU);
}

// A traced row-split SpMV at exec width 2: the executor creates and retires
// tasks on two contexts while the recorder is live.
std::string traced_spmv_json() {
  const rt::Machine m = cpu_machine(4);
  obs::set_enabled(true);
  obs::TraceRecorder::global().start();
  {
    IndexVar i("i"), j("j"), io("io"), ii("ii");
    fmt::Coo coo = data::powerlaw_matrix(400, 400, 4000, 1.1, 3);
    const std::vector<rt::Coord> dims = coo.dims;
    Tensor a("a", {dims[0]}, fmt::dense_vector());
    Tensor B("B", dims, fmt::csr(), tdn::parse_tdn("B(x, y) -> M(x)"));
    Tensor c("c", {dims[1]}, fmt::dense_vector(),
             tdn::parse_tdn("c(x) -> M(q)"));
    B.from_coo(std::move(coo));
    c.init_dense([](const auto&) { return 1.0; });
    Statement& stmt = (a(i) = B(i, j) * c(j));
    a.schedule().divide(i, io, ii, m.num_procs()).distribute(io);
    rt::Runtime runtime(m, 2);
    auto inst = comp::CompiledKernel::compile(stmt, m).instantiate(runtime);
    inst->run(2);
    runtime.flush();
  }
  const std::string doc = obs::TraceRecorder::global().json();
  obs::TraceRecorder::global().stop();
  obs::set_enabled(false);
  return doc;
}

TEST(Config, TraceEchoesConfigInOtherDataAndHasNoCounterEvents) {
  const std::string doc = traced_spmv_json();
  const auto root = json::parse(doc);
  ASSERT_TRUE(root.has_value());
  const json::Value* events = root->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_NE(events->array(), nullptr);
  EXPECT_FALSE(events->array()->empty());
  expect_process_config(root->find("otherData"));
  // The executor keeps its counts in Executor::stats(), so the trace holds
  // no counter ("C") events.
  for (const json::Value& e : *events->array()) {
    const std::string* ph = e.find("ph")->string();
    ASSERT_NE(ph, nullptr);
    EXPECT_NE(*ph, "C");
  }
  EXPECT_EQ(doc.find("\"ph\": \"C\""), std::string::npos);
  // The echo never rides on a simulated-track (pid 1) line, which must stay
  // byte-identical across exec widths.
  size_t at = 0;
  while ((at = doc.find("\"pid\": 1,", at)) != std::string::npos) {
    const size_t line_start = doc.rfind('\n', at) + 1;
    const size_t line_end = doc.find('\n', at);
    EXPECT_EQ(doc.substr(line_start, line_end - line_start).find("exec_threads"),
              std::string::npos);
    at = line_end;
  }
}

TEST(Config, MetricsSnapshotEchoesConfigBesideCountersAndHistograms) {
  const auto root = json::parse(obs::Metrics::global().json());
  ASSERT_TRUE(root.has_value());
  expect_process_config(root->find("config"));
  EXPECT_NE(root->find("counters"), nullptr);
  EXPECT_NE(root->find("histograms"), nullptr);
  EXPECT_EQ(root->find("gauges"), nullptr);
}

}  // namespace
}  // namespace spdistal
