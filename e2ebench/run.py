#!/usr/bin/env python3
"""End-to-end benchmark of SpDISTAL: one command, four workloads.

Run from the repository root:

  python3 e2ebench/run.py --seed 1                     # every workload, untraced then traced
  python3 e2ebench/run.py --workload spmm_row --seed 3 --seconds 12 --trace 0
  python3 e2ebench/run.py --selftest                   # the output check catches a perturbed value
  python3 e2ebench/run.py --determinism                # exec width 4 == width 1, bit for bit
  python3 e2ebench/run.py --compare A.json B.json      # median/quartile verdict per metric

The first call configures and builds `spd_bench` (Release) under
.bench_build/e2ebench. Each workload runs in a child process whose
environment carries no SPDISTAL_* knob except SPDISTAL_EXEC_THREADS=1.
Every metric prints as `workload metric value unit`; with --workload the last
stdout line is one JSON object {correct, attempted, failed, metrics}. The
metric names, units, bounds and workloads come from BENCHMARK.json. See
README.md for what each metric means and why each workload was chosen.
"""
import argparse
import bisect
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A child takes ~20 s; a hung one is killed well before three minutes.
CHILD_TIMEOUT_S = 160
# Trace processes of the host and measured-leaf timelines (obs/trace.h).
HOST_PID, MEASURED_PID = 2, 3
# Fields of the child's result that must be bit-identical at any exec width.
EXACT_FIELDS = ["checksum", "sim_ms", "sim_tasks", "messages",
                "inter_node_kb", "intra_node_kb", "imbalance"]


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


# --- build -------------------------------------------------------------------

def read_cache(build_dir):
    cache = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.rstrip("\n"))
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    return cache


def run_quiet(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("command failed: " + " ".join(cmd))


def build(build_dir, allow_nonrelease):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    cache = read_cache(build_dir)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type != "Release" and not allow_nonrelease:
        fail("%s is a %r build; timings are only comparable from Release "
             "(pass --allow-nonrelease to run anyway, labelled)"
             % (build_dir, build_type))
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "--target", "spd_bench",
               "-j", jobs])
    return cache


def git_commit():
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                               "--dirty", "--abbrev=40"],
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def child_env(threads):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPDISTAL_")}
    env["SPDISTAL_EXEC_THREADS"] = str(threads)
    return env


def l3_bytes():
    try:
        proc = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        return int(proc.stdout.strip() or 0)
    except (OSError, ValueError):
        return 0


def config_record(cache, child, seed):
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    return {
        "commit": git_commit(),
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "l3_bytes": l3_bytes(),
        "build_type": build_type,
        "nonrelease": build_type != "Release",
        "cxx": cache.get("CMAKE_CXX_COMPILER", ""),
        "cxx_flags": (cache.get("CMAKE_CXX_FLAGS", "") + " " +
                      cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")).strip(),
        "compiled": child.get("build", {}),
        "seed": seed,
        "env": {k: v for k, v in child_env(1).items()
                if k.startswith("SPDISTAL_")},
    }


# --- running one workload ----------------------------------------------------

def run_child(build_dir, args, threads=1):
    exe = os.path.join(build_dir, "spd_bench")
    try:
        proc = subprocess.run([exe] + args, cwd=ROOT, env=child_env(threads),
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("spd_bench %s timed out" % " ".join(args))
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("spd_bench %s exited %d without a result"
             % (" ".join(args), proc.returncode))


class Trace:
    """Host-track spans of one traced run, nested per thread.

    A span's self time is its duration minus the spans directly nested in
    it on the same thread (which in turn cover their own descendants)."""

    EPS_US = 0.01  # timestamps are printed to 1 ns

    def __init__(self, path):
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        self.spans = [e for e in events
                      if e.get("ph") == "X" and e.get("pid") == HOST_PID]
        self.leaves = [e for e in events
                       if e.get("ph") == "X" and e.get("pid") == MEASURED_PID]
        by_tid = defaultdict(list)
        for e in self.spans:
            e["end"] = e["ts"] + e["dur"]
            e["child_us"] = 0.0
            by_tid[e["tid"]].append(e)
        for evs in by_tid.values():
            evs.sort(key=lambda e: (e["ts"], -e["dur"]))
            stack = []
            for e in evs:
                while stack and (e["ts"] >= stack[-1]["end"] or
                                 e["end"] > stack[-1]["end"] + self.EPS_US):
                    stack.pop()
                e["parent"] = stack[-1] if stack else None
                if stack:
                    stack[-1]["child_us"] += e["dur"]
                stack.append(e)
        for e in self.spans:
            e["self_us"] = max(0.0, e["dur"] - e["child_us"])
            p = e if e["cat"] == "bench" else e["parent"]
            while p is not None and p["cat"] != "bench":
                p = p["parent"]
            e["phase"] = p["name"] if p is not None else ""
        # Bench `run` windows per thread, for placing measured leaf spans.
        self.runs = sorted(((e["tid"], e["ts"], e["end"]) for e in self.spans
                            if e["cat"] == "bench" and e["name"] == "run"))

    def bench(self, name):
        return [e for e in self.spans if e["cat"] == "bench" and e["name"] == name]

    def in_runs(self, pred):
        return [e for e in self.spans
                if e["cat"] != "bench" and e["phase"] == "run" and pred(e)]

    def leaves_in_runs(self):
        out = []
        for e in self.leaves:
            i = bisect.bisect_right(self.runs, (e["tid"], e["ts"], float("inf"))) - 1
            if i >= 0:
                tid, ts, end = self.runs[i]
                if tid == e["tid"] and ts <= e["ts"] and e["ts"] + e["dur"] <= end + self.EPS_US:
                    out.append(e)
        return out


def per_layer(child, trace_path):
    """The per-layer metrics, each with the base its ratio rests on."""
    t = Trace(trace_path)
    runs = t.bench("run")
    n = max(1, len(runs))
    run_us = sum(e["dur"] for e in runs)
    setups = max(1, len(child["setup_s"]))
    counters = child["registry"].get("counters", {})
    pack_hist = child["registry"].get("histograms", {}).get("pack.us", {})

    def per_setup_ms(name):
        return sum(e["dur"] for e in t.bench(name)) / 1e3 / setups

    def per_iter_self_ms(pred):
        return sum(e["self_us"] for e in t.in_runs(pred)) / 1e3 / n

    leaves = t.leaves_in_runs()
    leaf_s = sum(e["dur"] for e in leaves) / 1e6
    leaf_nnz = sum(e.get("args", {}).get("nnz", 0) for e in leaves)
    leaf_flops = sum(e.get("args", {}).get("flops", 0) for e in leaves)
    traced_iter_ms = run_us / 1e3 / n
    unattributed_us = sum(e["self_us"] for e in runs)
    hits = counters.get("autosched.cache_hits", 0)
    lookups = hits + counters.get("autosched.cache_misses", 0)
    checks = t.bench("check")
    m = {
        "format.pack_ms": (per_setup_ms("pack"), "per set-up"),
        "format.pack_mnnz_per_s": (
            counters.get("pack.nnz", 0) / max(pack_hist.get("sum", 0), 1e-9),
            "%d nnz in %.1f ms of library pack" % (counters.get("pack.nnz", 0),
                                                   pack_hist.get("sum", 0) / 1e3)),
        "autosched.search_ms": (per_setup_ms("search"), "per set-up"),
        "autosched.enumerated": (counters.get("autosched.enumerated", 0) / setups,
                                 "per set-up"),
        "autosched.simulated": (counters.get("autosched.simulated", 0) / setups,
                                "per set-up"),
        "autosched.cache_hit_rate": (hits / lookups if lookups else 0.0,
                                     "%d of %d plan-cache lookups" % (hits, lookups)),
        "compiler.compile_ms": (per_setup_ms("compile"), "per set-up"),
        "compiler.instantiate_ms": (per_setup_ms("instantiate"), "per set-up"),
        "runtime.enqueue_ms": (per_iter_self_ms(lambda e: e["name"].startswith("enqueue ")),
                               "self, per iteration"),
        "runtime.plan_build_ms": (
            sum(e["self_us"] for e in t.spans if e["name"] == "plan_build") / 1e3 / setups,
            "per set-up"),
        "runtime.plan_hit_rate": (child["plan_hits"] / max(1, child["plan_lookups"]),
                                  "%d of %d launches" % (child["plan_hits"],
                                                         child["plan_lookups"])),
        "runtime.retire_ms": (per_iter_self_ms(lambda e: e["name"].endswith(":retire")),
                              "self, per iteration"),
        "runtime.zero_ms": (per_iter_self_ms(lambda e: e["name"].startswith("zero ")),
                            "self, per iteration"),
        "kernels.leaf_ms": (leaf_s * 1e3 / n, "measured leaf bodies, per iteration"),
        "kernels.leaf_share": (leaf_s * 1e3 / n / traced_iter_ms if runs else 0.0,
                               "of a %.3f ms traced iteration" % traced_iter_ms),
        "kernels.leaf_mnnz_per_s": (leaf_nnz / leaf_s / 1e6 if leaf_s else 0.0,
                                    "%d nnz in %.1f ms" % (leaf_nnz, leaf_s * 1e3)),
        "kernels.leaf_gflops": (leaf_flops / leaf_s / 1e9 if leaf_s else 0.0,
                                "%.3g computed flops in %.1f ms" % (leaf_flops, leaf_s * 1e3)),
        "exec.tasks": (len(t.in_runs(lambda e: e["cat"] == "exec")) / n, "per iteration"),
        "exec.unattributed_ms": (unattributed_us / 1e3 / n,
                                 "self time of the bench run span, per iteration"),
        "sim.tasks": (child["sim_tasks"], "per iteration"),
        "sim.imbalance": (child["imbalance"], "max/mean processor busy time"),
        "net.messages": (child["messages"], "per iteration"),
        "net.inter_node_kb": (child["inter_node_kb"], "per iteration"),
        "net.intra_node_kb": (child["intra_node_kb"], "per iteration"),
        "obs.trace_overhead_pct": (
            100.0 * (child["traced_rel"] / child["iter_rel"] - 1.0) if child["iter_rel"] else 0.0,
            "iter_rel traced %.4g vs untraced %.4g" % (child["traced_rel"], child["iter_rel"])),
        "obs.coverage": (1.0 - unattributed_us / run_us if run_us else 0.0,
                         "of %.1f ms in %d traced iterations" % (run_us / 1e3, len(runs))),
        "run.iter_ms": (child["iter_ms"], "median wall time, untraced, %d samples"
                        % child["iter_samples"]),
        "run.iter_ms_p90": (child["iter_ms_p90"], "untraced, %d samples" % child["iter_samples"]),
        "run.ref_ms": (child["ref_ms"], "median reference evaluation"),
        "check.ms": (sum(e["dur"] for e in checks) / 1e3 / max(1, len(checks)),
                     "per check, %d checks" % len(checks)),
    }
    return m


def end_to_end(child):
    return {
        "iter_rel": (child["iter_rel"], "median of %d iteration/reference pairs: %.4g ms / %.4g ms"
                     % (child["iter_samples"], child["iter_ms"], child["ref_ms"])),
        "sim_ms": (child["sim_ms"], "simulated, per steady iteration"),
        "setup_s": (statistics.median(child["setup_s"]),
                    "median of %d set-ups" % len(child["setup_s"])),
        "peak_rss_mb": (child["peak_rss_mb"], "max RSS of the workload process"),
    }


def run_workload(spec, build_dir, cache, workload, seed, seconds, traced):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds)]
    trace_path = None
    if traced:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, "%s-%d.json" % (workload, seed))
        args += ["--trace-out", trace_path]
    child = run_child(build_dir, args)
    values = per_layer(child, trace_path) if traced else end_to_end(child)
    kind = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    missing = set(units) - set(values)
    if missing:
        fail("no value for %s" % ", ".join(sorted(missing)))
    for name in units:
        value, base = values[name]
        print("%s %s %.6g %s  # %s" % (workload, name, value, units[name], base))
    error_rate = child["failed"] / max(1, child["attempted"])
    print("%s error_rate %.6g ratio  # %d of %d output checks failed"
          % (workload, error_rate, child["failed"], child["attempted"]))
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "seconds": seconds,
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "checksum": child["checksum"],
        "metrics": {name: {"value": values[name][0], "unit": units[name]}
                    for name in units},
        "config": config_record(cache, child, seed),
    }


def append_runs(path, runs):
    doc = {"runs": []}
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
    doc["runs"].extend(runs)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    os.replace(tmp, path)


# --- checks ------------------------------------------------------------------

def determinism(spec, build_dir):
    """Each workload once at exec width 1 and once at width 4, least work."""
    bad = 0
    for w in spec["workloads"]:
        args = ["--workload", w["name"], "--seed", "1", "--seconds", "0"]
        one = run_child(build_dir, args, threads=1)
        four = run_child(build_dir, args, threads=4)
        diffs = [f for f in EXACT_FIELDS if one[f] != four[f]]
        failed = one["failed"] + four["failed"]
        ok = not diffs and failed == 0
        bad += 0 if ok else 1
        print("determinism %-17s %s%s" % (
            w["name"], "ok" if ok else "MISMATCH",
            "".join(" %s: %r vs %r" % (f, one[f], four[f]) for f in diffs) +
            (" (%d failed checks)" % failed if failed else "")))
    return 0 if bad == 0 else 1


def compare(spec, path_a, path_b):
    """Median and quartiles per side; `worse` past the bound, `unresolved`
    when either side's own spread is wider than the bound (unless every run
    of B beats every run of A)."""
    def load(path):
        with open(path) as f:
            return [r for r in json.load(f)["runs"] if r["trace"] == 0]
    a_runs, b_runs = load(path_a), load(path_b)
    verdicts = []
    print("%-17s %-12s %5s %31s %31s  %s" % ("workload", "metric", "runs",
                                              "A median [q1, q3]", "B median [q1, q3]", "verdict"))
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in a_runs if r["workload"] == w["name"]]
            b = [r["metrics"][m["name"]]["value"] for r in b_runs if r["workload"] == w["name"]]
            if min(len(a), len(b)) < 5:
                verdict, qa, qb = "unresolved (fewer than 5 runs)", [0] * 3, [0] * 3
            else:
                qa = statistics.quantiles(a, n=4)
                qb = statistics.quantiles(b, n=4)
                sign = 1 if m["better"] == "lower" else -1
                change = sign * (qb[1] - qa[1]) / qa[1]
                spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
                b_always_better = (max(b) < min(a)) if sign > 0 else (min(b) > max(a))
                if spread > m["bound"] and not b_always_better:
                    verdict = "unresolved"
                elif change > m["bound"]:
                    verdict = "worse"
                else:
                    verdict = "ok"
            verdicts.append(verdict)
            print("%-17s %-12s %2d/%-2d %13.6g [%7.4g, %7.4g] %13.6g [%7.4g, %7.4g]  %s" % (
                w["name"], m["name"], len(a), len(b), qa[1], qa[0], qa[2],
                qb[1], qb[0], qb[2], verdict))
    return 0 if all(v == "ok" for v in verdicts) else 1


# --- main --------------------------------------------------------------------

def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names, help="run one workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="with --workload: 1 reports the per-layer metrics")
    ap.add_argument("--build-dir", default=os.path.join(ROOT, ".bench_build", "e2ebench"))
    ap.add_argument("--out", help="append the runs to this JSON file")
    ap.add_argument("--allow-nonrelease", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--determinism", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args()

    if args.compare:
        return compare(spec, *args.compare)
    build_dir = os.path.abspath(args.build_dir)
    cache = build(build_dir, args.allow_nonrelease)
    if args.selftest:
        proc = subprocess.run([os.path.join(build_dir, "spd_bench"), "--selftest"],
                              cwd=ROOT, env=child_env(1), timeout=CHILD_TIMEOUT_S)
        return proc.returncode
    if args.determinism:
        return determinism(spec, build_dir)

    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        print("# NON-RELEASE build (%s): timings are not comparable"
              % cache.get("CMAKE_BUILD_TYPE"))
    print("# exec width 1; L3 is %.0f MiB: working sets below it run at "
          "cache-resident rates" % (l3_bytes() / 2**20))
    if args.workload:
        run = run_workload(spec, build_dir, cache, args.workload, args.seed,
                           args.seconds, args.trace == 1)
        if args.out:
            append_runs(args.out, [run])
        print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                          "failed": run["failed"], "metrics": run["metrics"]}))
        return 0

    runs = [run_workload(spec, build_dir, cache, name, args.seed, args.seconds, traced)
            for traced in (False, True) for name in names]
    out = args.out or os.path.join(build_dir, "BENCH_e2e.json")
    append_runs(out, runs)
    print("# wrote %s" % out)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
