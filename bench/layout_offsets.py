#!/usr/bin/env python3
"""Print where the hot code of a linked binary sits, modulo 64 bytes.

Host timings of the leaves and of the e2ebench oracle move with the
alignment of their inner loops, so a change that only adds or deletes cold
code elsewhere can still move them. This script reads `nm -n` and prints the
address of `main`, of the e2ebench oracle (`Reference::run`), of the
runtime's per-iteration code (`Runtime::execute` with its point-task and
retire lambdas, `Runtime::account_launch`, `Runtime::fetch` and
`Executor::run_node`) and of every leaf kernel body, each with its offset
mod 64. Compare the output of two builds to see whether hot code moved.

Each leaf body compiles twice (kern::make_leaf): a `recording` body, which
verify-mode point tasks run, and a `plain` one, which every other launch
runs. With --check the script disassembles every plain body and exits
non-zero if one calls into rt::TouchSink or rt::TouchLog, i.e. if touch
recording leaked into the code that runs outside verify mode.

  python3 bench/layout_offsets.py .bench_build/e2ebench/spd_bench
  python3 bench/layout_offsets.py --check build/micro_kernels
"""
import argparse
import re
import subprocess
import sys

# Leaf bodies are the lambdas each kern::make_* factory returns or hands to
# kern::make_leaf: an operator() instantiated for a touch-recording tag, or
# (for a lambda taking only the piece) its operator() or the std::function
# invoker the body was inlined into.
LEAF = re.compile(r"spdistal::kern::(make_\w+)\([^)]*\)::\{lambda\("
                  r"spdistal::kern::PieceBounds const&(?:, auto:\d+)?\)"
                  r"#(\d+)\}(?:::operator\(\)"
                  r"(?:<std::integral_constant<bool, (true|false)> >)?"
                  r"|>::_M_invoke)")
SYMBOL = re.compile(r"^([0-9a-f]+) (?:([0-9a-f]+) )?[tTwW] (.*)$")
NAMED = {
    "main": "main",
    "spdbench::oracle::Reference::run()": "Reference::run",
    "spdistal::rt::Runtime::execute(std::shared_ptr<spdistal::rt::"
    "PreparedLaunch const> const&)": "Runtime::execute",
    "spdistal::rt::Runtime::account_launch(spdistal::rt::Runtime::"
    "LaunchRecord&)": "Runtime::account_launch",
    "spdistal::rt::Runtime::fetch(spdistal::rt::RegionBase&, "
    "spdistal::rt::IndexSubset const&, spdistal::rt::Mem const&, double)":
        "Runtime::fetch",
    "spdistal::exec::Executor::run_node(unsigned long)": "Executor::run_node",
}
# The lambdas Runtime::execute hands the executor, in source order: #1 is
# verify mode's prehash, #2 a point task, #3 the retirement. Each shows as
# its operator() or as the std::function invoker it was inlined into.
EXECUTE_LAMBDA = re.compile(r"spdistal::rt::Runtime::execute\(std::shared_ptr<"
                            r"spdistal::rt::PreparedLaunch const> const&\)::"
                            r"\{lambda\(\)#([23])\}"
                            r"(?:::operator\(\)\(\) const|>::_M_invoke)")
EXECUTE_LAMBDA_LABEL = {"2": "Runtime::execute point task",
                        "3": "Runtime::execute retire"}
# Calls a plain body must not make: the verify-mode touch log's entry points.
RECORDING_CALL = re.compile(r"\b(?:call|jmp)\w*\s+[0-9a-f]+ <[^>]*"
                            r"rt::Touch(?:Sink|Log)\b")


def symbols(binary):
    out = subprocess.run(["nm", "-n", "-S", "-C", binary], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    for line in out.splitlines():
        m = SYMBOL.match(line)
        if m and "[clone" not in m.group(3):
            size = int(m.group(2), 16) if m.group(2) else 0
            yield int(m.group(1), 16), size, m.group(3)


def rows_of(binary):
    """(label, address, size, plain) for main, the oracle, the runtime's
    per-iteration code and each leaf."""
    rows = []
    for addr, size, name in symbols(binary):
        if name in NAMED:
            rows.append((NAMED[name], addr, size, False))
            continue
        m = EXECUTE_LAMBDA.search(name)
        if m:
            label = EXECUTE_LAMBDA_LABEL[m.group(1)]
            if m.group(0).endswith("_M_invoke"):
                label += " (invoker)"
            rows.append((label, addr, size, False))
            continue
        m = LEAF.search(name)
        if not m:
            continue
        label = "%s#%s" % (m.group(1), m.group(2))
        plain = m.group(3) == "false"
        if m.group(3):
            label += " plain" if plain else " recording"
        elif m.group(0).endswith("_M_invoke"):
            label += " (invoker)"
        rows.append((label, addr, size, plain))
    return rows


def recording_calls(binary, addr, size):
    """The touch-log calls in the disassembly of [addr, addr + size)."""
    out = subprocess.run(
        ["objdump", "-d", "-C", "--no-show-raw-insn",
         "--start-address=0x%x" % addr, "--stop-address=0x%x" % (addr + size),
         binary], check=True, stdout=subprocess.PIPE, text=True).stdout
    return [line.strip() for line in out.splitlines()
            if RECORDING_CALL.search(line)]


def check(binary, rows):
    plain = [r for r in rows if r[3]]
    recording = {r[0].rsplit(" ", 1)[0] for r in rows
                 if r[0].endswith(" recording")}
    missing = sorted(recording - {r[0].rsplit(" ", 1)[0] for r in plain})
    if not plain or missing:
        sys.exit("--check: no plain body in %s for %s" %
                 (binary, ", ".join(missing) or "any leaf"))
    failed = False
    for label, addr, size, _ in plain:
        if size == 0:
            sys.exit("--check: nm reports no size for %s" % label)
        calls = recording_calls(binary, addr, size)
        for call in calls:
            print("%s calls the touch log: %s" % (label, call))
        failed |= bool(calls)
    if failed:
        sys.exit("--check: touch recording in a plain leaf body")
    print("--check: %d plain leaf bodies, none calls TouchSink or TouchLog"
          % len(plain))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        epilog=__doc__.strip().split("\n\n")[-1],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("binary")
    ap.add_argument("--check", action="store_true",
                    help="fail if a plain leaf body calls the touch log")
    args = ap.parse_args()
    rows = rows_of(args.binary)
    if not rows:
        sys.exit("no known symbols in %s" % args.binary)
    width = max(len(r[0]) for r in rows)
    for label, addr, _, _ in rows:
        print("%-*s  0x%08x  mod64 %2d" % (width, label, addr, addr % 64))
    if args.check:
        check(args.binary, rows)


if __name__ == "__main__":
    main()
