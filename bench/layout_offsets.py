#!/usr/bin/env python3
"""Print where the hot code of a linked binary sits, modulo 64 bytes.

Host timings of the leaves and of the e2ebench oracle move with the
alignment of their inner loops, so a change that only adds or deletes cold
code elsewhere can still move them. This script reads `nm -n` and prints the
address of `main`, of the e2ebench oracle (`Reference::run`) and of every
leaf kernel body, each with its offset mod 64. Compare the output of two
builds to see whether hot code moved.

  python3 bench/layout_offsets.py .bench_build/e2ebench/spd_bench
  python3 bench/layout_offsets.py build/micro_kernels
"""
import re
import subprocess
import sys

# Leaf bodies are the lambdas each kern::make_* factory returns: their
# operator(), or the std::function invoker the body was inlined into.
LEAF = re.compile(r"spdistal::kern::(make_\w+)\([^)]*\)::\{lambda\("
                  r"spdistal::kern::PieceBounds const&\)#(\d+)\}"
                  r"(::operator\(\)|>::_M_invoke)")
TEXT = re.compile(r"^([0-9a-f]+) [tTwW] (.*)$")
NAMED = {
    "main": "main",
    "spdbench::oracle::Reference::run()": "Reference::run",
}


def symbols(binary):
    out = subprocess.run(["nm", "-n", "-C", binary], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    for line in out.splitlines():
        m = TEXT.match(line)
        if m and "[clone" not in m.group(2):
            yield int(m.group(1), 16), m.group(2)


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().split("\n\n")[-1])
    rows = []
    for addr, name in symbols(sys.argv[1]):
        if name in NAMED:
            rows.append((NAMED[name], addr))
            continue
        m = LEAF.search(name)
        if m:
            kind = "" if m.group(3) == "::operator()" else " (invoker)"
            rows.append(("%s#%s%s" % (m.group(1), m.group(2), kind), addr))
    if not rows:
        sys.exit("no known symbols in %s" % sys.argv[1])
    width = max(len(r[0]) for r in rows)
    for label, addr in rows:
        print("%-*s  0x%08x  mod64 %2d" % (width, label, addr, addr % 64))


if __name__ == "__main__":
    main()
