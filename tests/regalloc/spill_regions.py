#!/usr/bin/env python3
"""Allocate a function of many sequential loops on a four-register machine.

Before each of K loops, 24 values are defined; the loop never touches them,
and they are summed after it. Every loop therefore overflows the bank with
values live straight through it, so the spill rewriter splits or spills a
few dozen ranges per loop: about K * 24 victims over a function of about
4 * K blocks. A rewriter that rebuilds whole-function analyses per victim is
quadratic here (more than a minute at K = 400); one whose cost follows the
spill code it inserts takes about a second.

usage: spill_regions.py FCC_OPT LOOPS SECONDS MAX_RSS_MIB
       spill_regions.py - LOOPS --emit
Fails when fcc-opt exits nonzero, prints the wrong result, takes longer than
SECONDS of wall-clock time, or peaks above MAX_RSS_MIB of resident memory.
With --emit, prints the IR for LOOPS loops to stdout instead (for timing the
shape by hand).
"""

import os
import resource
import subprocess
import sys
import tempfile
import time

MASK = (1 << 64) - 1
VALUES = 24


def wrap(value):
    value &= MASK
    return value - (1 << 64) if value >> 63 else value


def factor(k, j):
    return (k * VALUES + j) * 7 % 97 + 1


def regions(loops):
    lines = ["func @regions(%a, %n) {", "entry:", "  %s = const 0", "  br pre0"]
    for k in range(loops):
        lines.append(f"pre{k}:")
        lines += [f"  %v{j} = mul %a, {factor(k, j)}" for j in range(VALUES)]
        lines += ["  %i = const 0", f"  br head{k}",
                  f"head{k}:", "  %c = cmplt %i, %n",
                  f"  cbr %c, body{k}, post{k}",
                  f"body{k}:", f"  %t = mul %i, {k % 5 + 2}",
                  "  %s = add %s, %t", "  %i = add %i, 1", f"  br head{k}",
                  f"post{k}:"]
        lines += [f"  %s = add %s, %v{j}" for j in range(VALUES)]
        lines.append(f"  br pre{k + 1}")
    lines += [f"pre{loops}:", "  ret %s", "}"]
    return "\n".join(lines) + "\n"


def expected(loops, a, n):
    s = 0
    for k in range(loops):
        values = [wrap(a * factor(k, j)) for j in range(VALUES)]
        for i in range(n):
            s = wrap(s + wrap(i * (k % 5 + 2)))
        for v in values:
            s = wrap(s + v)
    return s


def main():
    fcc_opt, loops = sys.argv[1], int(sys.argv[2])
    if "--emit" in sys.argv[3:]:
        sys.stdout.write(regions(loops))
        return 0
    seconds, max_rss_mib = float(sys.argv[3]), float(sys.argv[4])
    args = (5, 3)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "regions.ir")
        with open(path, "w") as f:
            f.write(regions(loops))
        start = time.monotonic()
        proc = subprocess.run([fcc_opt, path, "--machine=uniform4", "--run"]
                              + [str(a) for a in args],
                              capture_output=True, text=True)
        elapsed = time.monotonic() - start
    rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if proc.returncode != 0:
        print(proc.stderr[-2000:])
        print(f"FAIL: fcc-opt exited {proc.returncode} on {loops} loops")
        return 1
    want = f"= {expected(loops, *args)} "
    if want not in proc.stdout:
        print(proc.stdout[-2000:])
        print(f"FAIL: expected '{want.strip()}' from --run")
        return 1
    print(f"{loops} loops allocated and ran in {elapsed:.2f}s "
          f"(bound {seconds:.0f}s), peak RSS {rss_mib:.0f} MiB "
          f"(bound {max_rss_mib:.0f} MiB)")
    return 0 if elapsed <= seconds and rss_mib <= max_rss_mib else 1


if __name__ == "__main__":
    sys.exit(main())
