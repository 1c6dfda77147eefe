#!/usr/bin/env python3
"""Compile a long chain of diamonds with fcc-opt and run the result.

Each diamond redefines %x on both arms and exchanges values through copies,
so one phi web spans the whole chain while only a handful of variables is
live at any block. Liveness that stores a blocks x variables matrix needs
gigabytes here (about 9.4 GB at 50 000 diamonds); storage that grows with
the live ranges needs a few megabytes.

usage: diamonds.py FCC_OPT DIAMONDS SECONDS MAX_RSS_MIB
Fails when fcc-opt exits nonzero, prints the wrong result, takes longer than
SECONDS of wall-clock time, or peaks above MAX_RSS_MIB of resident memory.
"""

import os
import resource
import subprocess
import sys
import tempfile
import time

MASK = (1 << 64) - 1


def wrap(value):
    value &= MASK
    return value - (1 << 64) if value >> 63 else value


def bound(k):
    return k * 37 % 81 - 40


def step(k):
    return k * 7 % 9 + 1


def chain(diamonds):
    lines = ["func @diamonds(%a, %b) {", "entry:", "  %x = copy %a",
             "  %y = copy %b", "  %s = const 0", "  br d0"]
    for k in range(diamonds):
        lines += [f"d{k}:", f"  %c = cmplt %x, {bound(k)}",
                  f"  cbr %c, l{k}, r{k}",
                  f"l{k}:", "  %t = copy %x", f"  %x = add %t, {step(k)}",
                  "  %y = copy %t", f"  br d{k + 1}",
                  f"r{k}:", f"  %x = sub %x, {step(k)}", "  %s = add %s, %y",
                  f"  br d{k + 1}"]
    lines += [f"d{diamonds}:", "  %r = add %x, %y", "  %r = add %r, %s",
              "  ret %r", "}"]
    return "\n".join(lines) + "\n"


def expected(diamonds, a, b):
    x, y, s = a, b, 0
    for k in range(diamonds):
        if x < bound(k):
            t = x
            x = wrap(t + step(k))
            y = t
        else:
            x = wrap(x - step(k))
            s = wrap(s + y)
    return wrap(wrap(x + y) + s)


def main():
    fcc_opt, diamonds = sys.argv[1], int(sys.argv[2])
    seconds, max_rss_mib = float(sys.argv[3]), float(sys.argv[4])
    args = (5, 3)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "diamonds.ir")
        with open(path, "w") as f:
            f.write(chain(diamonds))
        start = time.monotonic()
        proc = subprocess.run([fcc_opt, path, "--pipeline=new", "--run"]
                              + [str(a) for a in args],
                              capture_output=True, text=True)
        elapsed = time.monotonic() - start
    rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if proc.returncode != 0:
        print(proc.stderr[-2000:])
        print(f"FAIL: fcc-opt exited {proc.returncode} on {diamonds} diamonds")
        return 1
    want = f"= {expected(diamonds, *args)} "
    if want not in proc.stdout:
        print(proc.stdout[-2000:])
        print(f"FAIL: expected '{want.strip()}' from --run")
        return 1
    print(f"{diamonds} diamonds compiled and ran in {elapsed:.2f}s "
          f"(bound {seconds:.0f}s), peak RSS {rss_mib:.0f} MiB "
          f"(bound {max_rss_mib:.0f} MiB)")
    return 0 if elapsed <= seconds and rss_mib <= max_rss_mib else 1


if __name__ == "__main__":
    sys.exit(main())
