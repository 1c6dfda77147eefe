#!/usr/bin/env python3
"""Compile a straight chain of blocks with fcc-opt and run the result.

A chain of N blocks has an N-deep dominator tree, so any recursive walk
over the tree overflows the native stack long before N = 10^5. The chain
carries one variable so liveness stays small.

usage: deep_chain.py FCC_OPT BLOCKS SECONDS [PIPELINE...]
Compiles with each PIPELINE in turn (default: new). Fails when fcc-opt exits
nonzero, prints the wrong result, or takes longer than SECONDS of wall-clock
time for any one pipeline.
"""

import os
import subprocess
import sys
import tempfile
import time


def chain(blocks):
    lines = ["func @chain(%a) {", "entry:", "  %x = copy %a", "  br c0"]
    for k in range(blocks):
        lines += [f"c{k}:", "  %x = add %x, 1", f"  br c{k + 1}"]
    lines += [f"c{blocks}:", "  ret %x", "}"]
    return "\n".join(lines) + "\n"


def run(fcc_opt, path, blocks, seconds, pipeline):
    start = time.monotonic()
    proc = subprocess.run([fcc_opt, path, f"--pipeline={pipeline}", "--run",
                           "5"], capture_output=True, text=True)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        print(proc.stderr[-2000:])
        print(f"FAIL: fcc-opt --pipeline={pipeline} exited {proc.returncode} "
              f"on {blocks} blocks")
        return False
    want = f"= {5 + blocks} "
    if want not in proc.stdout:
        print(proc.stdout[-2000:])
        print(f"FAIL: expected '{want.strip()}' from --pipeline={pipeline} "
              "--run")
        return False
    print(f"{blocks} blocks compiled with --pipeline={pipeline} and ran in "
          f"{elapsed:.2f}s (bound {seconds:.0f}s)")
    return elapsed <= seconds


def main():
    fcc_opt, blocks, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    pipelines = sys.argv[4:] or ["new"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chain.ir")
        with open(path, "w") as f:
            f.write(chain(blocks))
        ok = [run(fcc_opt, path, blocks, seconds, p) for p in pipelines]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
