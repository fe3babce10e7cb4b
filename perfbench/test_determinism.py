#!/usr/bin/env python3
"""Determinism self-check for the hypart benchmark.

Runs the untimed mode of every workload twice with one seed and requires
byte-identical output: cache dispositions and evictions, slabs, groups,
simulated messages and steps, execution message/hop/recovery counts, and the
oracle verdicts.  Every oracle must also pass.

    python3 perfbench/test_determinism.py [--seed N] [--workload W ...]

Run from the repository root.  Exit 0 when every workload repeats exactly.
"""

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("serve-mix", "plan-symbolic", "plan-dense", "exec")


def untimed(workload, seed):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--untimed"],
                         capture_output=True, text=True, timeout=600)
    return out.returncode, out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    a = ap.parse_args()
    ok = True
    for w in a.workload or WORKLOADS:
        (rc1, first), (rc2, second) = untimed(w, a.seed), untimed(w, a.seed)
        same = first == second and first != ""
        print(f"{w}: {'identical' if same else 'DIFFERENT'}; exit codes {rc1}, {rc2}")
        print(f"  {first}")
        if not same:
            print(f"  {second}")
        ok = ok and same and rc1 == 0 and rc2 == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
