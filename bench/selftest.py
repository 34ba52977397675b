"""Self-test of the benchmark's checks: a wrong product must be caught.

    python3 bench/selftest.py

Runs one round of every workload with a wrong `star` and a wrong
`ore_product` swapped in (each adds the unit to the true product; the `cli`
children get the same swap) and requires each workload to report failed
operations beyond the one known failure, and `correct: false`.  Exits 1 if
any workload misses the fault.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# E-^1500*E+ fails in every round of these workloads until the kernel is iterative
KNOWN_FAILED = {"cw-suites": 0, "cw-wide": 0, "deform-transport": 1, "cli": 1}


def main():
    missed = []
    for workload, known in KNOWN_FAILED.items():
        argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                "--seed", "1", "--seconds", "0", "--trace", "0", "--fault"]
        out = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        if out.returncode != 0:
            print("%s: run failed\n%s" % (workload, out.stderr), file=sys.stderr)
            missed.append(workload)
            continue
        result = json.loads(out.stdout.splitlines()[-1])
        caught = result["failed"] > known and not result["correct"]
        print("%-16s attempted %4d  failed %4d  correct %-5s  %s" % (
            workload, result["attempted"], result["failed"], result["correct"],
            "fault caught" if caught else "FAULT MISSED"))
        if not caught:
            missed.append(workload)
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main())
