"""Layered benchmark for cliffordweyl.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

Runs from the root of a source checkout and imports the library from its
`src/`.  With --trace 0 it repeats whole rounds of the workload's operations
until S seconds have passed and prints the end-to-end metrics; with
--trace 1 it runs a warm-up round, one untraced round, one round with every
traced function wrapped and one under cProfile, and prints the per-layer
metrics.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  --out DIR also writes that
result, with the seed, Python version, CPU count and git commit, to a file
in DIR.  See bench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 4
IMPORT_REPEATS = 3


def _load_library():
    """Import the library from this checkout's src/, or exit 2."""
    init = os.path.join(SRC, "cliffordweyl", "__init__.py")
    if not os.path.isfile(init):
        print("error: no library source at %s" % init, file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import cliffordweyl

    if os.path.abspath(cliffordweyl.__file__) != os.path.abspath(init):
        print("error: imported cliffordweyl from %s" % cliffordweyl.__file__, file=sys.stderr)
        raise SystemExit(2)


def _child_seconds(argv):
    out = subprocess.run(argv, capture_output=True, cwd=ROOT, check=True, text=True).stdout
    return float(out.split()[-1])


def _scaled(seconds):
    """Seconds at the machine's usual speed (see workloads.NOMINAL_S)."""
    from workloads import NOMINAL_S, calibration_s

    return seconds * NOMINAL_S / calibration_s(0.25 * seconds)


def _setup_samples(args, own):
    """Set-up time of this process and of fresh interpreters doing the same."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    return [_scaled(own)] + [_scaled(_child_seconds(argv)) for _ in range(SETUP_REPEATS)]


def _import_ms():
    code = ("import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
            "import cliffordweyl; print(time.perf_counter() - t)" % SRC)
    return 1000 * statistics.median(
        _child_seconds([sys.executable, "-c", code]) for _ in range(IMPORT_REPEATS)
    )


def _p80(values):
    return statistics.quantiles(values, n=5, method="inclusive")[3]


def _typical_round(ops):
    """(kind, seconds, checks, pairs) per slot, with medians over the rounds.

    The rates are taken from this typical round, so that a burst of load on
    the machine during one round does not move them.
    """
    slots = {}
    for op in ops:
        slots.setdefault(op.slot, []).append(op)
    return [
        (same[0].kind, statistics.median(op.s for op in same),
         statistics.median(op.checks for op in same), same[0].pairs)
        for _, same in sorted(slots.items())
    ]


def _rate(work, seconds):
    return sum(work) / sum(seconds)


def end_to_end(workload, ops, setup_s):
    """Every end-to-end metric, from the operations of the measured rounds.

    Failed operations are counted in `failed` and left out of the timings:
    their time says nothing about the work they did not finish.
    """
    ops = [op for op in ops if not op.error]
    typical = _typical_round(ops)
    products = [op for op in typical if op[3]]
    exprs = [op for op in typical if op[0] == "expr"]
    # latency samples: every child start in `cli`; in process, the suite
    # runs and products of the typical round (printing them is not counted,
    # so the median does not fall between two kinds of operation)
    calls = [op.s for op in ops if op.kind == "cli"] or [
        op[1] for op in typical if op[0] in ("suite", "product")
    ]
    if hasattr(workload, "child_rss_kib"):
        rss_kib = workload.child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (setup_s, "s"),
        "checks_per_s": (_rate([op[2] for op in typical], [op[1] for op in typical]), "1/s"),
        "pairs_per_s": (_rate([op[3] for op in products], [op[1] for op in products]), "1/s"),
        "product_ms_p50": (1000 * statistics.median(op[1] for op in products), "ms"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
        "cli_ms_p50": (1000 * statistics.median(calls), "ms"),
        "cli_ms_p80": (1000 * _p80(calls), "ms"),
        "exprs_per_s": (_rate([1] * len(exprs), [op[1] for op in exprs]), "1/s"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def _measure(workload, seconds):
    from workloads import Recorder

    rec = Recorder()
    deadline = time.perf_counter() + seconds
    while rec.rounds == 0 or time.perf_counter() < deadline:
        workload.round(rec)
    rec.flush()
    return rec.ops, rec.rounds, statistics.median(rec.factors)


def _traced(workload):
    import layers
    from workloads import Recorder

    rec = Recorder()
    workload.round(rec)  # warm-up: later rounds find the caches as a repeat run does
    untraced = Recorder()
    workload.round(untraced)
    untraced.flush()
    suite_s = {}
    for op in untraced.ops:
        if op.kind == "suite":
            suite_s[op.name] = suite_s.get(op.name, 0.0) + op.s

    tracer = layers.Tracer()
    before = workload.kernel_counters()
    traced = Recorder()
    tracer.install()
    try:
        workload.round(traced)
        traced.flush()
    finally:
        tracer.remove()
    after = workload.kernel_counters()

    profiled = Recorder()
    self_s = layers.profiled_self_s(lambda: workload.round(profiled))
    # both rounds are timed in scaled seconds, so drift of the machine's
    # speed between them does not count as tracing overhead
    overhead_s = sum(op.s for op in traced.ops) - sum(op.s for op in untraced.ops)
    metrics = layers.layer_metrics(tracer, before, after, self_s, suite_s, _import_ms(), overhead_s)
    ops = rec.ops + untraced.ops + traced.ops + profiled.ops
    return ops, 4, metrics


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, cwd=ROOT, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", metavar="DIR", help="also write the result to a file in DIR")
    ap.add_argument("--fault", action="store_true",
                    help="swap in a wrong star and ore_product (self-test)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    _load_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error("unknown workload %r (choose from %s)"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    if args.fault:
        import layers

        layers.inject_faults()
    workload = workloads.make(args.workload, args.seed, args.fault)
    own_setup = time.perf_counter() - start
    if args.setup_only:
        print(own_setup)
        return 0

    if args.trace:
        ops, rounds, metrics = _traced(workload)
        workload.verify(ops)
        factor = None
    else:
        setup_s = statistics.median(_setup_samples(args, own_setup))
        ops, rounds, factor = _measure(workload, args.seconds)
        workload.verify(ops)
        metrics = end_to_end(workload, ops, setup_s)
    failed = [op for op in ops if op.error or op.wrong]
    result = {
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    for op in failed:
        print("failed: %s %s (%s)" % (op.kind, op.name, op.error or "wrong result"),
              file=sys.stderr)
    if args.out:
        record = dict(
            result,
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            rounds=rounds,
            speed_factor=factor,
            python=platform.python_version(),
            nproc=os.cpu_count(),
            git_sha=_git_sha(),
        )
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
        with open(path, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
