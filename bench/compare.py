"""Compare two sets of benchmark runs, or report how steady one set is.

    python3 bench/compare.py DIR_A           # spread of each metric in one set
    python3 bench/compare.py DIR_A DIR_B     # B against A, A being the parent

Each DIR holds the result files that `run.py --out DIR` writes; only
untraced runs are read.  For every workload and end-to-end metric the report
gives each side's median and quartiles.  With one set it marks a metric
steady when its spread, the distance between the quartiles as a share of
the median, is at most a third of the metric's bound in BENCHMARK.json.
With two sets it follows the rule of the choosing-metrics guide, section 8:
REGRESSION when B's median is worse than A's by more than the bound; GAIN
when B wins at least nine tenths of the runs paired by seed and the medians
differ by more than A's spread; UNRESOLVED when A's own spread is wider
than the bound and B does not beat every run of A; otherwise SAME.  The
exit code is 1 on a regression or when the share of failed operations
differs between the sets.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{workload: {seed: result}} for the untraced runs in a directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        if rec.get("trace") == 0:
            runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _values(runs, metric):
    return [runs[s]["metrics"][metric]["value"] for s in sorted(runs)]


def _share(runs):
    return {r["failed"] / r["attempted"] for r in runs.values()}


def spread_report(runs_by_workload, spec):
    for workload, runs in sorted(runs_by_workload.items()):
        print("%s  (%d runs, failed share %s)" % (
            workload, len(runs), ", ".join("%.6f" % x for x in sorted(_share(runs)))))
        for m in spec:
            q1, med, q3 = quartiles(_values(runs, m["name"]))
            spread = (q3 - q1) / med
            if m["name"] == "setup_s":
                verdict = "(set-up: median only)"
            else:
                verdict = "steady" if spread <= m["bound"] / 3 else "NOT STEADY"
            print("  %-15s median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.3f  bound %.2f  %s"
                  % (m["name"], med, q1, q3, spread, m["bound"], verdict))


def compare_report(a_all, b_all, spec):
    bad = False
    for workload in sorted(set(a_all) | set(b_all)):
        a, b = a_all.get(workload), b_all.get(workload)
        if not a or not b:
            print("%s: runs on one side only" % workload)
            bad = True
            continue
        same_share = _share(a) == _share(b)
        bad |= not same_share
        print("%s  (A %d runs, B %d runs, failed share %s)" % (
            workload, len(a), len(b), "equal" if same_share else "DIFFERS"))
        seeds = sorted(set(a) & set(b))
        for m in spec:
            name, lower = m["name"], m["better"] == "lower"
            av, bv = _values(a, name), _values(b, name)
            aq1, amed, aq3 = quartiles(av)
            bq1, bmed, bq3 = quartiles(bv)
            worse = (bmed - amed) / amed if lower else (amed - bmed) / amed

            def better(x, y):
                return x < y if lower else x > y

            wins = sum(
                better(b[s]["metrics"][name]["value"], a[s]["metrics"][name]["value"])
                for s in seeds
            )
            if worse > m["bound"]:
                verdict = "REGRESSION"
                bad = True
            elif wins >= 0.9 * len(seeds) and abs(bmed - amed) > aq3 - aq1 and worse < 0:
                verdict = "GAIN (%d/%d pairs)" % (wins, len(seeds))
            elif (aq3 - aq1) / amed > m["bound"] and not all(
                better(x, y) for x in bv for y in av
            ):
                verdict = "UNRESOLVED"
            else:
                verdict = "SAME"
            print("  %-15s A %12.4f [%.4f, %.4f]  B %12.4f [%.4f, %.4f]  worse %+7.3f  bound %.2f  %s"
                  % (name, amed, aq1, aq3, bmed, bq1, bq3, worse, m["bound"], verdict))
    return bad


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["end_to_end"]
    sets = [load(d) for d in argv]
    if len(sets) == 1:
        spread_report(sets[0], spec)
        return 0
    return 1 if compare_report(sets[0], sets[1], spec) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
