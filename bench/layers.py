"""Per-layer tracing from outside the library, and the fault injection.

Each traced public function is replaced, in every `cliffordweyl` module
namespace that binds it, by a wrapper that counts calls and records
inclusive and self time on a span stack kept in memory.  The kernel caches
are read through their `lru_cache` counters.  Nothing under `src/` changes.
"""

import cProfile
import importlib
import pstats
import sys
import time

from cliffordweyl import starprod
from cliffordweyl.hochschild import CochainEvaluator

# module -> public functions that report calls, s (inclusive) and self_s
TRACED = (
    ("starprod", ("star",)),
    ("ore", ("ore_product",)),
    ("periodicity", ("tensor_star", "matrix_star", "cw_to_matrix", "periodicity1_forward")),
    ("reps", ("act", "rep_matrix")),
    (
        "deform",
        ("pi_h_matrix", "periodicity2_forward", "center_probe", "commutant_probe", "verma_apply"),
    ),
    ("linalg", ("sparse_rref",)),
    ("osp", ("build_g", "verify_ps")),
    ("exprs", ("parse", "evaluate")),
    ("textform", ("element_to_text",)),
)
# a span name with no function of that name: the evaluation of a cochain
COCHAIN_EVAL = "hochschild.cochain_eval"


SUITES = (
    "associativity", "hochschild", "odd-split", "a0-iso", "cocycle", "periodicity1",
    "periodicity2", "matrix-iso", "pi-h", "commutant", "center", "parastat",
    "twisted-adjoint", "ghost", "osp22", "verma",
)


def _library_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("cliffordweyl") and m]


class Patch:
    """Replace a function in every module namespace that binds it; undo on exit."""

    def __init__(self):
        self.undo = []

    def replace(self, orig, new):
        for mod in _library_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)
                    self.undo.append((mod, key, orig))

    def replace_attr(self, owner, key, new):
        self.undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def restore(self):
        for owner, key, orig in reversed(self.undo):
            setattr(owner, key, orig)
        self.undo = []


def _coeff_bits(g):
    return max(
        g.re.numerator.bit_length(),
        g.re.denominator.bit_length(),
        g.im.numerator.bit_length(),
        g.im.denominator.bit_length(),
    )


def _element_bits(e):
    best = 0
    for c in e.terms.values():
        for g in getattr(c, "coeffs", {0: c}).values():
            best = max(best, _coeff_bits(g))
    return best


class Tracer:
    """Span stack and counters for the wrapped functions."""

    def __init__(self):
        self.stats = {}
        self.stack = []
        self.depth = {}
        self.max_coeff_bits = 0
        self.patch = Patch()

    def _wrap(self, name, fn, after=None):
        stats = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        stack, depth = self.stack, self.depth

        def wrapper(*args, **kwargs):
            stats["calls"] += 1
            outer = not depth.get(name)
            depth[name] = depth.get(name, 0) + 1
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stats["self_s"] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if outer:
                    stats["s"] += elapsed
                depth[name] -= 1
            if after is not None:
                after(stats, args, result)
            return result

        return wrapper

    def _product_counts(self, stats, args, result):
        a, b = args[:2]
        stats["pairs"] = stats.get("pairs", 0) + len(a.terms) * len(b.terms)
        stats["terms_out"] = stats.get("terms_out", 0) + len(result.terms)
        self.max_coeff_bits = max(self.max_coeff_bits, _element_bits(result))

    def _counting_rref(self, rref):
        """sparse_rref takes any iterable of rows; list them so they can be counted."""
        counts = self.stats.setdefault("linalg.sparse_rref", {"calls": 0, "s": 0.0, "self_s": 0.0})

        def counted(rows):
            rows = list(rows)
            result = rref(rows)
            counts["rows"] = counts.get("rows", 0) + len(rows)
            counts["pivots"] = counts.get("pivots", 0) + len(result)
            return result

        return counted

    def install(self):
        for modname, names in TRACED:
            mod = importlib.import_module("cliffordweyl." + modname)
            for fname in names:
                orig = getattr(mod, fname)
                after = None
                if fname in ("star", "ore_product"):
                    after = self._product_counts
                elif fname == "sparse_rref":
                    orig = self._counting_rref(orig)
                wrapped = self._wrap("%s.%s" % (modname, fname), orig, after)
                self.patch.replace(getattr(mod, fname), wrapped)
        self.patch.replace_attr(
            CochainEvaluator, "__call__", self._wrap(COCHAIN_EVAL, CochainEvaluator.__call__)
        )

    def remove(self):
        self.patch.restore()


def layer_metrics(tracer, before, after, profile_self_s, suite_s, import_ms, overhead_s):
    """Every per-layer metric, by name, as {"value", "unit"}."""
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    put("scalars.self_s", profile_self_s, "s")
    put("scalars.max_coeff_bits", tracer.max_coeff_bits, "bits")
    for name in before:
        hits = after[name][0] - before[name][0]
        misses = after[name][1] - before[name][1]
        put(name + ".hits", hits, "count")
        put(name + ".misses", misses, "count")
        if name != "starprod.cliff_pair":
            put(name + ".size", after[name][2], "count")
    put("starprod.weyl_words.size", len(starprod._weyl_word_cache), "count")
    names = ["%s.%s" % (m, f) for m, fs in TRACED for f in fs] + [COCHAIN_EVAL]
    for name in names:
        stats = tracer.stats.get(name, {})
        put(name + ".calls", stats.get("calls", 0), "count")
        put(name + ".s", stats.get("s", 0.0), "s")
        put(name + ".self_s", stats.get("self_s", 0.0), "s")
    for name in ("starprod.star", "ore.ore_product"):
        stats = tracer.stats.get(name, {})
        put(name + ".pairs", stats.get("pairs", 0), "count")
        put(name + ".terms_out", stats.get("terms_out", 0), "count")
    stats = tracer.stats.get("linalg.sparse_rref", {})
    put("linalg.sparse_rref.rows", stats.get("rows", 0), "count")
    put("linalg.sparse_rref.pivots", stats.get("pivots", 0), "count")
    put("cli.import_ms", import_ms, "ms")
    for suite in SUITES:
        put("suites.%s.s" % suite, suite_s.get(suite, 0.0), "s")
    put("trace.overhead_s", overhead_s, "s")
    return metrics


def profiled_self_s(call):
    """Self time in scalars.py plus fractions.py during one call, under cProfile."""
    prof = cProfile.Profile()
    prof.runcall(call)
    total = 0.0
    for (filename, _, _), row in pstats.Stats(prof).stats.items():
        if filename.endswith(("scalars.py", "fractions.py")):
            total += row[2]
    return total


def inject_faults():
    """Swap in a wrong `star` and a wrong `ore_product`: each adds the unit."""
    from cliffordweyl import ore as ore_mod
    from cliffordweyl.algebra import unit

    star, ore_product = starprod.star, ore_mod.ore_product

    def wrong_star(a, b):
        return star(a, b) + unit(a.signature)

    def wrong_ore_product(x, y):
        return ore_product(x, y) + ore_mod.ore_unit(x.n)

    patch = Patch()
    patch.replace(star, wrong_star)
    patch.replace(ore_product, wrong_ore_product)
    return patch
