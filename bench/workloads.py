"""The four workloads: their inputs, one round of timed operations, checks.

A workload is built from the run's seed (set-up), then `round(rec)` runs
one fixed list of operations through a Recorder.  Every round of a run does
the same operations, so the share of failed operations is the same in every
run.  Only the call under test is timed; each check runs after it, against
an independent computation: a module action, the weight-module action, or
values derived by hand from the defining relations.
"""

import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import cliffordweyl as cw
from cliffordweyl import ore as ore_mod
from cliffordweyl import starprod
from cliffordweyl.algebra import CwElement, CwMonomial
from cliffordweyl.ore import OreElement, OreMonomial
from cliffordweyl.reps import GrassPolyVector

from textcheck import CLI_CORPUS, ReadError, element_terms, read_text

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".bench_tmp")


# Time of `calibration_s` at this machine's usual speed (2-CPU sandbox,
# Python 3.11).  The speed of that machine drifts by up to 2x within a
# minute; a short stdlib loop run between operations tracks the drift, so
# every operation time is scaled by NOMINAL_S / (that loop's time), giving
# seconds at the usual speed.  Work done by the library is not in the loop,
# so a faster or slower library still shows in full.
NOMINAL_S = 0.0036
CALIBRATE_EVERY_S = 0.05


def _calibration_loop():
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
    return time.perf_counter() - start


def calibration_s(spend=0.0):
    """Median time of a fixed loop of Fraction arithmetic (about NOMINAL_S).

    The loop repeats until `spend` seconds have gone into it, at least once.
    """
    times = [_calibration_loop()]
    while sum(times) < spend:
        times.append(_calibration_loop())
    return statistics.median(times)


class Op:
    __slots__ = ("slot", "kind", "name", "s", "checks", "pairs", "error", "wrong", "key")

    def __init__(self, slot, kind, name, s, checks, pairs, error, wrong, key):
        self.slot, self.kind, self.name, self.s = slot, kind, name, s
        self.checks, self.pairs = checks, pairs
        self.error, self.wrong, self.key = error, wrong, key


class Recorder:
    """Times one call per operation and checks its result afterwards.

    An operation's slot is its position in the round, so the same slot in
    every round is the same operation.
    """

    def __init__(self):
        self.ops = []
        self.rounds = 0
        self.slot = 0
        self.pending = []
        self.pending_s = 0.0
        self.last_cal = calibration_s()
        self.factors = []

    def flush(self):
        """Scale the times of the operations since the last calibration."""
        if not self.pending:
            return
        # calibrate for 5% of the time being scaled, so long operations
        # get a proportionally steadier reading
        cal = calibration_s(0.05 * self.pending_s)
        factor = NOMINAL_S / ((cal + self.last_cal) / 2)
        for op in self.pending:
            op.s *= factor
        self.factors.append(factor)
        self.last_cal = cal
        self.pending, self.pending_s = [], 0.0

    def begin_round(self):
        self.rounds += 1
        self.slot = 0

    def run(self, kind, name, call, check, pairs=0, key=None):
        """check(result) returns the number of checks passed, or None if wrong.

        `key` names the oracle of a check that Workload.once defers.
        """
        start = time.perf_counter()
        elapsed = None
        try:
            result = call()
            elapsed = time.perf_counter() - start
            checks = check(result)
        except Exception as exc:  # counted as a failed operation
            if elapsed is None:
                elapsed = time.perf_counter() - start
            error = type(exc).__name__
            result = None
        else:
            error = None
        wrong = error is None and checks is None
        op = Op(self.slot, kind, name, elapsed, 0 if error or wrong else checks,
                pairs, error, wrong, key)
        self.ops.append(op)
        self.pending.append(op)
        self.pending_s += elapsed
        if self.pending_s >= CALIBRATE_EVERY_S:
            self.flush()
        self.slot += 1
        return result


# the per-monomial kernels, each an lru_cache, by layer metric name
KERNELS = {
    "starprod.cliff_pair": starprod._cliff_pair,
    "starprod.weyl_pair": starprod._weyl_pair,
    "ore.lower_past_powers": ore_mod._lower_past_powers,
}


# -- inputs --------------------------------------------------------------------


def _gaussian(rng):
    num = rng.randrange(1, 10) * rng.choice((1, -1))
    return cw.GaussianRational(Fraction(num, rng.randrange(1, 6)), Fraction(rng.randrange(-3, 4)))


def _cw_support(rng, sig, nterms, maxdeg, emax):
    out = set()
    k = sig.n_bose
    while len(out) < nterms:
        mask = rng.getrandbits(sig.n_fermi) if sig.n_fermi else 0
        wp = tuple(rng.randrange(emax + 1) for _ in range(k))
        wq = tuple(rng.randrange(emax + 1) for _ in range(k))
        if mask.bit_count() + sum(wp) + sum(wq) <= maxdeg:
            out.add(CwMonomial(mask, wp, wq))
    return sorted(out)


def _cw_element(rng, sig, support):
    return CwElement(sig, {m: cw.Scalar.from_gaussian(_gaussian(rng)) for m in support})


def _representation(sig):
    """A module of the signature's algebra and a vector to act on."""
    n, k = sig.n_fermi, sig.n_bose
    ell = n // 2
    desc = cw.spin_metaplectic_plus(ell, k) if n % 2 else cw.spin_metaplectic(ell, k)
    terms = {(0, (0,) * k): 1}
    if ell or k:
        terms[((1 << ell) - 1, tuple(1 if j == 0 else 0 for j in range(k)))] = 2
    return desc, GrassPolyVector(ell, k, terms)


def _act_check(desc, v, a, b):
    """Module-action oracle for c = a*b: act(c, v) == act(a, act(b, v))."""

    def check(c):
        return 1 if cw.act(desc, c, v) == cw.act(desc, a, cw.act(desc, b, v)) else None

    return check


class Workload:
    """Inputs made from the seed, and the oracles deferred until measuring ends.

    Products repeat with the same operands in every round.  The first result
    of each is kept, later rounds must reproduce it exactly, and the oracle
    runs on it once, in `verify`, after the measured rounds, so that the
    oracles' cost does not crowd out rounds.
    """

    def __init__(self, seed):
        self.seed = seed
        self.first = {}
        self.deferred = []
        self.cleared = {name: (0, 0, 0) for name in KERNELS}

    def clear_caches(self, *names):
        """Empty kernel caches, so the next product starts cold.

        cache_clear also resets the hit and miss counters, so they are
        added to `cleared` first, with the largest size the cache reached.
        """
        for name in names:
            info = KERNELS[name].cache_info()
            hits, misses, size = self.cleared[name]
            self.cleared[name] = (hits + info.hits, misses + info.misses, max(size, info.currsize))
            KERNELS[name].cache_clear()

    def kernel_counters(self):
        """(hits, misses, largest size) of each kernel cache so far."""
        out = {}
        for name, fn in KERNELS.items():
            info = fn.cache_info()
            hits, misses, size = self.cleared[name]
            out[name] = (hits + info.hits, misses + info.misses, max(size, info.currsize))
        return out

    def once(self, key, oracle):
        """A check against the first result; the oracle itself is deferred."""

        def check(result):
            if key in self.first:
                return 1 if result == self.first[key] else None
            self.first[key] = result
            self.deferred.append((key, oracle, result))
            return 1

        return check

    def verify(self, ops):
        """Run the deferred oracles; mark every operation of a failing one wrong."""
        bad = set()
        for key, oracle, result in self.deferred:
            try:
                ok = oracle(result) is not None
            except Exception:  # an oracle that cannot run is a failed check
                ok = False
            if not ok:
                bad.add(key)
        self.deferred = []
        for op in ops:
            if op.key is not None and op.key in bad and not op.error:
                op.wrong, op.checks = True, 0

    def suite_seed(self, j):
        """The seed of the j-th suite call: drawn from the run's seed, the same in every round."""
        return random.Random("%d/%d" % (self.seed, j)).getrandbits(32)


def _text_check(e):
    def check(text):
        try:
            return 1 if read_text(text) == element_terms(e) else None
        except (ReadError, ValueError):
            return None

    return check


def _suite_check(expected_cases):
    def check(result):
        return result.cases if result.passed and result.cases == expected_cases else None

    return check


def _run_suites(rec, workload):
    for j, (name, algebra, params, cases) in enumerate(workload.suites):
        alg = cw.parse_algebra(algebra) if algebra else None
        seed = workload.suite_seed(j)
        rec.run(
            "suite",
            name,
            lambda: cw.run_suite(name, seed=seed, algebra=alg, **params),
            _suite_check(cases),
        )


def _render(rec, workload, elements):
    """Print each output through its text form and read it back."""
    for i, e in enumerate(elements):
        key = ("str", i)
        rec.run("expr", "str", lambda: str(e), workload.once(key, _text_check(e)), key=key)


def _sig(n, k2):
    return cw.AlgebraSignature(n, k2 // 2)


# -- cw-suites -----------------------------------------------------------------


class CwSuites(Workload):
    """Suite checks on small cw algebras: many small products, warm caches.

    Case counts follow from each suite's definition: associativity checks one
    triple per case; odd-split checks 3 projection identities plus 2 per pair
    at ranks 0, 1, 2; hochschild checks d^2 on each triple plus 66 relative
    conditions (2 subalgebra elements x 3^2 argument pairs for each of the
    left pull-out, the slot move and the right pull-out, and 2 x 2 slots x 3
    samples for the vanishing condition).
    """

    PROBES = 30

    # (suite, algebra, parameters, expected case count)
    suites = (
        ("associativity", "cw:1,2", {"cases": 30}, 30),
        ("associativity", "cw:1,4", {"cases": 15}, 15),
        ("associativity", "cw:2,2", {"cases": 25}, 25),
        ("hochschild", None, {"cases": 12}, 12 + 66),
        ("odd-split", None, {"cases": 8}, 3 * (3 + 2 * 8)),
    )

    def __init__(self, seed):
        super().__init__(seed)
        rng = random.Random(seed)
        shape = random.Random(0)
        self.probes = []
        for i in range(self.PROBES):
            sig = (_sig(1, 2), _sig(1, 4), _sig(2, 2))[i % 3]
            a, b = (
                _cw_element(rng, sig, _cw_support(shape, sig, 3, 4, 2)) for _ in range(2)
            )
            self.probes.append((a, b) + _representation(sig))

    def round(self, rec):
        rec.begin_round()
        _run_suites(rec, self)
        outs = []
        for i, (a, b, desc, v) in enumerate(self.probes):
            outs.append(
                rec.run(
                    "product",
                    "star",
                    lambda: cw.star(a, b),
                    self.once(i, _act_check(desc, v, a, b)),
                    pairs=len(a.terms) * len(b.terms),
                    key=i,
                )
            )
        _render(rec, self, [e for e in outs if e is not None])


# -- cw-wide -------------------------------------------------------------------


class CwWide(Workload):
    """Large star products with cold kernel caches, two per signature.

    The monomial supports are fixed, so every seed multiplies the same
    monomial pairs and the work per round does not depend on the seed; the
    seed draws the coefficients.  The caches are emptied before each round.
    """

    # (n, 2k, terms of a, max degree, max exponent per variable)
    SHAPES = ((4, 4, 32, 8, 2), (2, 6, 26, 6, 2), (0, 8, 22, 6, 2))
    PER_SHAPE = 2

    def __init__(self, seed):
        super().__init__(seed)
        rng = random.Random(seed)
        self.products = []
        for n, k2, terms, maxdeg, emax in self.SHAPES:
            sig = _sig(n, k2)
            shape = random.Random(1000 * n + k2)
            for _ in range(self.PER_SHAPE):
                sa = _cw_support(shape, sig, terms, maxdeg, emax)
                sb = _cw_support(shape, sig, terms + 1, maxdeg, emax)
                a, b = _cw_element(rng, sig, sa), _cw_element(rng, sig, sb)
                self.products.append((a, b) + _representation(sig))

    def round(self, rec):
        rec.begin_round()
        self.clear_caches(*KERNELS)
        starprod._weyl_word_cache.clear()
        outs = []
        for i, (a, b, desc, v) in enumerate(self.products):
            outs.append(
                rec.run(
                    "product",
                    "star",
                    lambda: cw.star(a, b),
                    self.once(i, _act_check(desc, v, a, b)),
                    pairs=len(a.terms) * len(b.terms),
                    key=i,
                )
            )
        _render(rec, self, [e for e in outs if e is not None])


# -- deform-transport ------------------------------------------------------------


def _ore_power_pair(beta, gamma):
    left = OreElement(0, {OreMonomial(0, 0, beta, 0): cw.GaussianRational(1)})
    right = OreElement(0, {OreMonomial(0, gamma, 0, 0): cw.GaussianRational(1)})
    return left, right


def _verma_check(lam, x, y, f):
    """Weight-module oracle: the product acts as the two factors in turn."""

    def check(p):
        return 1 if cw.verma_apply(lam, p, f) == cw.verma_apply(lam, x, cw.verma_apply(lam, y, f)) else None

    return check


class DeformTransport(Workload):
    """The ore product, its kernel, and the transport and matrix suites.

    Case counts follow from each suite's definition and grid.  ghost checks
    9 identities and one commutator per w at each rank 0-2, plus one check
    per random value and rank.  The counts that come from library-side
    reports over fixed grids (parastat, twisted-adjoint, osp22 and cocycle's
    comparison table of 34) are the sizes of those grids, which no seed or
    parameter changes.
    """

    PAIRS = ((8, 8), (16, 24), (30, 12), (24, 40), (40, 40), (60, 60))
    # E-^1500 E+ recurses once per E- power in the kernel and fails with
    # RecursionError; it is kept, and counted as failed, until that is fixed.
    DEEP = (1500, 1)

    suites = (
        ("associativity", "ore:1", {"cases": 20}, 20),
        ("associativity", "ore:2", {"cases": 8}, 8),
        ("a0-iso", None, {"cases": 30}, 2 * (30 + 25)),
        ("cocycle", None, {"cases": 10}, 2 * 10 + 34),
        ("periodicity1", None, {"cases": 3}, 4 * 2 * 3),
        ("periodicity2", None, {"cases": 5}, 2 * 2 * 5),
        ("matrix-iso", None, {"cases": 3}, 2 * (3 + 2)),
        ("pi-h", None, {}, 10 * 5 + 10 * 17),
        ("commutant", None, {}, 20),
        ("center", None, {}, 3 * 4),
        ("parastat", None, {}, 345),
        ("twisted-adjoint", None, {}, 2032),
        ("ghost", None, {"cases": 4}, 3 * 9 + (1 + 3 + 5) + 3 * 4),
        ("osp22", None, {}, 54),
        ("verma", None, {"cases": 2}, 7 + 2 * 51 * 4),
    )

    def __init__(self, seed):
        super().__init__(seed)
        rng = random.Random(seed)
        self.lam = _gaussian(rng)
        self.f = {rng.randrange(6): cw.GaussianRational(1)}

    def round(self, rec):
        rec.begin_round()
        _run_suites(rec, self)
        outs = []
        for beta, gamma in self.PAIRS + (self.DEEP,):
            x, y = _ore_power_pair(beta, gamma)
            # each pair starts from an empty kernel cache, so entries left by
            # an earlier pair can neither speed it up nor let DEEP pass
            self.clear_caches("ore.lower_past_powers")
            outs.append(
                rec.run(
                    "product",
                    "E-^%d*E+^%d" % (beta, gamma),
                    lambda: cw.ore_product(x, y),
                    self.once((beta, gamma), _verma_check(self.lam, x, y, self.f)),
                    pairs=1,
                    key=(beta, gamma),
                )
            )
        _render(rec, self, [e for e in outs if e is not None])


# -- cli -----------------------------------------------------------------------


def cli_command(fault=False):
    """The child command line for `cliffordweyl`, run from this checkout."""
    if fault:
        return [sys.executable, os.path.join(BENCH_DIR, "faulty_cli.py")]
    return [sys.executable, "-m", "cliffordweyl.cli"]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv, stderr_path):
    """Run one child to completion; returns (exit code, stdout, peak RSS in KiB)."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT
        )
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def _gen_sum(shape, rng, names, ctx):
    """A random sum as text, and a function computing it without the parser.

    `shape` picks the terms and generators, `rng` the coefficients.
    """
    terms, parts = [], []
    for _ in range(shape.randrange(2, 5)):
        num, den = rng.randrange(1, 8) * rng.choice((1, -1)), rng.randrange(1, 5)
        if shape.random() < 0.25:
            g, h = shape.sample(names, 2)
            parts.append("%d/%d*[%s,%s]" % (num, den, g, h))
            terms.append((Fraction(num, den), ("lie", g, h)))
        else:
            word = [shape.choice(names) for _ in range(shape.randrange(1, 4))]
            parts.append("%d/%d*%s" % (num, den, "*".join(word)))
            terms.append((Fraction(num, den), ("word",) + tuple(word)))
    text = " + ".join(parts)

    def build():
        total = ctx.zero()
        for c, term in terms:
            gens = [ctx.generator(name) for name in term[1:]]
            if term[0] == "lie":
                value = gens[0] * gens[1] - gens[1] * gens[0]
            else:
                value = gens[0]
                for g in gens[1:]:
                    value = value * g
            total = total + value.scale(c)
        return total

    return text, build


class Cli(Workload):
    """Sequential `cliffordweyl` children, plus the parser and printer in process.

    One round runs the hand-checked corpus, a small suite report three times
    (its bytes must agree), the failing E-^1500*E+ expression, and a seeded
    set of generated product expressions through parse, evaluate and str.
    """

    EXPRS = 40
    REPORTS = 3
    ALGEBRAS = ("cw:2,2", "cw:1,4", "ore:1")

    def __init__(self, seed, fault=False):
        super().__init__(seed)
        rng = random.Random(seed)
        self.command = cli_command(fault)
        self.child_rss_kib = 0
        self.suite_seed = rng.getrandbits(32)
        self.exprs = []
        shape = random.Random(0)
        for _ in range(self.EXPRS):
            algebra = shape.choice(self.ALGEBRAS)
            ctx = cw.parse_algebra(algebra)
            if ctx.kind == "cw":
                sig = ctx.signature
                names = ["w%d" % (i + 1) for i in range(sig.n_fermi)]
                names += ["%s%d" % (x, j + 1) for x in "pq" for j in range(sig.n_bose)]
            else:
                names = ["w%d" % (i + 1) for i in range(2 * ctx.n + 1)] + ["E+", "E-"]
            (xt, xb), (yt, yb) = (_gen_sum(shape, rng, names, ctx) for _ in range(2))
            self.exprs.append((ctx, "(%s) * (%s)" % (xt, yt), xb(), yb()))

    def round(self, rec):
        rec.begin_round()
        os.makedirs(TMP, exist_ok=True)
        err_path = os.path.join(TMP, "stderr.txt")
        for algebra, text, expected in CLI_CORPUS:
            want = read_text(expected)
            rec.run(
                "cli",
                "expr",
                lambda: run_child(self.command + ["--algebra", algebra, text], err_path),
                lambda res: self._check_line(res, want),
            )
        reports = []
        for i in range(self.REPORTS):
            path = os.path.join(TMP, "report-%d.json" % i)
            argv = self.command + [
                "--suite", "relations", "--algebra", "cw:2,4",
                "--seed", str(self.suite_seed), "--json", path,
            ]
            rec.run(
                "cli",
                "suite",
                lambda: run_child(argv, err_path),
                lambda res: self._check_report(res, path, reports),
            )
        rec.run(
            "cli",
            "deep",
            lambda: run_child(self.command + ["--algebra", "ore:0", "E-^1500*E+"], err_path),
            self._check_deep,
        )
        for ctx, text, x, y in self.exprs:
            rec.run(
                "expr",
                "parse-evaluate-str",
                lambda: self._through_text(ctx, text),
                lambda res: self._check_expr(res, x, y),
                pairs=len(x.terms) * len(y.terms),
            )

    @staticmethod
    def _through_text(ctx, text):
        value = cw.evaluate(cw.parse(text), ctx)
        return value, str(value)

    @staticmethod
    def _check_expr(res, x, y):
        value, text = res
        if value != x * y:
            return None
        return _text_check(value)(text)

    def _exited(self, res):
        code, out, rss_kib = res
        self.child_rss_kib = max(self.child_rss_kib, rss_kib)
        if code != 0:
            raise ChildFailed("exit code %d" % code)
        return out.decode()

    def _check_line(self, res, want):
        try:
            return 1 if read_text(self._exited(res)) == want else None
        except (ReadError, ValueError):
            return None

    def _check_report(self, res, path, reports):
        self._exited(res)
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        reports.append(data)
        report = json.loads(data)
        # relations on cw:2,4: {wi,wj} 4, [pi,qj] and [qj,pi] 8, [p,p] 4,
        # [q,q] 4 and {w,bose} 8
        ok = report["pass"] and report["cases"] == 28 and data == reports[0]
        return 1 if ok else None

    def _check_deep(self, res):
        terms = read_text(self._exited(res))
        x, y = _ore_power_pair(*DeformTransport.DEEP)
        got = OreElement(0, {_ore_monomial(key): c for key, c in _split_lam(terms)})
        lam, f = cw.GaussianRational(Fraction(3, 7), Fraction(1, 5)), {2: cw.GaussianRational(1)}
        want = cw.verma_apply(lam, x, cw.verma_apply(lam, y, f))
        return 1 if cw.verma_apply(lam, got, f) == want else None


def _split_lam(terms):
    """(monomial factors + L power, coefficient) pairs of a read_text map."""
    for factors, coeffs in terms.items():
        for power, (re_part, im_part) in coeffs.items():
            yield (factors, power), cw.GaussianRational(re_part, im_part)


def _ore_monomial(key):
    factors, power = key
    exps = dict(factors)
    cliff = sum(1 << (int(name[1:]) - 1) for name in exps if name.startswith("w"))
    return OreMonomial(cliff, exps.get("E+", 0), exps.get("E-", 0), power)


class ChildFailed(Exception):
    """A child exited with a non-zero code."""


WORKLOADS = {
    "cw-suites": CwSuites,
    "cw-wide": CwWide,
    "deform-transport": DeformTransport,
    "cli": Cli,
}


def make(name, seed, fault=False):
    """Build a workload's inputs from the seed (the set-up that is timed)."""
    if name == "cli":
        return Cli(seed, fault)
    return WORKLOADS[name](seed)
