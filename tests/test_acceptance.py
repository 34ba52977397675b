"""Acceptance gate: twelve criteria, exact equality, fixed seeds.

Each criterion is one test, so `pytest -v` prints one pass/fail line per
criterion; the body also prints a `[criterion N] PASS` line for -s runs.
Runtime bounds from the contract are asserted where they apply.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from cliffordweyl.algebra import AlgebraSignature, CwElement, CwMonomial
from cliffordweyl.deform import periodicity2_forward, periodicity2_inverse
from cliffordweyl.exprs import parse, parse_algebra, print_expr
from cliffordweyl.ore import OreMonomial
from cliffordweyl.periodicity import TensorElement, periodicity1_forward, periodicity1_inverse, tensor_of
from cliffordweyl.reps import (
    GrassPolyVector,
    act,
    metaplectic,
    spin,
    spin_metaplectic,
    spin_metaplectic_minus,
    spin_metaplectic_plus,
    spin_minus,
    spin_plus,
)
from cliffordweyl.scalars import Scalar
from cliffordweyl.starprod import star
from cliffordweyl.suites import run_suite

CW_GRID = [(1, 2), (2, 2), (3, 2), (4, 2), (1, 4)]
ORE_RANKS = [0, 1, 2]


def _line(num, ok, label):
    print("[criterion %d] %s - %s" % (num, "PASS" if ok else "FAIL", label))
    assert ok, "criterion %d failed: %s" % (num, label)


def _cw(n, two_k):
    return parse_algebra("cw:%d,%d" % (n, two_k))


def _ore(n):
    return parse_algebra("ore:%d" % n)


def _rand_element(rng, sig, nterms=3, maxdeg=4):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        while True:
            cliff = rng.getrandbits(sig.n_fermi) if sig.n_fermi else 0
            wp = tuple(rng.randint(0, 2) for _ in range(sig.n_bose))
            wq = tuple(rng.randint(0, 2) for _ in range(sig.n_bose))
            m = CwMonomial(cliff, wp, wq)
            if m.z_degree() <= maxdeg:
                break
        terms[m] = Scalar.of(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2)
        )
    return CwElement(sig, terms)


def test_criterion_01_presentations():
    ok = True
    for n, two_k in CW_GRID:
        start = time.perf_counter()
        result = run_suite("relations", seed=1, algebra=_cw(n, two_k))
        elapsed = time.perf_counter() - start
        ok = ok and result.passed and elapsed < 5.0
    for n in ORE_RANKS:
        start = time.perf_counter()
        result = run_suite("ore-relations", seed=1, algebra=_ore(n))
        elapsed = time.perf_counter() - start
        ok = ok and result.passed and elapsed < 5.0
    _line(1, ok, "generator presentations, both families, < 5s each")


def test_criterion_02_associativity():
    start = time.perf_counter()
    ok = True
    for n, two_k in CW_GRID:
        result = run_suite(
            "associativity", seed=2, algebra=_cw(n, two_k), cases=200, maxdeg=4
        )
        ok = ok and result.passed and result.cases == 200
    for n in ORE_RANKS:
        result = run_suite(
            "associativity", seed=2, algebra=_ore(n), cases=200, maxdeg=4
        )
        ok = ok and result.passed and result.cases == 200
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _line(2, ok, "200 seeded triples per signature, both products, < 60s")


def test_criterion_03_representation_oracle():
    descriptors = [
        spin(2),
        spin_plus(1),
        spin_minus(1),
        metaplectic(1),
        spin_metaplectic(1, 1),
        spin_metaplectic_plus(1, 1),
        spin_metaplectic_minus(1, 1),
    ]
    ok = True
    for desc in descriptors:
        rng = random.Random("acceptance:" + desc.kind.value)
        sig = desc.signature()
        for _ in range(300):
            a = _rand_element(rng, sig)
            b = _rand_element(rng, sig)
            terms = {}
            for _ in range(rng.randint(1, 2)):
                g = rng.getrandbits(desc.ell) if desc.ell else 0
                e = tuple(rng.randint(0, 3) for _ in range(desc.k))
                terms[(g, e)] = Scalar.of(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                    rng.randint(-2, 2),
                )
            v = GrassPolyVector(desc.ell, desc.k, terms)
            if act(desc, star(a, b), v) != act(desc, a, act(desc, b, v)):
                ok = False
                break
        if not ok:
            break
    _line(3, ok, "module action matches the product, 300 cases per kind")


def test_criterion_04_periodicity():
    ok = run_suite("periodicity1", seed=4, cases=10).passed
    # the other round-trip direction, on pure tensors
    for m, n, k in ((1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 2, 1)):
        rng = random.Random("acc4:%d%d%d" % (m, n, k))
        left = AlgebraSignature(2 * m, 0)
        right = AlgebraSignature(n, k)
        for _ in range(20):
            X = tensor_of(_rand_element(rng, left), _rand_element(rng, right))
            ok = ok and periodicity1_forward(m, n, k, periodicity1_inverse(m, n, k, X)) == X
    ok = ok and run_suite("periodicity2", seed=4, cases=10).passed
    for n in (1, 2):
        rng = random.Random("acc4ore:%d" % n)
        for _ in range(20):
            ml = CwMonomial(rng.getrandbits(2 * n), (), ())
            m = OreMonomial(rng.getrandbits(1), rng.randrange(2), rng.randrange(2), rng.randrange(2))
            X = TensorElement(AlgebraSignature(2 * n, 0), 0, {(ml, m): Scalar.of(1)})
            ok = ok and periodicity2_forward(n, periodicity2_inverse(n, X)) == X
    ok = ok and run_suite("matrix-iso", seed=4, cases=10).passed
    _line(4, ok, "dimension shifts both ways; matrix realization faithful")


def test_criterion_05_spin_lemma():
    result = run_suite("spin-lemma", seed=5)
    _line(5, result.passed, "volume word matrix and square signs")


def test_criterion_06_parastatistics():
    result = run_suite("parastat", seed=6)
    ok = result.passed
    # dimension formula values; the two k=2-adjacent entries come from the
    # formula itself: n(n+1)/2 + 2(n+1)k + k(2k+1)  [DERIVED]
    ok = ok and result.details["dims"] == {
        "cw:1,2": 8,
        "cw:2,2": 12,
        "cw:3,2": 17,
        "cw:1,4": 19,
    }
    _line(6, ok, "triple relation exhaustive; dimension formula matches")


def test_criterion_07_deformation():
    trunc = run_suite("a0-iso", seed=7, cases=100)
    ok = trunc.passed and trunc.cases == 2 * 100 + 2 * 25
    law = run_suite("cocycle", seed=7, cases=50)
    ok = ok and law.passed
    # frozen regression value for the proportionality constant
    ok = ok and law.details["constants"] == {"ore:0": "-2", "ore:1": "-2"}
    _line(7, ok, "degree-zero truncation, cocycle law, frozen constant -2")


def test_criterion_08_ghost():
    result = run_suite("ghost", seed=8, cases=10)
    _line(8, result.passed, "involution-like element identities, 10 random values")


def test_criterion_09_verma_and_finite_reps():
    start = time.perf_counter()
    ok = run_suite("verma", seed=9).passed
    ok = ok and run_suite("pi-h", seed=9).passed
    ok = ok and run_suite("commutant", seed=9).passed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _line(9, ok, "highest-weight kill, module relations, scalar commutant, < 30s")


def test_criterion_10_center():
    result = run_suite("center", seed=10, maxdeg=4)
    ok = result.passed and result.details["basis"] == {"ore:0": ["1", "L", "L^2"]}
    _line(10, ok, "degree-4 centralizer is exactly {1, L, L^2}")


def test_criterion_11_hochschild():
    result = run_suite("hochschild", seed=11, cases=100)
    ok = result.passed and result.cases >= 100
    _line(11, ok, "squared differential vanishes; normalized relative conditions")


def test_criterion_12_cli_determinism(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    base = [
        sys.executable,
        "-m",
        "cliffordweyl.cli",
        "--suite",
        "cocycle",
        "--seed",
        "12",
        "--cases",
        "5",
        "--json",
    ]
    r1 = subprocess.run(base + [str(first)], capture_output=True)
    r2 = subprocess.run(base + [str(second)], capture_output=True)
    ok = r1.returncode == 0 and r2.returncode == 0
    ok = ok and first.read_bytes() == second.read_bytes()
    ok = ok and json.loads(first.read_bytes())["pass"] is True

    expr = subprocess.run(
        [sys.executable, "-m", "cliffordweyl.cli", "--algebra", "cw:0,2", "p1*q1 - q1*p1"],
        capture_output=True,
        text=True,
    )
    ok = ok and expr.returncode == 0 and expr.stdout.strip() == "1"

    corpus = [
        "p1*q1 - q1*p1",
        "(1/2 + 1/2*i)*w1",
        "[E+,E-] + 1/4",
        "{p1,q1}",
        "[w1,w2]+",
        "2w1 q1 - i/2",
        "(L + 1)^3*P",
        "-w1^2/4",
    ]
    for text in corpus:
        tree = parse(text)
        ok = ok and parse(print_expr(tree)) == tree
    ok = ok and print_expr(parse("(1/2 + 1/2*i)*w1")) == "(1/2 + 1/2*i)*w1"
    _line(12, ok, "byte-identical reports; parser round-trip corpus")
