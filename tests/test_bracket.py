"""The one-pass graded brackets against the split-and-sum oracle.

Every bracket of both families is one `sparse.pair_product` pass with its
family's bracket kernel.  `reference_bracket.ref_graded_bracket` splits the
arguments into homogeneous parts and sums two full products per pair of
parts; these seeded tests compare the two under each grading the package
uses, and the total degree mod 2, on mixed-parity multi-term elements: cw
at t = 1, 0, L and 1/3 - i, ore at ranks 0-2 with L and ghost terms and
E± exponents up to 4.  A structural pin checks that no bracket calls a
product.
"""

import random
import sys
from fractions import Fraction
from functools import partial

import pytest
from reference_bracket import GRADINGS, ref_graded_bracket

from cliffordweyl import ore, starprod
from cliffordweyl.algebra import AlgebraSignature, CwElement, CwMonomial, scalar_element, zero
from cliffordweyl.ore import OreElement, OreMonomial, ghost_theta
from cliffordweyl.osp import twisted_adjoint
from cliffordweyl.scalars import S_LAMBDA, S_ONE, Scalar, gr_ratio
from cliffordweyl.sparse import SignatureMismatch, graded_bracket


def _total(family):
    degree, odd = GRADINGS["total"][0 if family == "cw" else 1], GRADINGS["total"][2]
    return partial(graded_bracket, degree=degree, odd=odd)


BRACKETS = {
    "cw": {
        "lie": starprod.lie_bracket,
        "anti": starprod.anti_bracket,
        "super": starprod.super_bracket,
        "twisted-adjoint": twisted_adjoint,
        "total": _total("cw"),
    },
    "ore": {
        "lie": ore.ore_lie_bracket,
        "anti": ore.ore_anti_bracket,
        "super": ore.ore_super_bracket,
        "total": _total("ore"),
    },
}


def reference(family, name, a, b):
    cw_degree, ore_degree, odd = GRADINGS[name]
    return ref_graded_bracket(a, b, cw_degree if family == "cw" else ore_degree, odd)


def _coeff(rng):
    return gr_ratio(rng.randint(-5, 5), rng.randint(1, 4), rng.randint(-3, 3)) or gr_ratio(1, 1)


def rand_cw(rng, sig, nterms=4, maxdeg=5):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        cliff = rng.getrandbits(sig.n_fermi) if sig.n_fermi else 0
        wp = tuple(rng.randint(0, 2) for _ in range(sig.n_bose))
        wq = tuple(rng.randint(0, 2) for _ in range(sig.n_bose))
        m = CwMonomial(cliff, wp, wq)
        if m.z_degree() <= maxdeg:
            coeff = _coeff(rng)
            terms[m] = S_LAMBDA * _coeff(rng) + coeff if rng.random() < 0.3 else coeff
    return CwElement(sig, terms)


def rand_ore(rng, n, nterms=4):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        m = OreMonomial(rng.getrandbits(2 * n + 1), rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 1))
        terms[m] = _coeff(rng)
    x = OreElement(n, terms)
    return x + ghost_theta(n).scale(_coeff(rng)) if rng.random() < 0.3 else x


T_VALUES = {"1": S_ONE, "0": Scalar(), "L": S_LAMBDA, "1/3-i": Scalar.of(Fraction(1, 3), -1)}
SIGNATURES = ((0, 1), (2, 1), (3, 1), (1, 2), (2, 2))


@pytest.mark.parametrize("t", sorted(T_VALUES))
@pytest.mark.parametrize("name", sorted(BRACKETS["cw"]))
def test_cw_bracket_matches_split_and_sum(name, t):
    rng = random.Random("cw %s %s" % (name, t))
    bracket = BRACKETS["cw"][name]
    for _ in range(40):
        sig = AlgebraSignature(*rng.choice(SIGNATURES), T_VALUES[t])
        a, b = rand_cw(rng, sig), rand_cw(rng, sig)
        assert bracket(a, b) == reference("cw", name, a, b)


@pytest.mark.parametrize("name", sorted(BRACKETS["ore"]))
def test_ore_bracket_matches_split_and_sum(name):
    rng = random.Random("ore %s" % name)
    bracket = BRACKETS["ore"][name]
    for _ in range(60):
        n = rng.randint(0, 2)
        a, b = rand_ore(rng, n), rand_ore(rng, n)
        assert bracket(a, b) == reference("ore", name, a, b)


def _cases():
    """One mixed-parity pair per family and space, with zero and constant arguments."""
    rng = random.Random(3)
    out = []
    for sig in (AlgebraSignature(2, 1), AlgebraSignature(1, 2, S_LAMBDA)):
        a, b, c = rand_cw(rng, sig), rand_cw(rng, sig), scalar_element(sig, Scalar.of(Fraction(2, 3), 1))
        out += [("cw", a, b), ("cw", zero(sig), a), ("cw", a, zero(sig)), ("cw", c, a), ("cw", a, c), ("cw", c, c)]
    for n in (0, 2):
        a, b, c = rand_ore(rng, n), rand_ore(rng, n), ore.ore_scalar(n, Fraction(-1, 2))
        out += [("ore", a, b), ("ore", ore.ore_zero(n), a), ("ore", a, ore.ore_zero(n)), ("ore", c, a), ("ore", a, c)]
    return out


def test_zero_and_constant_arguments():
    for family, a, b in _cases():
        for name, bracket in BRACKETS[family].items():
            got = bracket(a, b)
            assert got == reference(family, name, a, b)
            if not a or not b:
                assert not got
    sig = AlgebraSignature(1, 1)
    c, x = scalar_element(sig, 3), rand_cw(random.Random(4), sig)
    assert not starprod.lie_bracket(c, x)
    assert starprod.anti_bracket(c, x) == x.scale(6)


@pytest.mark.parametrize("family", ["cw", "ore"])
def test_mismatched_spaces_raise(family):
    if family == "cw":
        x = rand_cw(random.Random(5), AlgebraSignature(1, 1))
        others = [rand_cw(random.Random(6), sig) for sig in (AlgebraSignature(2, 1), AlgebraSignature(1, 1, S_LAMBDA))]
    else:
        x, others = rand_ore(random.Random(5), 0), [rand_ore(random.Random(6), 1)]
    for y in others:
        for bracket in BRACKETS[family].values():
            with pytest.raises(SignatureMismatch):
                bracket(x, y)
            with pytest.raises(SignatureMismatch):
                bracket(y, x)


def test_brackets_call_no_product(monkeypatch):
    # every package binding of `star` and `ore_product`, and `*` on both
    # families' elements, raises
    cases = _cases()
    want = [reference(family, name, a, b) for family, a, b in cases for name in BRACKETS[family]]

    def raising(*args):
        raise AssertionError("a bracket called a product")

    products = (starprod.star, ore.ore_product)
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.partition(".")[0] == "cliffordweyl":
            for key, value in list(vars(mod).items()):
                if any(value is f for f in products):
                    monkeypatch.setattr(mod, key, raising)
    for family in (CwElement, OreElement):
        monkeypatch.setattr(family, "__mul__", raising)
    got = [BRACKETS[family][name](a, b) for family, a, b in cases for name in BRACKETS[family]]
    assert got == want
    with pytest.raises(AssertionError):
        cases[0][1] * cases[0][2]
