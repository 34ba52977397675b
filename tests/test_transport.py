"""The closed-form transport maps against their product-built references.

`reference_transport.py` keeps the earlier maps, which extend the images of
the generators through star words, or multiply monomial images, one product
at a time.  The library's maps send each monomial to its image directly;
here both are run on seeded random elements and must agree exactly, text
included, also with every product refused.  A fault injected into the maps
themselves must fail the suites that use them.
"""

import random
import sys
from fractions import Fraction

import pytest
from reference_transport import (
    ore_tensor,
    ref_clifford_op_to_symbol,
    ref_iso_a0_to_cw,
    ref_iso_cw_to_a0,
    ref_odd_join,
    ref_odd_split,
    ref_periodicity1_forward,
    ref_periodicity1_inverse,
    ref_periodicity2_forward,
    ref_periodicity2_inverse,
    tensor_unit,
)

from cliffordweyl import deform, periodicity, sparse, starprod
from cliffordweyl.algebra import (
    AlgebraError,
    AlgebraSignature,
    CwElement,
    CwMonomial,
    SignatureMismatch,
    monomial_element,
    unit,
)
from cliffordweyl.deform import (
    cw_odd_signature,
    iso_a0_to_cw,
    iso_cw_to_a0,
    periodicity2_forward,
    periodicity2_inverse,
)
from cliffordweyl.linalg import Matrix
from cliffordweyl.ore import OreElement, OreMonomial, ore_e_minus, ore_e_plus, ore_unit
from cliffordweyl.periodicity import (
    cw_to_matrix,
    odd_join,
    odd_split,
    periodicity1_forward,
    periodicity1_inverse,
    tensor_of,
)
from cliffordweyl.reps import clifford_op_to_symbol
from cliffordweyl.scalars import GaussianRational, Scalar, gr_ratio, i_power
from cliffordweyl.suites import run_suite

SHIFT_GRID = [(1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 0, 2), (1, 3, 0), (3, 1, 1)]


def rand_cw(rng, sig, nterms=5, maxdeg=6, with_lam=True):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        while True:
            cliff = rng.getrandbits(sig.n_fermi) if sig.n_fermi else 0
            wp = tuple(rng.randint(0, 3) for _ in range(sig.n_bose))
            wq = tuple(rng.randint(0, 3) for _ in range(sig.n_bose))
            m = CwMonomial(cliff, wp, wq)
            if m.z_degree() <= maxdeg:
                break
        c = Scalar.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2))
        if with_lam and rng.random() < 0.3:
            c = c + Scalar.lam(rng.randint(1, 2))
        terms[m] = c
    return CwElement(sig, terms)


def rand_ore(rng, n, nterms=5, maxdeg=6):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        while True:
            cliff = rng.getrandbits(2 * n + 1)
            a, b, r = rng.randrange(maxdeg + 1), rng.randrange(maxdeg + 1), rng.randrange(3)
            if cliff.bit_count() + a + b + 2 * r <= maxdeg:
                break
        terms[OreMonomial(cliff, a, b, r)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return OreElement(n, terms)


def rand_a0(rng, n, nterms=5, maxexp=6):
    """A parameter-free rank-n element with E+ and E- exponents up to maxexp."""
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        m = OreMonomial(rng.getrandbits(2 * n + 1), rng.randint(0, maxexp), rng.randint(0, maxexp), 0)
        terms[m] = GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2))
    return OreElement(n, terms)


def rand_operator(rng, n):
    """A 2^n x 2^n matrix of random Scalars, some with L powers, about half of them zero."""
    dim = 1 << n
    entries = {}
    for i in range(dim):
        for j in range(dim):
            if rng.random() < 0.5:
                c = Scalar.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2))
                entries[i, j] = (c + Scalar.lam(rng.randint(1, 2))) if rng.random() < 0.3 else c
    return Matrix.from_entries((dim, dim), entries)


def same(got, want):
    return got == want and str(got) == str(want)


@pytest.mark.parametrize("mnk", SHIFT_GRID, ids=str)
def test_periodicity1_matches_reference(mnk):
    m, n, k = mnk
    rng = random.Random("p1:%d%d%d" % mnk)
    src, left, right = AlgebraSignature(2 * m + n, k), AlgebraSignature(2 * m, 0), AlgebraSignature(n, k)
    for _ in range(30):
        x = rand_cw(rng, src)
        assert same(periodicity1_forward(m, n, k, x), ref_periodicity1_forward(m, n, k, x)), x
        X = tensor_of(rand_cw(rng, left, nterms=3), rand_cw(rng, right, nterms=3))
        assert same(periodicity1_inverse(m, n, k, X), ref_periodicity1_inverse(m, n, k, X)), X


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_periodicity2_matches_reference(n):
    rng = random.Random("p2:%d" % n)
    left = AlgebraSignature(2 * n, 0)
    for _ in range(30):
        x = rand_ore(rng, n)
        fx = periodicity2_forward(n, x)
        assert same(fx, ref_periodicity2_forward(n, x)), x
        # a tensor off the image's parity pattern, so both branches of the inverse run
        y = fx + tensor_of(
            monomial_element(left, CwMonomial(rng.getrandbits(2 * n), (), ())),
            OreElement(0, {OreMonomial(rng.randint(0, 1), rng.randint(0, 3), rng.randint(0, 3), 0): 3}),
        )
        assert same(periodicity2_inverse(n, y), ref_periodicity2_inverse(n, y)), y


@pytest.mark.parametrize("n", [0, 1, 2])
def test_iso_cw_to_a0_matches_reference(n):
    rng = random.Random("iso:%d" % n)
    for _ in range(100):
        x = rand_cw(rng, cw_odd_signature(n), with_lam=False)
        assert same(iso_cw_to_a0(n, x), ref_iso_cw_to_a0(n, x)), x


@pytest.mark.parametrize("n", [0, 1, 2])
def test_iso_a0_to_cw_matches_reference(n):
    rng = random.Random("iso-a0:%d" % n)
    top = 0
    for _ in range(100):
        a = rand_a0(rng, n)
        top = max([top] + [min(m.e_plus, m.e_minus) for m in a.terms])
        assert same(iso_a0_to_cw(n, a), ref_iso_a0_to_cw(n, a)), a
    assert top == 6  # some monomial reorders E+^6 E-^6


@pytest.mark.parametrize("n", [0, 1, 2])
def test_odd_split_and_join_match_reference(n):
    rng = random.Random("odd:%d" % n)
    src, tgt = AlgebraSignature(2 * n + 1, 0), AlgebraSignature(2 * n, 0)
    for _ in range(60):
        x = rand_cw(rng, src)
        got, want = odd_split(n, x), ref_odd_split(n, x)
        assert all(map(same, got, want)), x
        assert same(odd_join(n, *got), ref_odd_join(n, *want)), x
        # components drawn on their own, not as the split of a drawn element
        cp, cm = rand_cw(rng, tgt), rand_cw(rng, tgt)
        assert same(odd_join(n, cp, cm), ref_odd_join(n, cp, cm)), (cp, cm)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_clifford_op_to_symbol_matches_reference(n):
    rng = random.Random("op:%d" % n)
    for _ in range(20):
        T = rand_operator(rng, n)
        assert same(clifford_op_to_symbol(n, T), ref_clifford_op_to_symbol(n, T)), T


def test_transports_call_no_product(monkeypatch):
    rng = random.Random("no-product")
    cases = []
    for n in (0, 1, 2):
        a, x = rand_a0(rng, n), rand_cw(rng, AlgebraSignature(2 * n + 1, 0))
        cp, cm = rand_cw(rng, AlgebraSignature(2 * n, 0)), rand_cw(rng, AlgebraSignature(2 * n, 0))
        T = rand_operator(rng, n + 1)
        cases += [
            (iso_a0_to_cw, ref_iso_a0_to_cw, (n, a)),
            (odd_split, ref_odd_split, (n, x)),
            (odd_join, ref_odd_join, (n, cp, cm)),
            (clifford_op_to_symbol, ref_clifford_op_to_symbol, (n + 1, T)),
        ]
    want = [ref(*args) for _, ref, args in cases]

    def refuse(*args):
        raise AssertionError("a transport called a product")

    products = (starprod.star, sparse.pair_product, starprod.pair_kernel)
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.partition(".")[0] == "cliffordweyl":
            for key, value in list(vars(mod).items()):
                if any(value is f for f in products):
                    monkeypatch.setattr(mod, key, refuse)
    one = unit(AlgebraSignature(1, 0))
    with pytest.raises(AssertionError, match="called a product"):
        one * one
    assert [f(*args) for f, _, args in cases] == want
    assert "star" not in vars(deform) and "star" not in vars(periodicity)


def test_iso_cw_to_a0_rejects_the_parameter():
    x = unit(cw_odd_signature(1)).scale(Scalar.lam(1))
    for f in (iso_cw_to_a0, ref_iso_cw_to_a0):
        with pytest.raises(AlgebraError, match="central parameter"):
            f(1, x)


# each map's own space, and an input of another family and of another space
MAPS = {
    "periodicity1_forward": (lambda x: periodicity1_forward(1, 0, 1, x), SignatureMismatch),
    "periodicity1_inverse": (lambda x: periodicity1_inverse(1, 0, 1, x), SignatureMismatch),
    "periodicity2_forward": (lambda x: periodicity2_forward(0, x), AlgebraError),
    "periodicity2_inverse": (lambda x: periodicity2_inverse(0, x), AlgebraError),
    "iso_a0_to_cw": (lambda x: iso_a0_to_cw(0, x), AlgebraError),
    "iso_cw_to_a0": (lambda x: iso_cw_to_a0(0, x), AlgebraError),
    "odd_split": (lambda x: odd_split(0, x), SignatureMismatch),
    "odd_join": (lambda x: odd_join(0, unit(AlgebraSignature(0, 0)), x), SignatureMismatch),
    "cw_to_matrix": (lambda x: cw_to_matrix(1, 0, x), SignatureMismatch),
}
_ONE_TERM = {CwMonomial(0, (), ()): 1}  # a plain dict is not an element
WRONG_INPUTS = {
    "periodicity1_forward": (ore_unit(0), unit(AlgebraSignature(2, 0))),
    "periodicity1_inverse": (
        unit(AlgebraSignature(2, 1)),
        tensor_unit(AlgebraSignature(0, 1), AlgebraSignature(2, 0)),
    ),
    "periodicity2_forward": (unit(AlgebraSignature(1, 1)), ore_unit(1)),
    "periodicity2_inverse": (
        ore_unit(0),
        ore_tensor(1, 0, OreMonomial(0, 0, 0, 0)),
        ore_tensor(0, 0, OreMonomial(0, 0, 0, 0), Scalar.lam(1)),  # in its space, but with an L coefficient
    ),
    "iso_a0_to_cw": (unit(cw_odd_signature(0)), ore_unit(1)),
    "iso_cw_to_a0": (ore_unit(0), unit(cw_odd_signature(1))),
    "odd_split": (ore_unit(0), unit(AlgebraSignature(3, 0)), _ONE_TERM),
    "odd_join": (ore_unit(0), unit(AlgebraSignature(1, 0)), _ONE_TERM),
    "cw_to_matrix": (ore_unit(0), unit(AlgebraSignature(2, 1)), _ONE_TERM),
}


@pytest.mark.parametrize("name", sorted(MAPS))
def test_maps_reject_other_families_and_spaces(name):
    call, error = MAPS[name]
    for x in WRONG_INPUTS[name]:
        with pytest.raises(error, match="expected"):
            call(x)


@pytest.fixture
def volume_without_phase(monkeypatch):
    """Both bindings of `_times_volume` drop the i^m of the volume word.

    Not a whole-factor sign flip: z -> -z is another valid isomorphism.
    """
    times_volume = periodicity._times_volume

    def wrong(mask, width, m):
        g, out = times_volume(mask, width, m)
        return g * i_power(-m), out

    monkeypatch.setattr(periodicity, "_times_volume", wrong)
    monkeypatch.setattr(deform, "_times_volume", wrong)


@pytest.mark.parametrize("name", ["periodicity1", "periodicity2", "pi-h", "matrix-iso", "odd-split"])
def test_suites_catch_a_fault_in_the_transports(name, volume_without_phase):
    # the suites' products never reach the closed-form maps, so a fault in
    # the products leaves these checks untried; this one sits in the maps
    assert not run_suite(name).passed


@pytest.fixture
def iso_without_order_sign(monkeypatch):
    """`iso_a0_to_cw` drops the (-1)^s of q^a * p^b's odd orders.

    Its numerators are the only negative ratios `deform` builds, so taking
    the sign off every ratio there takes off exactly that one.
    """
    monkeypatch.setattr(deform, "gr_ratio", lambda num, den: gr_ratio(abs(num), den))
    x = ore_e_plus(0) * ore_e_minus(0)
    assert iso_a0_to_cw(0, x) != ref_iso_a0_to_cw(0, x)


@pytest.mark.parametrize("name", ["a0-iso", "cocycle"])
def test_suites_catch_a_wrong_sign_in_the_iso(name, iso_without_order_sign):
    # the added unit of the product fault now passes these suites: the iso
    # maps the unit to the unit, and the cocycle reads the L^1 coefficient
    assert not run_suite(name).passed
