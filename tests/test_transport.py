"""The closed-form transport maps against their generator-image references.

`reference_transport.py` keeps the earlier maps, which extend the images of
the generators through star words one product at a time.  The library's
maps send each monomial to its one-term image directly; here both are run
on seeded random elements and must agree exactly, text included.  A fault
injected into the maps themselves must fail the suites that use them.
"""

import random
from fractions import Fraction

import pytest
from reference_transport import (
    ore_tensor,
    ref_iso_cw_to_a0,
    ref_periodicity1_forward,
    ref_periodicity1_inverse,
    ref_periodicity2_forward,
    ref_periodicity2_inverse,
)

from cliffordweyl import deform, periodicity
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
from cliffordweyl.ore import OreElement, OreMonomial, ore_unit
from cliffordweyl.periodicity import periodicity1_forward, periodicity1_inverse, tensor_of, tensor_unit
from cliffordweyl.scalars import Scalar, i_power
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
}
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


@pytest.mark.parametrize("name", ["periodicity1", "periodicity2", "pi-h", "matrix-iso"])
def test_suites_catch_a_fault_in_the_transports(name, volume_without_phase):
    # the suites' products never reach the closed-form maps, so a fault in
    # the products leaves these checks untried; this one sits in the maps
    assert not run_suite(name).passed
