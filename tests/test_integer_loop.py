"""The integer product loop gives canonical coefficients, checked against the oracles.

`sparse.pair_product` multiplies and adds Gaussian-integer numerators and
reduces each output coefficient once, at the end.  Equality of elements
compares the reduced ints, so a coefficient left unreduced would make equal
elements compare unequal without any error.  These seeded property tests
multiply random elements in every family the loop serves, at several t and
ranks, compare each product with the term-by-term references in
`reference_weyl_kernel.py`, `reference_ore_kernel.py` and
`reference_tensor.py`, and check that every coefficient of the product has
den > 0, gcd(re, im, den) = 1 and is not zero.  The coefficients include
large coprime denominators, 1/(2^61 - 1) among them, and some products are
built so that terms cancel.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
import reference_weyl_kernel as ref
from reference_ore_kernel import ref_ore_product
from reference_tensor import ref_tensor_star

from cliffordweyl.algebra import AlgebraSignature, CwElement, CwMonomial, bose_p, bose_q, fermi_gen
from cliffordweyl.ore import OreElement, OreMonomial, ghost_theta, ore_e_minus, ore_e_plus, ore_product
from cliffordweyl.periodicity import TensorElement, tensor_star
from cliffordweyl.scalars import GaussianRational, S_LAMBDA, S_ONE, Scalar
from cliffordweyl.starprod import poisson, star, wedge

MERSENNE = 2**61 - 1
DENOMINATORS = (1, 1, 2, 3, 4, 12, MERSENNE, 3 * MERSENNE, 2**61 + 1)


def _coeff(rng):
    while True:
        re = Fraction(rng.randint(-6, 6), rng.choice(DENOMINATORS))
        im = Fraction(rng.randint(-3, 3), rng.choice(DENOMINATORS))
        if re or im:
            return GaussianRational(re, im)


def _canonical(c):
    """c is a nonzero Gaussian rational in lowest terms."""
    assert isinstance(c, GaussianRational)
    assert c._den > 0 and gcd(c._re, c._im, c._den) == 1 and (c._re or c._im), (c._re, c._im, c._den)


def _assert_canonical(x):
    for c in x.terms.values():
        if isinstance(c, Scalar):
            assert c.terms, "a zero Scalar coefficient"
            for g in c.terms.values():
                _canonical(g)
        else:
            _canonical(c)


def _cw_element(rng, sig, nterms=3, maxdeg=4):
    terms = {}
    for _ in range(nterms):
        while True:
            m = CwMonomial(
                rng.getrandbits(sig.n_fermi) if sig.n_fermi else 0,
                tuple(rng.randint(0, 2) for _ in range(sig.n_bose)),
                tuple(rng.randint(0, 2) for _ in range(sig.n_bose)),
            )
            if m.z_degree() <= maxdeg:
                break
        terms[m] = Scalar({j: _coeff(rng) for j in range(rng.randint(1, 2))})
    return CwElement(sig, terms)


def _ore_element(rng, n, nterms=3):
    terms = {}
    for _ in range(nterms):
        m = OreMonomial(rng.getrandbits(2 * n + 1), rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 1))
        terms[m] = _coeff(rng)
    return OreElement(n, terms)


T_VALUES = [S_ONE, Scalar(), S_LAMBDA, Scalar.of(Fraction(1, 3), -1)]


@pytest.mark.parametrize("t", T_VALUES, ids=["1", "0", "L", "1/3-i"])
def test_star_coefficients_are_canonical(t):
    rng = random.Random(7301)
    for n, k in ((0, 1), (2, 1), (1, 2), (3, 0)):
        sig = AlgebraSignature(n, k, t)
        for _ in range(6):
            a, b = _cw_element(rng, sig), _cw_element(rng, sig)
            got = star(a, b)
            _assert_canonical(got)
            assert got == ref.star(a, b), (a, b)


@pytest.mark.parametrize("t", T_VALUES, ids=["1", "0", "L", "1/3-i"])
def test_cancelling_products_drop_their_terms(t):
    sig = AlgebraSignature(2, 1, t)
    w1, w2, p, q = fermi_gen(sig, 1), fermi_gen(sig, 2), bose_p(sig, 1), bose_q(sig, 1)
    third, big = Fraction(1, 3), Fraction(1, MERSENNE)
    i_big = GaussianRational(0, big)
    cases = [
        # the w1 w2 terms of the two cross pairs cancel
        (w1.scale(third) + w2.scale(big), w1.scale(third) + w2.scale(big)),
        # the pq terms of the two cross pairs cancel: p^2 - q^2 - t is left
        (p.scale(big) + q.scale(big), p - q),
        (p.scale(third) + q.scale(third), p.scale(3) - q.scale(3)),
        # every term cancels: (w1 + i w2)^2 = t - t + i (w1 w2 + w2 w1) = 0
        (w1.scale(big) + w2.scale(i_big), w1.scale(big) + w2.scale(i_big)),
    ]
    for a, b in cases:
        got = star(a, b)
        _assert_canonical(got)
        assert got == ref.star(a, b), (a, b)
    assert CwMonomial(0b11, (0,), (0,)) not in star(*cases[0]).terms
    assert CwMonomial(0, (1,), (1,)) not in star(*cases[1]).terms
    assert not star(*cases[3]).terms


def test_wedge_and_poisson_coefficients_are_canonical():
    rng = random.Random(7302)
    for sig in (AlgebraSignature(3, 1), AlgebraSignature(1, 2, S_LAMBDA)):
        for _ in range(8):
            a, b = _cw_element(rng, sig), _cw_element(rng, sig)
            for got, want in ((wedge(a, b), ref.wedge(a, b)), (poisson(a, b), ref.poisson(a, b))):
                _assert_canonical(got)
                assert got == want, (a, b)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_ore_coefficients_are_canonical(n):
    # at odd rank the ghost carries i, so real coefficients turn imaginary
    rng = random.Random(7303 + n)
    ghost, em, ep = ghost_theta(n), ore_e_minus(n), ore_e_plus(n)
    pairs = [(_ore_element(rng, n), _ore_element(rng, n)) for _ in range(8)]
    pairs += [(em * em + ghost.scale(Fraction(1, MERSENNE)), ep * ep * ep), (ghost, em * ep)]
    for x, y in pairs:
        got = ore_product(x, y)
        _assert_canonical(got)
        assert got == ref_ore_product(x, y), (x, y)
    if n & 1:
        assert any(c._im for c in ore_product(em, ep).terms.values())


def test_tensor_coefficients_are_canonical():
    rng = random.Random(7304)
    for space in ((AlgebraSignature(2, 0), AlgebraSignature(1, 1)), (AlgebraSignature(0, 1), 1), (1, 0)):
        left, right = space
        for _ in range(4):
            terms = [{}, {}]
            for side in terms:
                for _ in range(3):
                    ml = (_cw_element if isinstance(left, AlgebraSignature) else _ore_element)(rng, left, 1)
                    mr = (_cw_element if isinstance(right, AlgebraSignature) else _ore_element)(rng, right, 1)
                    side[(next(iter(ml.terms)), next(iter(mr.terms)))] = Scalar({rng.randint(0, 1): _coeff(rng)})
            x, y = (TensorElement(left, right, t) for t in terms)
            got = tensor_star(x, y)
            _assert_canonical(got)
            assert got == ref_tensor_star(x, y), (x, y)
