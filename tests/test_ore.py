"""Tests for the deformed-algebra normal form.

The rewrite kernel was cross-checked by hand on the ladder identity
E- E+^a = E+^a E- + (a/4) E+^{a-1} - [a odd] E+^{a-1} ghost before being
frozen here; everything else is exact fixtures plus randomized structure
properties (associativity, centrality, specialization).
"""

import random
from fractions import Fraction

import pytest
from kernel_format import lowering_terms
from reference_ore_kernel import ref_lower_past_powers, ref_ore_product

from cliffordweyl.algebra import AlgebraError
from cliffordweyl.deform import verma_apply
from cliffordweyl.ore import (
    _lower_past_powers,
    OreElement,
    OreMonomial,
    ghost_theta,
    ore_anti_bracket,
    ore_e_minus,
    ore_e_plus,
    ore_fermi,
    ore_generators,
    ore_lambda,
    ore_lie_bracket,
    ore_product,
    ore_relations_report,
    ore_scalar,
    ore_super_bracket,
    ore_unit,
    ore_zero,
    specialize,
    specialized_product,
)
from cliffordweyl.scalars import GaussianRational, Scalar

GR = GaussianRational


def rand_element(n, rng, nterms=3, maxdeg=4, with_lam=True):
    terms = {}
    for _ in range(nterms):
        while True:
            cliff = rng.getrandbits(2 * n + 1)
            a = rng.randrange(maxdeg + 1)
            b = rng.randrange(maxdeg + 1)
            r = rng.randrange(2) if with_lam else 0
            if cliff.bit_count() + a + b + 2 * r <= maxdeg:
                break
        c = GR(
            Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)),
            Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)),
        )
        terms[OreMonomial(cliff, a, b, r)] = c
    return OreElement(n, terms)


# -- defining relations -------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2])
def test_lowering_past_raising(n):
    ep, em = ore_e_plus(n), ore_e_minus(n)
    want = ore_product(ep, em) + ore_scalar(n, Fraction(1, 4)) - ghost_theta(n)
    assert ore_product(em, ep) == want


@pytest.mark.parametrize("n", [0, 1, 2])
def test_e_past_fermi_flips_sign(n):
    for i in range(1, 2 * n + 2):
        w = ore_fermi(n, i)
        for e in (ore_e_plus(n), ore_e_minus(n)):
            assert ore_product(e, w) == -ore_product(w, e)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_central_parameter_commutes(n):
    lam = ore_lambda(n)
    rng = random.Random("center:%d" % n)
    for g in ore_generators(n):
        assert ore_product(lam, g) == ore_product(g, lam)
    for _ in range(10):
        x = rand_element(n, rng)
        assert ore_product(lam, x) == ore_product(x, lam)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_relations_report_clean(n):
    report = ore_relations_report(n)
    assert report["failures"] == []
    # (2n+1)^2 Fermi pairs, 3 extra rows per Fermi generator, 3 E/L rows
    g = 2 * n + 1
    assert report["cases"] == g * g + 3 * g + 3


def test_fermi_square_is_one():
    for n in (0, 1):
        for i in range(1, 2 * n + 2):
            w = ore_fermi(n, i)
            assert ore_product(w, w) == ore_unit(n)


# -- normal form --------------------------------------------------------------------


def test_monomial_product_renormalizes_idempotently():
    rng = random.Random("nf")
    for n in (0, 1):
        for _ in range(40):
            x = rand_element(n, rng)
            y = rand_element(n, rng)
            p = ore_product(x, y)
            assert OreElement(n, dict(p.terms)) == p
            assert OreElement.from_json(n, p.to_json()) == p


def test_basis_monomial_expansion_unique():
    # multiplying two fixed basis words twice gives identical term maps
    n = 1
    m1 = OreElement(n, {OreMonomial(0b101, 0, 2, 0): GR(1)})
    m2 = OreElement(n, {OreMonomial(0b011, 3, 1, 1): GR(1)})
    p = ore_product(m1, m2)
    q = ore_product(m1, m2)
    assert p.terms == q.terms
    assert all(c for c in p.terms.values())


@pytest.mark.parametrize("n", [0, 1])
def test_associativity_random(n):
    rng = random.Random("assoc:%d" % n)
    for _ in range(200):
        x = rand_element(n, rng)
        y = rand_element(n, rng)
        z = rand_element(n, rng)
        assert ore_product(ore_product(x, y), z) == ore_product(x, ore_product(y, z))


def test_unit_and_zero():
    n = 1
    rng = random.Random("unit")
    x = rand_element(n, rng)
    assert ore_product(ore_unit(n), x) == x == ore_product(x, ore_unit(n))
    assert not ore_product(ore_zero(n), x)
    assert x + ore_zero(n) == x
    assert x - x == ore_zero(n)


def test_numbers_compare_and_hash_like_constants():
    assert ore_zero(0) == 0
    assert ore_unit(1) == 1 and ore_unit(1) != 2
    assert hash(ore_unit(0)) == hash(1)
    assert hash(ore_scalar(1, GR(Fraction(1, 2), 3))) == hash(GR(Fraction(1, 2), 3))
    assert len({ore_unit(0), 1}) == 1
    # L lives in the monomial, so it is not a number
    assert ore_lambda(0) != 1
    assert ore_unit(0) != "1"


def test_non_numbers_are_not_coerced():
    x = ore_unit(0)
    for other in ("x", Scalar.of(1)):
        for op in (
            lambda: x + other,
            lambda: other + x,
            lambda: x - other,
            lambda: other - x,
            lambda: x * other,
            lambda: other * x,
        ):
            with pytest.raises(TypeError):
                op()
    with pytest.raises(TypeError):
        ore_scalar(0, "x")


def test_power_matches_repeated_product():
    n = 0
    a = ore_e_plus(n) + ore_e_minus(n)
    assert a**0 == ore_unit(n)
    assert a**3 == ore_product(a, ore_product(a, a))


# -- the E-^beta E+^gamma kernel ----------------------------------------------------


def test_kernel_matches_recursive_reference():
    pairs = [(b, g) for b in range(21) for g in range(21)] + [(60, 60), (12, 30), (30, 12)]
    for beta, gamma in pairs:
        assert lowering_terms(_lower_past_powers(beta, gamma)) == ref_lower_past_powers(beta, gamma), (beta, gamma)


def test_packed_kernel_matches_recursive_reference_on_random_pairs():
    # wide slots and many L^2 powers, in both orientations of the loop
    rng = random.Random(2009)
    pairs = [(rng.randint(0, 90), rng.randint(0, 90)) for _ in range(40)]
    try:
        for beta, gamma in pairs:
            for p in ((beta, gamma), (gamma, beta)):
                assert lowering_terms(_lower_past_powers(*p)) == ref_lower_past_powers(*p), p
    finally:
        # the reference keeps every level of its recursion
        ref_lower_past_powers.cache_clear()


def test_only_small_pairs_enter_the_kernel_cache():
    # an entry with min(beta, gamma) > 64 would retain over 0.2 MB, so it is
    # computed afresh each time
    def power_product(beta, gamma):
        x = OreElement(0, {OreMonomial(0, 0, beta, 0): GR(1)})
        y = OreElement(0, {OreMonomial(0, gamma, 0, 0): GR(1)})
        return ore_product(x, y), ref_ore_product(x, y)

    _lower_past_powers.cache_clear()
    try:
        got, want = power_product(64, 70)
        assert got == want and _lower_past_powers.cache_info().currsize == 1
        got, want = power_product(65, 70)
        assert got == want and _lower_past_powers.cache_info().currsize == 1
    finally:
        ref_lower_past_powers.cache_clear()


@pytest.mark.parametrize("beta, gamma", [(160, 150), (150, 160)])
def test_long_lowering_acts_as_its_factors(beta, gamma):
    x = OreElement(0, {OreMonomial(0, 0, beta, 0): GR(1)})
    y = OreElement(0, {OreMonomial(0, gamma, 0, 0): GR(1)})
    p = ore_product(x, y)
    assert len(p.terms) > 5000
    # z^163 survives E+^gamma, so both sides are one nonzero power of z
    lam, f = GR(Fraction(3, 7), Fraction(1, 5)), {163: GR(1)}
    want = verma_apply(lam, x, verma_apply(lam, y, f))
    assert len(want) == 1
    assert verma_apply(lam, p, f) == want


@pytest.mark.parametrize("n", [0, 1, 2])
def test_product_matches_reference_loop(n):
    rng = random.Random(7070 + n)
    for _ in range(30):
        x, y = (rand_element(n, rng, nterms=4, maxdeg=6) for _ in range(2))
        assert ore_product(x, y) == ref_ore_product(x, y), (x, y)


def test_deep_lowering_power():
    # far beyond the old one-call-per-E- recursion; walks the single E+
    x = OreElement(0, {OreMonomial(0, 0, 1500, 0): GR(1)})
    y = ore_e_plus(0)
    p = ore_product(x, y)
    want = OreElement(0, {OreMonomial(0, 0, 1499, 0): GR(375), OreMonomial(0, 1, 1500, 0): GR(1)})
    assert p == want
    assert str(p) == "375 * E-^1499 + E+ E-^1500"
    # the weight module sees the product act as the two factors in turn
    lam, f = GR(Fraction(3, 7), Fraction(1, 5)), {2: GR(1)}
    assert verma_apply(lam, p, f) == verma_apply(lam, x, verma_apply(lam, y, f))


# -- the ghost ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2])
def test_ghost_square_and_commutation(n):
    th = ghost_theta(n)
    assert ore_product(th, th) == ore_lambda(n, 2)
    assert th == ore_lie_bracket(ore_e_plus(n), ore_e_minus(n)) + ore_scalar(
        n, Fraction(1, 4)
    )
    for i in range(1, 2 * n + 2):
        w = ore_fermi(n, i)
        assert ore_product(th, w) == ore_product(w, th)
    for e in (ore_e_plus(n), ore_e_minus(n)):
        assert ore_product(th, e) == -ore_product(e, th)


def test_super_bracket_grading():
    n = 0
    ep, em, w = ore_e_plus(n), ore_e_minus(n), ore_fermi(n, 1)
    # odd-odd pairs anticommute under the graded bracket
    assert ore_super_bracket(ep, em) == ore_anti_bracket(ep, em)
    # the Fermi generator has even E-block parity here
    assert ore_super_bracket(w, ep) == ore_lie_bracket(w, ep)


# -- specialization -----------------------------------------------------------------


def test_specialize_fixture():
    assert specialize(ore_lambda(0, 2), 2) == ore_scalar(0, 4)
    assert specialize(ore_lambda(1), GR(0, 1)) == ore_scalar(1, GR(0, 1))


def test_specialize_at_zero_drops_ghost():
    n = 1
    ep, em = ore_e_plus(n), ore_e_minus(n)
    got = specialize(ore_product(em, ep), 0)
    assert got == ore_product(ep, em) + ore_scalar(n, Fraction(1, 4))


@pytest.mark.parametrize("n", [0, 1])
def test_specialize_is_multiplicative(n):
    rng = random.Random("specialize:%d" % n)
    lam = GR(Fraction(2, 3), Fraction(-1, 2))
    for _ in range(100):
        x = rand_element(n, rng)
        y = rand_element(n, rng)
        lhs = specialize(ore_product(x, y), lam)
        rhs = specialized_product(specialize(x, lam), specialize(y, lam), lam)
        assert lhs == rhs


def test_specialize_rejects_a_non_number():
    with pytest.raises(TypeError):
        specialize(ore_lambda(0), "x")
    with pytest.raises(TypeError):
        specialize(ore_e_plus(0), None)


def test_specialize_additive_and_idempotent():
    rng = random.Random("specialize-add")
    lam = GR(Fraction(5, 7))
    x, y = rand_element(1, rng), rand_element(1, rng)
    assert specialize(x + y, lam) == specialize(x, lam) + specialize(y, lam)
    assert specialize(specialize(x, lam), lam) == specialize(x, lam)


# -- guards and text form -----------------------------------------------------------


def test_rank_mismatch_raises():
    with pytest.raises(AlgebraError):
        ore_product(ore_e_plus(0), ore_e_plus(1))


@pytest.mark.parametrize("rank", [-1, "1", 1.5])
@pytest.mark.parametrize(
    "build", [ore_unit, ore_zero, ore_e_plus, ore_e_minus, ore_lambda, ore_generators, ghost_theta]
)
def test_bad_rank_raises(build, rank):
    with pytest.raises(AlgebraError, match="rank must be a non-negative int"):
        build(rank)


def test_bad_generator_index_raises():
    with pytest.raises(AlgebraError):
        ore_fermi(0, 2)
    with pytest.raises(AlgebraError):
        OreElement(0, {OreMonomial(0b10, 0, 0, 0): GR(1)})
    with pytest.raises(AlgebraError):
        OreElement(0, {OreMonomial(0, -1, 0, 0): GR(1)})


def test_text_form():
    assert str(ghost_theta(0)) == "L * w1"
    assert str(ghost_theta(1)) == "i*L * w1 w2 w3"
    assert str(ore_zero(2)) == "0"
    x = ore_e_plus(0).scale(2) - ore_scalar(0, Fraction(1, 2))
    assert str(x) == "-1/2 + 2 * E+"


def test_degree_counts_parameter_twice():
    m = OreMonomial(0b1, 2, 1, 3)
    assert m.degree() == 1 + 2 + 1 + 6
    assert m.bose_parity() == 1
