import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st
from reference_gaussian import RefGaussian, ref_format_coefficient

from cliffordweyl.scalars import (
    GR_I,
    GR_ONE,
    GaussianRational,
    S_I,
    S_LAMBDA,
    S_ONE,
    Scalar,
    format_coefficient,
    i_power,
    scalar_i_power,
)
from cliffordweyl.sparse import SparseElement


def rand_gaussian(rng):
    return GaussianRational(
        Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 5)),
    )


def rand_scalar(rng):
    s = Scalar()
    for _ in range(rng.randint(0, 3)):
        s = s + Scalar.lam(rng.randint(0, 3), rand_gaussian(rng))
    return s


def test_gaussian_basics():
    a = GaussianRational(Fraction(1, 2), Fraction(3, 4))
    b = GaussianRational(2, -1)
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(-1, 4))
    assert a - a == GaussianRational(0)
    assert GR_I * GR_I == GaussianRational(-1)
    assert (a * b) * a == a * (b * a)
    assert a * a.inverse() == GR_ONE
    assert (a / b) * b == a


def test_gaussian_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0).inverse()


def test_i_power_cycle():
    assert [i_power(n) for n in range(4)] == [
        GaussianRational(1),
        GaussianRational(0, 1),
        GaussianRational(-1),
        GaussianRational(0, -1),
    ]
    assert i_power(-1) == GaussianRational(0, -1)
    assert i_power(7) == i_power(3)


def test_scalar_ring_laws_seeded():
    # associativity, commutativity, distributivity on 1000 random triples
    rng = random.Random(20260819)
    for _ in range(1000):
        a, b, c = rand_scalar(rng), rand_scalar(rng), rand_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + Scalar() == a
        assert a * S_ONE == a
        assert a - a == Scalar()


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 20))
def test_scalar_of_embeds_rationals(n, m, d):
    a, b = Fraction(n, d), Fraction(m, d)
    assert Scalar.of(a) + Scalar.of(b) == Scalar.of(a + b)
    assert Scalar.of(a) * Scalar.of(b) == Scalar.of(a * b)


def test_lambda_powers_accumulate():
    s = S_LAMBDA * S_LAMBDA + S_LAMBDA
    assert s.lam_coefficient(2) == GR_ONE
    assert s.lam_coefficient(1) == GR_ONE
    assert s.lam_coefficient(0) == GaussianRational(0)
    assert s.lam_degree() == 2
    assert (S_LAMBDA ** 5).lam_degree() == 5


def test_constant_rejects_lambda_terms():
    with pytest.raises(ValueError):
        (S_ONE + S_LAMBDA).constant()
    assert (S_ONE + S_I).constant() == GaussianRational(1, 1)


def test_specialize_evaluates_lambda():
    s = Scalar.lam(2) + Scalar.lam(1, GaussianRational(0, 1)) + S_ONE
    v = s.specialize(GaussianRational(2))
    assert v == GaussianRational(5, 2)


def test_divide_by_is_exact():
    s = Scalar.lam(1, GaussianRational(Fraction(3, 2))) + S_ONE
    g = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    assert s.divide_by(g) * Scalar.from_gaussian(g) == s


def test_no_zero_coefficients_survive():
    s = Scalar.lam(3) - Scalar.lam(3)
    assert s.coeffs == {}
    assert not s
    assert s.is_zero()


def test_negative_lambda_power_rejected():
    with pytest.raises(ValueError):
        Scalar({-1: GR_ONE})


def test_scalar_immutable():
    with pytest.raises(AttributeError):
        S_ONE.coeffs = {}


def test_json_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        s = rand_scalar(rng)
        assert Scalar.from_json(s.to_json()) == s


# [DERIVED] text fixtures, frozen: the coefficient grammar of the element
# display format.
def test_format_coefficient_fixtures():
    assert format_coefficient(GaussianRational(Fraction(1, 2))) == "1/2"
    assert format_coefficient(GaussianRational(0, 1)) == "i"
    assert format_coefficient(GaussianRational(0, Fraction(-3, 4))) == "-3/4*i"
    assert (
        format_coefficient(GaussianRational(Fraction(1, 2), Fraction(3, 4)))
        == "(1/2 + 3/4*i)"
    )
    assert format_coefficient(GaussianRational(1), 2) == "L^2"
    assert format_coefficient(GaussianRational(-1), 1) == "-L"
    assert format_coefficient(GaussianRational(Fraction(1, 3)), 1) == "1/3*L"
    assert str(S_ONE + S_LAMBDA ** 2) == "1 + L^2"
    assert str(Scalar()) == "0"


def test_scalar_i_power_matches_gaussian():
    for n in range(-4, 9):
        assert scalar_i_power(n) == Scalar.from_gaussian(i_power(n))


# -- hash/eq contract and accepted part types ----------------------------------


def test_hash_matches_equal_numbers():
    rng = random.Random(20261018)
    values = [0, 1, -1, 2, -2, 10**30, -(10**30), Fraction(1, 2), Fraction(-7, 3)]
    values += [Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12)) for _ in range(200)]
    values += [rng.randint(-10**25, 10**25) for _ in range(50)]
    for x in values:
        assert GaussianRational(x) == x
        assert hash(GaussianRational(x)) == hash(x)
        assert Scalar.of(x) == x
        assert hash(Scalar.of(x)) == hash(x)
    assert hash(Scalar.from_gaussian(GaussianRational(1, 2))) == hash(GaussianRational(1, 2))
    assert len({GaussianRational(1), 1, Fraction(1), Scalar.of(1)}) == 1


def test_parts_must_be_int_or_fraction():
    for bad in (0.1, 1.0, "1/2", complex(1, 1), None):
        with pytest.raises(TypeError):
            GaussianRational(bad)
        with pytest.raises(TypeError):
            GaussianRational(1, bad)
        with pytest.raises(TypeError):
            Scalar.of(bad)
    assert GaussianRational(True) == GaussianRational(1)


def test_reduced_int_triple():
    g = GaussianRational(Fraction(2, 6), Fraction(-4, 9))
    assert (g._re, g._im, g._den) == (3, -4, 9)
    z = GaussianRational(Fraction(3, 4)) - GaussianRational(Fraction(3, 4))
    assert (z._re, z._im, z._den) == (0, 0, 1)
    assert g.re == Fraction(1, 3) and g.im == Fraction(-4, 9)
    with pytest.raises(AttributeError):
        g.re = Fraction(1)


# -- the int-triple class against the Fraction-based reference ------------------

_parts = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.fractions(max_denominator=10**15),
)
_pairs = st.tuples(_parts, _parts)


def _same(new, ref):
    assert new == GaussianRational(ref.re, ref.im)
    assert (new.re, new.im) == (ref.re, ref.im)
    assert str(new) == str(ref)
    assert new.to_json() == ref.to_json()
    assert hash(new) == hash(ref)
    assert bool(new) == bool(ref)


@seed(20261018)
@settings(max_examples=400, deadline=None)
@given(_pairs, _pairs, st.integers(0, 6), st.integers(0, 5))
def test_matches_fraction_reference(x, y, power, lam_power):
    a, b = GaussianRational(*x), GaussianRational(*y)
    ra, rb = RefGaussian(*x), RefGaussian(*y)
    _same(a, ra)
    _same(a + b, ra + rb)
    _same(a - b, ra - rb)
    _same(a * b, ra * rb)
    _same(-a, -ra)
    _same(a**power, ra**power)
    if rb:
        _same(a / b, ra / rb)
        _same(b.inverse(), rb.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            b.inverse()
    assert (a == b) == (ra == rb)
    assert GaussianRational.from_json(ra.to_json()) == a
    assert format_coefficient(a, lam_power) == ref_format_coefficient(ra, lam_power)
    s = Scalar.lam(lam_power, a) + Scalar.lam(lam_power + 1, b)
    assert Scalar.from_json(s.to_json()) == s


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(_parts, st.integers(-50, 50))
def test_mixed_operands_match_reference(x, n):
    a, ra = GaussianRational(x, n), RefGaussian(x, n)
    for other in (n, Fraction(n, 7), x):
        _same(a + other, ra + other)
        _same(a * other, ra * other)
        _same(other - a, RefGaussian(other) - ra)
        assert (a == other) == (ra == other)


def test_benchmark_surface_of_scalar():
    # bench/ reads `coeffs` as a plain dict and builds coefficients with
    # from_gaussian; both stay while Scalar exists
    g = GaussianRational(Fraction(3, 5), -2)
    s = Scalar.from_gaussian(g)
    assert s.coeffs == {0: g} and type(s.coeffs) is dict
    assert s.coeffs is s.terms
    assert Scalar.lam(2).coeffs == {2: GR_ONE}
    assert hash(s) == hash(g) and s == g
    assert isinstance(s, SparseElement)
