"""Tests for the degree-one orthosymplectic subalgebra.

Dimension fixtures follow the closed formula n(n+1)/2 + 2(n+1)k + k(2k+1);
the bracket-triple identity and invariance reports must come back with zero
failures on every signature checked here.
"""

import itertools
import random
from fractions import Fraction

import pytest

from cliffordweyl.algebra import (
    AlgebraError,
    AlgebraSignature,
    CwElement,
    CwMonomial,
    bose_p,
    bose_q,
    element_bidegree,
    fermi_gen,
    monomial_element,
    unit,
    z_degree,
)
from cliffordweyl.linalg import reduce_row, sparse_rref
from cliffordweyl.osp import (
    OspContext,
    _form,
    _form_rows,
    build_g,
    element_row,
    expected_dimension,
    form,
    split_constant_and_v,
    twisted_adjoint,
    verify_invariance,
    verify_ps,
)
from cliffordweyl.scalars import S_ONE, GaussianRational, Scalar
from cliffordweyl.starprod import poisson, super_bracket

PS_SIGNATURES = [(1, 1), (2, 1), (3, 1), (1, 2)]


def span_contains(elements, x):
    return not reduce_row(sparse_rref(map(element_row, elements)), element_row(x))


# -- the subalgebra and its dimensions -------------------------------------------


@pytest.mark.parametrize(
    "nk,want",
    [((1, 1), 8), ((2, 1), 12), ((1, 0), 1), ((3, 1), 17), ((1, 2), 19)],
    ids=str,
)
def test_build_g_dimension(nk, want):
    n, k = nk
    ctx = OspContext(AlgebraSignature(n, k))
    basis, dim, dims = build_g(ctx)
    assert dim == want == expected_dimension(n, k)
    assert len(basis) == dim
    assert dims["v0"] == n and dims["v1"] == 2 * k
    assert dims["v0v0"] == n * (n - 1) // 2
    assert dims["v1v1"] == k * (2 * k + 1)
    assert dims["v0v1"] == 2 * n * k
    assert dims["even"] + dims["odd"] == dims["total"]


@pytest.mark.parametrize("nk", [(1, 1), (2, 1), (1, 2)], ids=str)
def test_g_closes_under_bracket(nk):
    ctx = OspContext(AlgebraSignature(*nk))
    basis, _dim, _dims = build_g(ctx)
    for a, b in itertools.product(basis, repeat=2):
        assert span_contains(basis, super_bracket(a, b))


def test_basis_elements_are_homogeneous():
    ctx = OspContext(AlgebraSignature(2, 1))
    basis, _dim, _dims = build_g(ctx)
    for x in basis:
        assert element_bidegree(x) is not None


# -- bracket-triple identity -------------------------------------------------------


def test_ps_fixture_pqp():
    sig = AlgebraSignature(0, 1)
    p, q = bose_p(sig, 1), bose_q(sig, 1)
    assert super_bracket(super_bracket(p, q), p) == p.scale(-2)


def test_ps_fixture_triple_fermi():
    sig = AlgebraSignature(1, 0)
    w = fermi_gen(sig, 1)
    assert super_bracket(super_bracket(w, w), w) == CwElement(sig, {})


@pytest.mark.parametrize("nk", PS_SIGNATURES, ids=str)
def test_ps_exhaustive(nk):
    n, k = nk
    report = verify_ps(OspContext(AlgebraSignature(n, k)))
    assert report["suite"] == "parastatistics"
    assert report["cases"] == (n + 2 * k) ** 3
    assert report["failures"] == []


# -- twisted adjoint ---------------------------------------------------------------


SIG11 = AlgebraSignature(1, 1)


def test_twisted_adjoint_fixtures():
    w1 = fermi_gen(SIG11, 1)
    p, q = bose_p(SIG11, 1), bose_q(SIG11, 1)
    assert twisted_adjoint(p, unit(SIG11)) == p.scale(2)
    assert twisted_adjoint(w1, unit(SIG11)) == w1.scale(2)
    assert twisted_adjoint(w1, w1) == unit(SIG11).scale(2)
    assert twisted_adjoint(p, q) == unit(SIG11)


def test_twisted_adjoint_is_bilinear():
    rng = random.Random(3)

    def rand_h(ctx):
        h = ctx.h_basis()
        out = h[0].scale(0)
        for x in h:
            out = out + x.scale(Scalar.of(Fraction(rng.randint(-3, 3), rng.randint(1, 2))))
        return out

    ctx = OspContext(SIG11)
    g_basis, _d, _ds = build_g(ctx)
    for _ in range(20):
        a, b = rng.choice(g_basis), rng.choice(g_basis)
        x, y = rand_h(ctx), rand_h(ctx)
        assert twisted_adjoint(a + b, x) == twisted_adjoint(a, x) + twisted_adjoint(b, x)
        assert twisted_adjoint(a, x + y) == twisted_adjoint(a, x) + twisted_adjoint(a, y)


def test_twisted_adjoint_respects_brackets():
    # ad'([a,b]) = ad'(a)ad'(b) - (-1)^(d2 d2) ad'(b)ad'(a) on C + V
    for nk in [(1, 1), (2, 1)]:
        ctx = OspContext(AlgebraSignature(*nk))
        g_basis, _d, _ds = build_g(ctx)
        h = ctx.h_basis()
        for a, b in itertools.product(g_basis, repeat=2):
            d2a = element_bidegree(a).delta2
            d2b = element_bidegree(b).delta2
            sgn = -1 if d2a and d2b else 1
            ab = super_bracket(a, b)
            for x in h:
                lhs = twisted_adjoint(ab, x)
                rhs = twisted_adjoint(a, twisted_adjoint(b, x)) - twisted_adjoint(
                    b, twisted_adjoint(a, x)
                ).scale(sgn)
                assert lhs == rhs


# -- the bilinear form ---------------------------------------------------------------


def test_form_fixtures():
    ctx = OspContext(SIG11)
    one = unit(SIG11)
    w1 = fermi_gen(SIG11, 1)
    p, q = bose_p(SIG11, 1), bose_q(SIG11, 1)
    minus_two = Scalar.of(-2)
    assert form(ctx, one, one) == minus_two
    assert form(ctx, one, w1) == Scalar()
    assert form(ctx, one, p) == Scalar()
    assert form(ctx, w1, w1) == Scalar.of(2)
    assert form(ctx, w1, p) == Scalar()
    assert form(ctx, p, q) == S_ONE
    assert form(ctx, q, p) == -S_ONE


def reference_form(x, y):
    """The form before its generator-pair table: the value at 0 of the Poisson
    bracket of the two V parts, less twice the product of the constants."""
    (cx, vx), (cy, vy) = split_constant_and_v(x), split_constant_and_v(y)
    return poisson(vx, vy).constant_term() - (cx * cy) * Scalar.of(2)


def _rand_l_scalar(rng):
    """0, or a sum of one to three L powers with Gaussian-rational coefficients."""
    if rng.random() < 0.2:
        return Scalar()
    parts = {}
    for _ in range(rng.randint(1, 3)):
        re = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        parts[rng.randrange(4)] = GaussianRational(re, Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
    return Scalar(parts)


@pytest.mark.parametrize("nk", PS_SIGNATURES, ids=str)
def test_form_table_matches_the_poisson_form(nk):
    ctx = OspContext(AlgebraSignature(*nk))
    assert all(ctx.form_table.values())  # only the nonzero pairs are kept
    rng = random.Random(sum(nk) * 31 + nk[0])
    h = ctx.h_basis()

    def rand_h():
        out = h[0].scale(0)
        for x in h:
            out = out + x.scale(_rand_l_scalar(rng))
        return out

    elements = h + [rand_h() for _ in range(12)]
    for x, y in itertools.product(elements, repeat=2):
        assert form(ctx, x, y) == reference_form(x, y)


@pytest.mark.parametrize("nk", PS_SIGNATURES, ids=str)
def test_form_rows_match_the_pairwise_form(nk):
    """The rows `verify_invariance` reads give `_form`, on both sides, between
    each basis element of C + V and each of: that basis, its twisted-adjoint
    images under g, and a few elements with coefficients in L."""
    ctx = OspContext(AlgebraSignature(*nk))
    rng = random.Random("form-rows:%d,%d" % nk)
    h, table = ctx.h_basis(), ctx.form_table
    images = [twisted_adjoint(a, z) for a in build_g(ctx)[0] for z in h]
    assert all(z_degree(m) <= 1 for x in images for m in x.terms)
    mixed = [sum((x.scale(_rand_l_scalar(rng)) for x in h), h[0].scale(0)) for _ in range(4)]
    elements = h + images + mixed
    for x in elements:
        left, right = _form_rows(table, x)
        for y in h:
            (m,) = y.terms
            assert left.get(m, Scalar()) == _form(table, x, y)
            assert right.get(m, Scalar()) == _form(table, y, x)


def test_split_rejects_higher_degree():
    x = monomial_element(SIG11, CwMonomial(0, (1,), (1,)))
    with pytest.raises(AlgebraError):
        split_constant_and_v(x)
    with pytest.raises(AlgebraError):
        form(OspContext(SIG11), unit(SIG11), x)


@pytest.mark.parametrize("nk", [(1, 1), (2, 1), (0, 1), (1, 0)], ids=str)
def test_invariance_report(nk):
    report = verify_invariance(OspContext(AlgebraSignature(*nk)))
    assert report["suite"] == "twisted-invariance"
    assert report["failures"] == []
    assert report["cases"] > 0


# -- span helpers --------------------------------------------------------------------


def test_span_helpers():
    w1 = fermi_gen(SIG11, 1)
    p = bose_p(SIG11, 1)
    assert span_contains([w1, p], w1.scale(3) - p)
    assert not span_contains([w1], p)
    row = element_row(w1.scale(Scalar.lam(1)))
    assert all(power == 1 for (_m, power) in row)
