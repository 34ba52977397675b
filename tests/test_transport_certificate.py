"""The transports certified as homomorphisms on a degree truncation.

A linear map phi into an associative algebra with phi(1) = 1 and
phi(m * g) = phi(m) phi(g), for every generator g and every monomial m of
degree at most d - 1, is multiplicative on every product a * b with
deg a + deg b <= d.  Every monomial b of positive degree is b'' * g minus
terms of lower degree, g its last letter, so induction on deg b gives
phi(a * b) = phi(a * b'') phi(g) - phi(a * lower) = phi(a) phi(b); this is
the normal-form reasoning of Bergman's diamond lemma (G. M. Bergman, "The
diamond lemma for ring theory", Adv. Math. 29, 1978).  In ore:n with
n >= 1 the ghost term of E- E+ raises the degree, so there the law covers
the listed pairs only.

A homomorphism is fixed by its generator images, and there can be more
than one (z -> -z is another), so each image is also checked against the
closed form of the map, written here from the formulas and not read off
the library: the volume word z = i^m w_1...w_2m of the even factor, and for
the matrix realization the ladder matrices w_2a-1 = Q_a + P_a, w_2a =
i (Q_a - P_a) of the spin module on Grassmann monomials.  The law runs
through `sparse.homomorphism_law`, the loop of the transport suites, on
every (monomial, generator) pair; where the map has an inverse, the round
trip on every listed monomial checks that it is a bijection there.
"""

from collections import namedtuple
from itertools import product

import pytest
from faults import inject

from cliffordweyl.algebra import (
    AlgebraSignature,
    CwMonomial,
    fermi_gen,
    generators,
    monomial_element,
    unit,
    zero,
)
from cliffordweyl.deform import bounded_monomials, iso_a0_to_cw, iso_cw_to_a0
from cliffordweyl.deform import periodicity2_forward, periodicity2_inverse
from cliffordweyl.linalg import Matrix
from cliffordweyl.ore import (
    OreElement,
    ore_e_minus,
    ore_e_plus,
    ore_fermi,
    ore_generators,
    ore_lambda,
    ore_product,
    ore_unit,
)
from cliffordweyl.periodicity import (
    cw_to_matrix,
    matrix_star,
    odd_join,
    odd_split,
    periodicity1_forward,
    periodicity1_inverse,
    tensor_of,
    tensor_star,
)
from cliffordweyl.scalars import GaussianRational, i_power
from cliffordweyl.sparse import Checks, homomorphism_law
from cliffordweyl.starprod import star

# images: (x, phi(x) by the formula) for the unit and then each generator
Transport = namedtuple(
    "Transport", "images generators monomials forward product target_product inverse"
)


def cw_monomials(sig, d):
    """Every monomial of sig of degree at most d - 1."""
    k = sig.n_bose
    return [
        monomial_element(sig, CwMonomial(mask, wp, wq))
        for mask in range(1 << sig.n_fermi)
        for wp in product(range(d), repeat=k)
        for wq in product(range(d), repeat=k)
        if mask.bit_count() + sum(wp) + sum(wq) < d
    ]


def volume(sig, m):
    """z = i^m w_1...w_2m in sig."""
    k = sig.n_bose
    return monomial_element(sig, CwMonomial((1 << 2 * m) - 1, (0,) * k, (0,) * k), i_power(m))


def periodicity1(m, n, k, d):
    sig, left, right = AlgebraSignature(2 * m + n, k), AlgebraSignature(2 * m, 0), AlgebraSignature(n, k)
    z, one = volume(left, m), unit(right)
    # w_j -> w_j (x) 1 for j <= 2m, w_2m+j -> z (x) w'_j, p_j -> z (x) p_j, q_j -> z (x) q_j
    images = [tensor_of(fermi_gen(left, j), one) for j in range(1, 2 * m + 1)]
    images += [tensor_of(z, g) for g in generators(right)]
    return Transport(
        [(unit(sig), tensor_of(unit(left), one))] + list(zip(generators(sig), images)),
        generators(sig),
        cw_monomials(sig, d),
        lambda x: periodicity1_forward(m, n, k, x),
        star,
        tensor_star,
        lambda X: periodicity1_inverse(m, n, k, X),
    )


def periodicity2(n, d):
    left = AlgebraSignature(2 * n, 0)
    one, p = unit(left), ore_fermi(0, 1)
    # w_j -> w_j (x) P for j <= 2n, w_2n+1 -> z (x) P, E+- -> 1 (x) E+-, L -> 1 (x) L
    images = [tensor_of(fermi_gen(left, j), p) for j in range(1, 2 * n + 1)]
    images += [tensor_of(volume(left, n), p)]
    images += [tensor_of(one, g) for g in (ore_e_plus(0), ore_e_minus(0), ore_lambda(0))]
    gens = ore_generators(n) + [ore_lambda(n)]
    return Transport(
        [(ore_unit(n), tensor_of(one, ore_unit(0)))] + list(zip(gens, images)),
        gens,
        [OreElement(n, {m: 1}) for m in bounded_monomials(n, d - 1)],
        lambda x: periodicity2_forward(n, x),
        ore_product,
        tensor_star,
        lambda X: periodicity2_inverse(n, X),
    )


def odd(n, d):
    sig, tgt = AlgebraSignature(2 * n + 1, 0), AlgebraSignature(2 * n, 0)
    v = volume(tgt, n)
    # w_j -> (w_j, w_j) for j <= 2n, and w_2n+1 -> (v, -v)
    images = [(fermi_gen(tgt, j),) * 2 for j in range(1, 2 * n + 1)] + [(v, -v)]
    return Transport(
        [(unit(sig), (unit(tgt),) * 2)] + list(zip(generators(sig), images)),
        generators(sig),
        cw_monomials(sig, d),
        lambda x: odd_split(n, x),
        star,
        lambda a, b: (star(a[0], b[0]), star(a[1], b[1])),
        lambda c: odd_join(n, *c),
    )


def ladder(n, i):
    """The 2^n-square Scalar matrix of w_i on the basis xi^g, column g the
    image of xi^g: Q_a = xi_a ^ . and P_a = d/dxi_a, each with the sign of
    the letters of g before xi_a."""
    a, entries = (i - 1) >> 1, {}
    for g in range(1 << n):
        sign = -1 if (g & ((1 << a) - 1)).bit_count() & 1 else 1
        # w_2a-1 = Q_a + P_a and w_2a = i (Q_a - P_a): Q_a adds the letter, P_a removes it
        c = sign if i & 1 else GaussianRational(0, -sign if g >> a & 1 else sign)
        entries[g ^ 1 << a, g] = c
    return Matrix.from_entries((1 << n, 1 << n), entries)


def matrix(n, k, d):
    sig, bose = AlgebraSignature(2 * n, k), AlgebraSignature(0, k)
    gammas = [ladder(n, i) for i in range(1, 2 * n + 1)]
    chirality = Matrix.identity(1 << n).scale(i_power(n))
    for g in gammas:
        chirality = chirality * g

    def over(M, e):
        return Matrix.from_entries(M.shape, {ij: e.scale(x) for ij, x in M.items()}, zero(bose))

    # w_j -> its ladder matrix, p_j -> chirality p_j, q_j -> chirality q_j
    images = [over(g, unit(bose)) for g in gammas]
    images += [over(chirality, g) for g in generators(bose)]
    return Transport(
        [(unit(sig), Matrix.identity(1 << n, unit(bose)))] + list(zip(generators(sig), images)),
        generators(sig),
        cw_monomials(sig, d),
        lambda x: cw_to_matrix(n, k, x),
        star,
        matrix_star,
        None,
    )


def iso(n, d):
    sig = AlgebraSignature(2 * n + 1, 1)
    # w_j -> w_j, p -> 2 E-, q -> 2 E+, into the specialization at L = 0
    images = [ore_fermi(n, j) for j in range(1, 2 * n + 2)]
    images += [ore_e_minus(n).scale(2), ore_e_plus(n).scale(2)]
    return Transport(
        [(unit(sig), ore_unit(n))] + list(zip(generators(sig), images)),
        generators(sig),
        cw_monomials(sig, d),
        lambda x: iso_cw_to_a0(n, x),
        star,
        lambda a, b: ore_product(a, b).lam_coefficient(0),
        lambda a: iso_a0_to_cw(n, a),
    )


# each transport at its grid point, with its degree bound d
GRID = {
    "periodicity1-m1n1k1": lambda: periodicity1(1, 1, 1, 4),
    "periodicity1-m1n0k1": lambda: periodicity1(1, 0, 1, 4),
    "periodicity2-n1": lambda: periodicity2(1, 3),
    "odd-split-n1": lambda: odd(1, 4),
    "cw_to_matrix-n1k1": lambda: matrix(1, 1, 4),
    "cw_to_matrix-n2k1": lambda: matrix(2, 1, 3),
    "iso-n0": lambda: iso(0, 5),
    "iso-n1": lambda: iso(1, 3),
}


def law(t):
    pairs = [(m, g) for m in t.monomials for g in t.generators]
    return homomorphism_law(
        Checks(), ["hom", "round trip"], pairs, t.forward, t.product, t.target_product, t.inverse
    )


def failing_points():
    """The grid points whose law records a failure."""
    return sorted(name for name, make in GRID.items() if law(make()).failures)


@pytest.mark.parametrize("name", sorted(GRID))
def test_generator_images_follow_the_formulas(name):
    t = GRID[name]()
    for x, want in t.images:
        assert t.forward(x) == want, x


@pytest.mark.parametrize("name", sorted(GRID))
def test_the_law_holds_on_the_truncation(name):
    t = GRID[name]()
    checks = law(t)
    pairs = len(t.monomials) * len(t.generators)
    assert checks.failures == []
    assert checks.cases == pairs * (1 if t.inverse is None else 2)


def test_the_certificate_catches_the_volume_phase_fault(monkeypatch):
    inject(monkeypatch, "volume-phase")
    # every map that reads the volume word fails the law, but at n = 2 the
    # fault only takes i^2 = -1 off z, and z -> -z is another isomorphism:
    # there the generator images see it
    assert failing_points() == sorted(set(GRID) - {"cw_to_matrix-n2k1", "iso-n0", "iso-n1"})
    t = GRID["cw_to_matrix-n2k1"]()
    assert [str(x) for x, want in t.images if t.forward(x) != want] == ["p1", "q1"]


def test_the_round_trip_catches_the_order_sign_fault(monkeypatch):
    inject(monkeypatch, "iso-order-sign")
    assert failing_points() == ["iso-n0", "iso-n1"]
    # the forward map keeps its signs, so only round trips fail: at n = 0,
    # those of the listed monomials with both p and q
    t = GRID["iso-n0"]()
    failed = {tuple(f["inputs"]) for f in law(t).failures}
    assert failed == {("round trip", str(m)) for m in t.monomials for key in m.terms if min(key.wp + key.wq)}
