"""Tests for the deformed-algebra structure maps.

The proportionality constant returned by compare_cocycle was computed by
the library itself (the independent oracle is the rank-0 rewrite of
E- * E+ whose parameter-linear part is -ghost, scaled by 4 under the
p = 2E-, q = 2E+ identification) and frozen below as a regression value.
"""

import inspect
import itertools
import random
from fractions import Fraction

import pytest
import reference_verma
from faults import FAULTS, inject, refuse
from reference_commutant import reference_commutant_dimension
from reference_transport import ore_tensor
from sampling import rand_ore

from cliffordweyl import deform, ore, periodicity, sparse
from cliffordweyl.algebra import (
    AlgebraError,
    AlgebraSignature,
    CwMonomial,
    bose_p,
    bose_q,
    fermi_gen,
    monomial_element,
    unit,
    zero,
)
from cliffordweyl.deform import (
    bounded_monomials,
    center_probe,
    commutant_probe,
    compare_cocycle,
    cw_odd_signature,
    deformation_cochain_c1,
    finite_irrep_pi_h,
    ghost_identities,
    iso_a0_to_cw,
    iso_cw_to_a0,
    ore_to_matrix,
    osp22_check,
    osp22_k_element,
    periodicity2_forward,
    periodicity2_inverse,
    pi_h_lambda,
    pi_h_matrix,
    verma_apply,
    volume_word_element,
)
from cliffordweyl.linalg import Matrix
from cliffordweyl.ore import (
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
    ore_scalar,
    ore_unit,
    ore_zero,
    specialize,
    specialized_product,
)
from cliffordweyl.periodicity import TensorElement, cw_to_matrix, matrix_star
from cliffordweyl.scalars import GR_ONE, GaussianRational, Scalar, i_power
from cliffordweyl.starprod import star
from cliffordweyl.suites import run_suite

GR = GaussianRational


def matrix_direct_sum(a, b):
    (ra, ca), (rb, cb) = a.shape, b.shape
    entries = dict(a.items())
    entries.update(((ra + i, ca + j), x) for (i, j), x in b.items())
    return Matrix.from_entries((ra + rb, ca + cb), entries)


def rep_direct_sum(rep_a, rep_b):
    if set(rep_a) != set(rep_b):
        raise AlgebraError("generator sets differ")
    return {k: matrix_direct_sum(rep_a[k], rep_b[k]) for k in rep_a}


def rand_cw(n, rng, nterms=3, maxdeg=4):
    sig = cw_odd_signature(n)
    out = zero(sig)
    for _ in range(nterms):
        while True:
            mask = rng.getrandbits(sig.n_fermi)
            a = rng.randrange(3)
            b = rng.randrange(3)
            if mask.bit_count() + a + b <= maxdeg:
                break
        c = Scalar.from_gaussian(
            GR(
                Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)),
                Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)),
            )
        )
        out = out + monomial_element(sig, CwMonomial(mask, (a,), (b,)), c)
    return out


# -- the specialization-at-zero isomorphism -----------------------------------------


@pytest.mark.parametrize("n", [0, 1])
def test_iso_generator_images(n):
    sig = cw_odd_signature(n)
    half = Scalar.from_gaussian(GR(Fraction(1, 2)))
    assert iso_a0_to_cw(n, ore_e_plus(n)) == bose_q(sig, 1).scale(half)
    assert iso_a0_to_cw(n, ore_e_minus(n)) == bose_p(sig, 1).scale(half)
    for i in range(1, 2 * n + 2):
        assert iso_a0_to_cw(n, ore_fermi(n, i)) == fermi_gen(sig, i)
    assert iso_cw_to_a0(n, bose_p(sig, 1)) == ore_e_minus(n).scale(2)
    assert iso_cw_to_a0(n, bose_q(sig, 1)) == ore_e_plus(n).scale(2)
    assert iso_cw_to_a0(n, unit(sig)) == ore_unit(n)


def test_iso_rejects_parameter_terms():
    with pytest.raises(AlgebraError):
        iso_a0_to_cw(0, ore_lambda(0))
    with pytest.raises(AlgebraError):
        iso_a0_to_cw(1, ghost_theta(1))
    with pytest.raises(AlgebraError):
        iso_cw_to_a0(1, unit(cw_odd_signature(0)))


@pytest.mark.parametrize("n", [0, 1])
def test_iso_round_trips(n):
    rng = random.Random("roundtrip:%d" % n)
    for _ in range(50):
        x = rand_cw(n, rng)
        assert iso_a0_to_cw(n, iso_cw_to_a0(n, x)) == x
        y = rand_ore(n, rng, with_lam=False)
        assert iso_cw_to_a0(n, iso_a0_to_cw(n, y)) == y


@pytest.mark.parametrize("n", [0, 1])
def test_iso_respects_products_on_generators(n):
    sig = cw_odd_signature(n)
    gens = [fermi_gen(sig, i) for i in range(1, 2 * n + 2)]
    gens += [bose_p(sig, 1), bose_q(sig, 1)]
    for a in gens:
        for b in gens:
            lhs = iso_cw_to_a0(n, star(a, b))
            rhs = specialize(ore_product(iso_cw_to_a0(n, a), iso_cw_to_a0(n, b)), 0)
            assert lhs == rhs


@pytest.mark.parametrize("n", [0, 1])
def test_parameter_free_truncation_is_star_product(n):
    rng = random.Random("truncation:%d" % n)
    for _ in range(100):
        a = rand_cw(n, rng)
        b = rand_cw(n, rng)
        prod = ore_product(iso_cw_to_a0(n, a), iso_cw_to_a0(n, b))
        assert iso_a0_to_cw(n, prod.lam_coefficient(0)) == star(a, b)


# -- first-order deformation cochain ------------------------------------------------


@pytest.mark.parametrize("n", [0, 1])
def test_cochain_generator_values(n):
    sig = cw_odd_signature(n)
    p1, q1 = bose_p(sig, 1), bose_q(sig, 1)
    minus_four = Scalar.from_gaussian(GR(-4))
    assert deformation_cochain_c1(n, p1, q1) == volume_word_element(n).scale(minus_four)
    assert not deformation_cochain_c1(n, q1, p1)
    assert not deformation_cochain_c1(n, fermi_gen(sig, 1), p1)
    assert not deformation_cochain_c1(n, fermi_gen(sig, 1), fermi_gen(sig, 1))


def test_cochain_bilinear():
    n = 0
    rng = random.Random("bilinear")
    a, b, c = (rand_cw(n, rng) for _ in range(3))
    s = Scalar.from_gaussian(GR(Fraction(3, 2), Fraction(-1, 3)))
    assert deformation_cochain_c1(n, a + b, c) == deformation_cochain_c1(
        n, a, c
    ) + deformation_cochain_c1(n, b, c)
    assert deformation_cochain_c1(n, a.scale(s), c) == deformation_cochain_c1(
        n, a, c
    ).scale(s)


@pytest.mark.parametrize("n", [0, 1])
def test_cochain_is_a_two_cocycle(n):
    rng = random.Random("cocycle-law:%d" % n)
    for _ in range(60):
        a = rand_cw(n, rng, nterms=2, maxdeg=3)
        b = rand_cw(n, rng, nterms=2, maxdeg=3)
        c = rand_cw(n, rng, nterms=2, maxdeg=3)
        total = (
            star(a, deformation_cochain_c1(n, b, c))
            - deformation_cochain_c1(n, star(a, b), c)
            + deformation_cochain_c1(n, a, star(b, c))
            - star(deformation_cochain_c1(n, a, b), c)
        )
        assert not total


@pytest.mark.parametrize("n,cases", [(0, 9), (1, 25)])
def test_compare_cocycle_constant_frozen(n, cases):
    report = compare_cocycle(n)
    assert report["failures"] == []
    assert report["cases"] == cases
    assert report["constant"] == GR(-2)


# -- ghost identities ---------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2])
def test_ghost_identities_clean(n):
    report = ghost_identities(n)
    assert report["failures"] == []
    assert report["cases"] >= 8


def test_ghost_specializations_square_to_one():
    rng = random.Random("ghost-lambda")
    n = 1
    th = ghost_theta(n)
    seen = 0
    while seen < 10:
        lam = GR(
            Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
            Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)),
        )
        if not lam:
            continue
        seen += 1
        pbar = specialize(th.scale(lam.inverse()), lam)
        assert specialized_product(pbar, pbar, lam) == ore_unit(n)


# -- rank reduction ------------------------------------------------------------------


def test_forward_generator_images():
    n = 1
    P = OreMonomial(1, 0, 0, 0)
    assert periodicity2_forward(n, ore_fermi(n, 1)) == ore_tensor(n, 0b01, P)
    assert periodicity2_forward(n, ore_fermi(n, 2)) == ore_tensor(n, 0b10, P)
    # the top generator folds onto the even volume word times i^n
    assert periodicity2_forward(n, ore_fermi(n, 3)) == ore_tensor(
        n, 0b11, P, i_power(1)
    )
    assert periodicity2_forward(n, ore_e_plus(n)) == ore_tensor(
        n, 0, OreMonomial(0, 1, 0, 0)
    )
    assert periodicity2_forward(n, ore_lambda(n)) == ore_tensor(
        n, 0, OreMonomial(0, 0, 0, 1)
    )


def test_forward_text_form():
    x = ore_e_plus(1) - ore_fermi(1, 3).scale(GR(1, 2)) + ore_lambda(1) - ore_fermi(1, 1)
    assert str(periodicity2_forward(1, x)) == "1 (x) L + 1 (x) E+ - w1 (x) w1 + (2 - i) * w1 w2 (x) w1"


@pytest.mark.parametrize("n", [1, 2])
def test_forward_bracket_image(n):
    epf = periodicity2_forward(n, ore_e_plus(n))
    emf = periodicity2_forward(n, ore_e_minus(n))
    lhs = epf * emf - emf * epf
    vol = ore_tensor(n, 0, OreMonomial(0, 0, 0, 0))
    for i in range(1, 2 * n + 2):
        vol = vol * periodicity2_forward(n, ore_fermi(n, i))
    rhs = periodicity2_forward(n, ore_lambda(n)) * vol.scale(i_power(n))
    rhs = rhs - ore_tensor(n, 0, OreMonomial(0, 0, 0, 0)).scale(GR(Fraction(1, 4)))
    assert lhs == rhs


@pytest.mark.parametrize("n", [1, 2])
def test_periodicity2_round_trip(n):
    rng = random.Random("p2:%d" % n)
    for g in ore_generators(n) + [ore_lambda(n)]:
        assert periodicity2_inverse(n, periodicity2_forward(n, g)) == g
    for _ in range(30):
        x = rand_ore(n, rng)
        assert periodicity2_inverse(n, periodicity2_forward(n, x)) == x


@pytest.mark.parametrize("n", [1, 2])
def test_periodicity2_homomorphism(n):
    rng = random.Random("p2hom:%d" % n)
    for _ in range(30):
        x = rand_ore(n, rng)
        y = rand_ore(n, rng)
        assert periodicity2_forward(n, ore_product(x, y)) == periodicity2_forward(
            n, x
        ) * periodicity2_forward(n, y)


def test_periodicity2_guards():
    x = ore_fermi(1, 1)
    with pytest.raises(AlgebraError):
        periodicity2_forward(2, x)
    # left Fermi bits outside C(2), and a right factor above rank 0
    left = AlgebraSignature(2, 0)
    with pytest.raises(AlgebraError):
        TensorElement(left, 0, {(CwMonomial(0b100, (), ()), OreMonomial(0, 0, 0, 0)): GR_ONE})
    with pytest.raises(AlgebraError):
        TensorElement(left, 0, {(CwMonomial(0, (), ()), OreMonomial(2, 0, 0, 0)): GR_ONE})


@pytest.mark.parametrize("n", [1, 2])
def test_matrix_realization_is_homomorphism(n):
    rng = random.Random("oremat:%d" % n)
    for _ in range(8):
        x = rand_ore(n, rng, maxdeg=3)
        y = rand_ore(n, rng, maxdeg=3)
        assert ore_to_matrix(n, ore_product(x, y)) == matrix_star(
            ore_to_matrix(n, x), ore_to_matrix(n, y)
        )
    m = ore_to_matrix(n, ore_unit(n))
    assert m.shape == (1 << n, 1 << n)
    assert m[0, 0] == ore_unit(0)


# -- the polynomial representation ---------------------------------------------------


def test_verma_generator_rules():
    lam = GR(Fraction(3, 7), Fraction(1, 2))
    assert verma_apply(lam, ore_e_minus(0), {3: GR_ONE}) == {4: GR(Fraction(-1, 2))}
    assert verma_apply(lam, ore_fermi(0, 1), {3: GR_ONE}) == {3: GR(-1)}
    assert verma_apply(lam, ore_fermi(0, 1), {2: GR_ONE}) == {2: GR_ONE}
    # even powers lose the lam part of the half-derivative rule
    assert verma_apply(lam, ore_e_plus(0), {2: GR_ONE}) == {1: GR(1)}
    assert verma_apply(lam, ore_e_plus(0), {1: GR_ONE}) == {
        0: GR(Fraction(1, 2)) - lam - lam
    }


def test_verma_highest_weight_kill():
    for two_h in range(7):
        h = Fraction(two_h, 2)
        lam = GR(h + Fraction(1, 4))
        assert verma_apply(lam, ore_e_plus(0), {int(4 * h) + 1: GR_ONE}) == {}


def test_verma_bracket_fixture():
    lam = GR(Fraction(2, 5))
    br = ore_lie_bracket(ore_e_plus(0), ore_e_minus(0))
    assert verma_apply(lam, br, {2: GR_ONE}) == {2: GR(Fraction(-1, 4)) + lam}


def test_verma_relations_on_powers():
    rng = random.Random("verma-relations")
    ep, em = ore_e_plus(0), ore_e_minus(0)
    P, L = ore_fermi(0, 1), ore_lambda(0)
    relations = [
        (ore_anti_bracket(ep, P), ore_zero(0)),
        (ore_anti_bracket(em, P), ore_zero(0)),
        (ore_product(P, P), ore_unit(0)),
        (ore_lie_bracket(ep, em) + ore_scalar(0, Fraction(1, 4)), ore_product(L, P)),
    ]
    for _ in range(20):
        lam = GR(
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)),
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)),
        )
        for m in range(51):
            f = {m: GR_ONE}
            for lhs, rhs in relations:
                assert verma_apply(lam, lhs, f) == verma_apply(lam, rhs, f)


def test_verma_rejects_higher_rank():
    with pytest.raises(AlgebraError):
        verma_apply(GR(1), ore_e_plus(1), {0: GR_ONE})
    # z^-1 and z^(1/2) are not in the module
    for bad in (-1, Fraction(1, 2)):
        with pytest.raises(AlgebraError, match="exponents"):
            verma_apply(GR(1), ore_e_plus(0), {bad: GR_ONE})


def test_verma_apply_rejects_a_non_number_weight():
    # E- never reads the weight, so only an upfront check catches it
    with pytest.raises(TypeError):
        verma_apply("x", ore_e_minus(0), {0: 1})
    with pytest.raises(TypeError):
        verma_apply("x", ore_e_plus(0), {1: 1})


def _rand_weight(rng):
    """h + 1/4 for some 2h <= 6, where E+ kills z^(4h+1), or a random weight."""
    if rng.random() < 0.4:
        return GR(Fraction(rng.randrange(7), 2) + Fraction(1, 4))
    return GR(
        Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)),
        Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)),
    )


def _rand_coeff(rng):
    return GR(rng.randrange(-5, 6), rng.randrange(-2, 3))


def _verma_cases(seed, count):
    """(lam, rank-0 element with w, E+^a E-^b and L powers up to 7, 7 and 2, polynomial)."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        monos = [OreMonomial(*(rng.randrange(top) for top in (2, 8, 8, 3))) for _ in range(rng.randrange(1, 6))]
        terms = {m: _rand_coeff(rng) for m in monos}
        f = {rng.randrange(12): _rand_coeff(rng) for _ in range(rng.randrange(1, 4))}
        cases.append((_rand_weight(rng), OreElement(0, terms), f))
    return cases


def test_verma_apply_matches_operator_reference():
    """The closed form equals the operator-by-operator action, zero images included."""
    zeros = {"past z^0": 0, "at 4 lam": 0}
    for lam, a, f in _verma_cases("verma-reference", 300):
        assert verma_apply(lam, a, f) == reference_verma.verma_apply(lam, a, f)
        for m in a.terms:
            for k in f:
                if not reference_verma.verma_apply(lam, OreElement(0, {m: GR_ONE}), {k: GR_ONE}):
                    zeros["past z^0" if m.e_plus > k + m.e_minus else "at 4 lam"] += 1
    assert min(zeros.values()) >= 20, zeros


def test_weight_action_calls_no_product(monkeypatch):
    cases = _verma_cases("verma-no-product", 40)
    want = [reference_verma.verma_apply(*case) for case in cases]
    rep_want = finite_irrep_pi_h(1, 1, "-")
    refuse(monkeypatch, ore.ore_product, sparse.pair_product, ore.pair_kernel, ore._lower_past_powers)
    assert [verma_apply(*case) for case in cases] == want
    assert finite_irrep_pi_h(1, 1, "-") == rep_want


@pytest.mark.parametrize("name", ["verma", "pi-h"])
def test_suites_catch_a_lowering_factor_without_its_weight(name, monkeypatch):
    # E+ lowers z^k by k/2 alone, so z^(4h+1) is no longer killed at h + 1/4
    inject(monkeypatch, "lowering-weight")
    assert deform._lowering_factor(GR(Fraction(1, 4)), 1) == GR(Fraction(1, 2))
    assert name in FAULTS["lowering-weight"].pin


def test_verma_tests_catch_a_wrong_e_minus_sign(monkeypatch):
    inject(monkeypatch, "e-minus-sign")
    for test in (test_verma_generator_rules, test_verma_apply_matches_operator_reference):
        with pytest.raises(AssertionError):
            test()
    assert "pi-h" in FAULTS["e-minus-sign"].pin


def test_verma_suite_catches_a_wrong_e_minus_sign(monkeypatch):
    # the suite's left sides act one generator at a time, so no product
    # normal-orders E- away before it acts: E+(E- f) - E-(E+ f) + f/4 no
    # longer equals L P f
    inject(monkeypatch, "e-minus-sign")
    result = run_suite("verma")
    assert not result.passed
    assert {f["inputs"][0] for f in result.failures} == {"[E+,E-] + 1/4"}


# -- finite quotients ----------------------------------------------------------------


def test_pi_h_smallest_cases():
    rep = finite_irrep_pi_h(0, 0, "+")
    assert rep["E+"].shape == (1, 1)
    assert not any(x for row in rep["E+"].rows for x in row)
    assert not any(x for row in rep["E-"].rows for x in row)
    assert rep["w1"] == Matrix.identity(1)
    assert finite_irrep_pi_h(0, 0, "-")["w1"] == -Matrix.identity(1)


def test_pi_h_dimensions():
    assert finite_irrep_pi_h(0, Fraction(1, 2), "+")["E+"].shape == (3, 3)
    assert finite_irrep_pi_h(1, Fraction(1, 2), "+")["E+"].shape == (6, 6)
    assert finite_irrep_pi_h(1, 1, "-")["E+"].shape == (10, 10)


def _check_relations(n, rep, lam_val):
    ws = [rep["w%d" % i] for i in range(1, 2 * n + 2)]
    ep, em, L = rep["E+"], rep["E-"], rep["L"]
    d = ep.shape[0]
    I = Matrix.identity(d)
    Z = I.scale(Scalar())
    two = I.scale(Scalar.from_gaussian(GR(2)))
    for i, wi in enumerate(ws):
        for j, wj in enumerate(ws):
            assert wi * wj + wj * wi == (two if i == j else Z)
        assert ep * wi + wi * ep == Z
        assert em * wi + wi * em == Z
    vol = I
    for wi in ws:
        vol = vol * wi
    ghost_img = vol.scale(Scalar.from_gaussian(i_power(n))) * L
    quarter = I.scale(Scalar.from_gaussian(GR(Fraction(-1, 4))))
    assert ep * em - em * ep == quarter + ghost_img
    assert L == I.scale(Scalar.from_gaussian(lam_val))


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("two_h", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_pi_h_relations_and_commutant(n, two_h, sign):
    h = Fraction(two_h, 2)
    rep = finite_irrep_pi_h(n, h, sign)
    assert rep["E+"].shape[0] == (1 << n) * (int(4 * h) + 1)
    _check_relations(n, rep, pi_h_lambda(h, sign))
    assert commutant_probe(rep) == 1


def test_pi_h_right_factors_match_reference_rank0():
    """Every w^I E+^a E-^b L^r with a, b <= 6 and r <= 2, at each 2h <= 6 and sign."""
    for two_h in range(7):
        h = Fraction(two_h, 2)
        for sign, twist in (("+", 1), ("-", -1)):
            for c, a, b, r in itertools.product(range(2), range(7), range(7), range(3)):
                m = OreMonomial(c, a, b, r)
                got = pi_h_matrix(0, h, sign, OreElement(0, {m: GR_ONE}))
                assert got == reference_verma.right_factor(h, twist, m), (two_h, sign, m)


def test_pi_h_matrices_match_reference_rank1():
    rng = random.Random("pi-h-reference")
    for two_h in range(5):
        for sign in ("+", "-"):
            for _ in range(4):
                x = rand_ore(1, rng, nterms=4, maxdeg=6)
                h = Fraction(two_h, 2)
                assert pi_h_matrix(1, h, sign, x) == reference_verma.pi_h_matrix(1, h, sign, x)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_pi_h_matrices_match_reference(n):
    """Every 2h <= 4 and sign, on zero and on 5-term elements with L powers."""
    rng = random.Random("pi-h-reference:%d" % n)
    lam_terms = 0
    for two_h in range(5):
        h = Fraction(two_h, 2)
        for sign in ("+", "-"):
            for x in [ore_zero(n)] + [rand_ore(n, rng, nterms=5, maxdeg=5) for _ in range(3)]:
                lam_terms += sum(1 for m in x.terms if m.lam)
                assert pi_h_matrix(n, h, sign, x) == reference_verma.pi_h_matrix(n, h, sign, x)
    assert lam_terms >= 10


def test_matrix_realizations_share_one_path(monkeypatch):
    x = rand_ore(1, random.Random("one-path"), nterms=5)
    refuse(monkeypatch, periodicity._realize_left)
    calls = (
        lambda: cw_to_matrix(1, 1, fermi_gen(AlgebraSignature(2, 1), 1)),
        lambda: ore_to_matrix(1, x),
        lambda: pi_h_matrix(1, 1, "-", x),
        lambda: finite_irrep_pi_h(0, 1, "+"),
    )
    for call in calls:
        with pytest.raises(AssertionError, match="refused _realize_left"):
            call()
    assert not hasattr(Matrix, "kron")
    source = inspect.getsource(deform)
    assert "rep_matrix" not in source and "kron" not in source


def test_pi_h_matrix_multiplicative():
    rng = random.Random("pih-mult")
    n, h, sign = 1, Fraction(1, 2), "+"
    for _ in range(10):
        x = rand_ore(n, rng, maxdeg=3)
        y = rand_ore(n, rng, maxdeg=3)
        assert pi_h_matrix(n, h, sign, ore_product(x, y)) == pi_h_matrix(
            n, h, sign, x
        ) * pi_h_matrix(n, h, sign, y)


def test_pi_h_guards():
    with pytest.raises(AlgebraError):
        finite_irrep_pi_h(0, Fraction(1, 3), "+")
    with pytest.raises(AlgebraError):
        finite_irrep_pi_h(0, -1, "+")
    with pytest.raises(AlgebraError):
        finite_irrep_pi_h(0, 1, "x")


def test_commutant_of_isotypic_double():
    rep = finite_irrep_pi_h(0, 0, "+")
    double = rep_direct_sum(rep, rep)
    assert double["E+"].shape == (2, 2)
    assert commutant_probe(double) == 4


@pytest.mark.parametrize(
    "first,second,dim",
    [
        ((1, Fraction(1, 2), "-"), (1, Fraction(1, 2), "-"), 4),
        ((0, 1, "+"), (0, 1, "-"), 2),
        ((1, 0, "+"), (1, Fraction(3, 2), "+"), 2),
    ],
)
def test_direct_sums_count_their_isomorphic_summands(first, second, dim):
    rep = rep_direct_sum(finite_irrep_pi_h(*first), finite_irrep_pi_h(*second))
    assert commutant_probe(rep) == reference_commutant_dimension(rep) == dim


def test_commutant_rejects_an_entry_involving_lambda():
    rep = finite_irrep_pi_h(0, 0, "+")
    bad = {**rep, "E+": Matrix([[Scalar.lam(1) + 1]])}
    with pytest.raises(AlgebraError, match="central parameter"):
        commutant_probe(bad)


def test_matrix_direct_sum_shape():
    a = Matrix.identity(2)
    b = Matrix.identity(3)
    s = matrix_direct_sum(a, b)
    assert s.shape == (5, 5)
    assert s == Matrix.identity(5)


# -- probes --------------------------------------------------------------------------


def test_center_probe_rank0():
    basis = center_probe(0, 4)
    assert [str(b) for b in basis] == ["1", "L", "L^2"]
    for b in basis:
        for g in ore_generators(0):
            assert ore_product(b, g) == ore_product(g, b)


def test_center_probe_excludes_ghost():
    # the ghost anticommutes with E+, so it must not appear
    basis = center_probe(0, 3)
    assert [str(b) for b in basis] == ["1", "L"]


def test_bounded_monomials_count():
    monos = bounded_monomials(0, 2)
    # 1, w1, E+, E-, L, w1E+, w1E-, E+^2, E+E-, E-^2, (none with r and base>0)
    assert OreMonomial(0, 0, 0, 1) in monos
    assert OreMonomial(1, 1, 0, 0) in monos
    assert all(m.degree() <= 2 for m in monos)
    assert len(monos) == len(set(monos)) == 10


# -- the three-element orthosymplectic check -----------------------------------------


@pytest.mark.parametrize("n", [0, 1])
def test_osp22_report_clean(n):
    report = osp22_check(n)
    assert report["failures"] == []
    assert report["cases"] == 27


def test_osp22_bracket_fixtures():
    n = 0
    K = osp22_k_element(n)
    ep, em = ore_e_plus(n), ore_e_minus(n)
    assert K == ore_lambda(n) - ore_fermi(n, 1).scale(GR(Fraction(1, 4)))
    # [[E+,E+],E-] = -E+
    lhs = ore_lie_bracket(ore_anti_bracket(ep, ep), em)
    assert lhs == -ep
    # [[E+,E-],K] = 0
    assert not ore_lie_bracket(ore_anti_bracket(ep, em), K)
    # [[K,E+],E-] = -K/2
    got = ore_anti_bracket(ore_lie_bracket(K, ep), em)
    assert got == -K.scale(GR(Fraction(1, 2)))
