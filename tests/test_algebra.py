import random
import signal

import pytest

from cliffordweyl.algebra import (
    AlgebraError,
    AlgebraSignature,
    BiDegree,
    CwElement,
    CwMonomial,
    SignatureMismatch,
    bidegree,
    bose_p,
    bose_q,
    canonicalize,
    element_bidegree,
    fermi_gen,
    generators,
    monomial_element,
    scalar_element,
    unit,
    z_degree,
    zero,
)
from cliffordweyl.scalars import GaussianRational, S_I, S_ONE, Scalar

SIG = AlgebraSignature(3, 2)


def rand_element(rng, sig=SIG, nterms=4, maxdeg=4):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        while True:
            cliff = rng.getrandbits(sig.n_fermi)
            wp = tuple(rng.randint(0, 2) for _ in range(sig.n_bose))
            wq = tuple(rng.randint(0, 2) for _ in range(sig.n_bose))
            m = CwMonomial(cliff, wp, wq)
            if m.z_degree() <= maxdeg:
                break
        terms[m] = Scalar.of(rng.randint(-5, 5), rng.randint(-2, 2))
    return CwElement(SIG if sig is SIG else sig, terms)


def test_monomial_degrees():
    m = CwMonomial(0b101, (2, 0), (1, 3))
    assert z_degree(m) == 2 + 2 + 4
    assert m.bose_degree() == 6
    assert m.cliff_indices() == [1, 3]


def test_bidegree_generators():
    # the two Z2 gradings on generators: degree (1,0) for w, (1,1) for p/q
    k = SIG.n_bose
    assert bidegree(CwMonomial(1, (0,) * k, (0,) * k)) == BiDegree(1, 0)
    assert bidegree(CwMonomial(0, (1, 0), (0,) * k)) == BiDegree(1, 1)
    assert bidegree(CwMonomial(0, (0,) * k, (0,) * k)) == BiDegree(0, 0)
    assert bidegree(CwMonomial(1, (1, 0), (0, 0))) == BiDegree(0, 1)


def test_bidegree_addition_mod_two():
    assert BiDegree(1, 1) + BiDegree(1, 0) == BiDegree(0, 1)


def test_element_bidegree_mixed_is_none():
    w1 = fermi_gen(SIG, 1)
    assert element_bidegree(w1) == BiDegree(1, 0)
    assert element_bidegree(w1 + unit(SIG)) is None


def test_canonicalize_merges_and_drops():
    m = CwMonomial(0, (0, 0), (0, 0))
    e = CwElement(SIG, {m: S_ONE})
    e2 = e + e - e - e
    assert e2.terms == {}
    assert canonicalize(e2) == zero(SIG)
    # canonicalize is idempotent
    assert canonicalize(canonicalize(e)) == canonicalize(e)


def test_vector_ops():
    rng = random.Random(42)
    for _ in range(100):
        a, b = rand_element(rng), rand_element(rng)
        assert a + b == b + a
        assert a - b == -(b - a)
        assert (a + b) - b == a
        assert a.scale(2) == a + a
        assert a.scale(0) == zero(SIG)


def test_scalar_coercion_in_sum():
    w1 = fermi_gen(SIG, 1)
    assert w1 + 1 == w1 + unit(SIG)
    assert 2 * w1 == w1.scale(2)
    assert w1 * S_I == w1.scale(S_I)


def test_signature_mismatch_raises():
    with pytest.raises(SignatureMismatch):
        fermi_gen(AlgebraSignature(2, 1), 1) + fermi_gen(AlgebraSignature(3, 1), 1)


@pytest.mark.parametrize("space", [None, (1, 1, S_ONE), 2])
def test_an_element_refuses_a_space_that_is_not_a_signature(space):
    # CwElement(None) used to be built, and its `+ 1` end in AttributeError
    with pytest.raises(AlgebraError, match="expected an AlgebraSignature"):
        CwElement(space)
    with pytest.raises(AlgebraError, match="expected an AlgebraSignature"):
        CwElement.from_json(space, [])


def test_monomial_validation():
    with pytest.raises(AlgebraError):
        CwElement(SIG, {CwMonomial(1 << 3, (0, 0), (0, 0)): S_ONE})  # w4 not in C(3,4)
    with pytest.raises(AlgebraError):
        CwElement(SIG, {CwMonomial(0, (0,), (0, 0)): S_ONE})  # wrong arity
    with pytest.raises(AlgebraError):
        CwElement(SIG, {CwMonomial(0, (-1, 0), (0, 0)): S_ONE})
    with pytest.raises(AlgebraError):
        fermi_gen(SIG, 4)
    with pytest.raises(AlgebraError):
        bose_p(SIG, 3)


def test_signature_rejects_bad_sizes():
    # unit(AlgebraSignature(-2, 0)) used to end in "negative shift count"
    for sizes in [(-2, 0), (0, -1), (1.5, 0), ("2", 1)]:
        with pytest.raises(AlgebraError, match="must be a non-negative int"):
            AlgebraSignature(*sizes)
    sig = AlgebraSignature(2, 1)
    assert sig == (2, 1, S_ONE) and hash(sig) == hash((2, 1, S_ONE))
    assert repr(sig) == "AlgebraSignature(2, 1)"
    assert repr(AlgebraSignature(0, 1, t_param=Scalar.of(2))) == "AlgebraSignature(0, 1, t=2)"


def test_generators_list():
    gens = generators(SIG)
    assert len(gens) == 3 + 2 + 2
    assert gens[0] == fermi_gen(SIG, 1)
    assert gens[3] == bose_p(SIG, 1)
    assert gens[5] == bose_q(SIG, 1)


def test_equality_is_canonical_form_independent():
    m = CwMonomial(0b1, (1, 0), (0, 0))
    a = CwElement(SIG, {m: Scalar.of(2)})
    b = monomial_element(SIG, m, S_ONE) + monomial_element(SIG, m, S_ONE)
    assert a == b
    assert hash(a) == hash(b)


def test_constant_elements_hash_like_the_number_they_equal():
    s = SIG
    assert zero(s) == 0 and unit(s) == 1
    assert len({unit(s), 1}) == 1
    assert len({zero(s), 0}) == 1
    assert hash(unit(s).scale(Scalar.of(0, 1))) == hash(GaussianRational(0, 1))
    lam = scalar_element(s, Scalar.lam())
    assert lam == Scalar.lam() and hash(lam) == hash(Scalar.lam())


def test_constant_term():
    e = unit(SIG).scale(5) + fermi_gen(SIG, 2)
    assert e.constant_term() == Scalar.of(5)
    assert fermi_gen(SIG, 2).constant_term() == Scalar()


def test_immutability():
    e = unit(SIG)
    with pytest.raises(AttributeError):
        e.terms = {}


def test_text_fixtures():
    # [DERIVED] frozen display strings
    w1, w2 = fermi_gen(SIG, 1), fermi_gen(SIG, 2)
    p1, q2 = bose_p(SIG, 1), bose_q(SIG, 2)
    from cliffordweyl.starprod import wedge

    e = wedge(wedge(w1, w2), wedge(p1, q2)).scale(Scalar.of(0, 1))
    assert str(e) == "i * w1 w2 p1 q2"
    assert str(zero(SIG)) == "0"
    assert str(unit(SIG).scale(-1) - fermi_gen(SIG, 1)) == "-1 - w1"
    from fractions import Fraction

    m = CwMonomial(0, (2, 0), (0, 1))
    assert str(monomial_element(SIG, m).scale(Fraction(1, 2))) == "1/2 * p1^2 q2"


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(60):
        e = rand_element(rng)
        assert CwElement.from_json(SIG, e.to_json()) == e
    # shape of one record is stable
    j = (fermi_gen(SIG, 1) + fermi_gen(SIG, 1)).to_json()
    assert j == [{"coeff": {"0": [[2, 1], [0, 1]]}, "cliff": [1], "p": [0, 0], "q": [0, 0]}]


def test_monomials_deterministic_order():
    rng = random.Random(9)
    e = rand_element(rng, nterms=6)
    ms = e.monomials()
    assert ms == sorted(ms, key=lambda mc: (mc[0].z_degree(), mc[0].cliff, mc[0].wp, mc[0].wq))


def test_power_operator():
    p1 = bose_p(SIG, 1)
    assert p1 ** 0 == unit(SIG)
    assert p1 ** 3 == p1 * p1 * p1
    with pytest.raises(ValueError):
        p1 ** -1


# -- one size gate ------------------------------------------------------------------

BAD_SIZES = [-1, "1", 1.5, 1001, 10**9]


def _ore_builders():
    from cliffordweyl import ore

    return {
        "OreElement": ore.OreElement,
        "ore_zero": ore.ore_zero,
        "ore_unit": ore.ore_unit,
        "ore_scalar": lambda n: ore.ore_scalar(n, 2),
        "ore_fermi": lambda n: ore.ore_fermi(n, 1),
        "ore_e_plus": ore.ore_e_plus,
        "ore_e_minus": ore.ore_e_minus,
        "ore_lambda": ore.ore_lambda,
        "ghost_theta": ore.ghost_theta,
        "ore_generators": ore.ore_generators,
    }


def _sized():
    from cliffordweyl import deform
    from cliffordweyl.ore import ore_relations_report
    from cliffordweyl.reps import RepDescriptor, RepKind

    return {
        "n_fermi": lambda size: AlgebraSignature(size, 0),
        "n_bose": lambda size: AlgebraSignature(0, size),
        "ell": lambda size: RepDescriptor(RepKind.SPIN, size, 0),
        "k": lambda size: RepDescriptor(RepKind.METAPLECTIC, 0, size),
        **_ore_builders(),
        # rank-taking functions outside the constructors
        "center_probe": lambda n: deform.center_probe(n, 1),
        "compare_cocycle": deform.compare_cocycle,
        "cw_odd_signature": deform.cw_odd_signature,
        "finite_irrep_pi_h": lambda n: deform.finite_irrep_pi_h(n, 1, "+"),
        "ghost_identities": deform.ghost_identities,
        "ore_relations_report": ore_relations_report,
        "osp22_check": deform.osp22_check,
    }


def _indexed():
    from cliffordweyl.ore import ore_fermi

    sig = AlgebraSignature(2, 2)
    return {
        "fermi_gen": lambda i: fermi_gen(sig, i),
        "bose_p": lambda i: bose_p(sig, i),
        "bose_q": lambda i: bose_q(sig, i),
        "ore_fermi": lambda i: ore_fermi(0, i),
    }


def _refused_within_a_second(call):
    def timeout(signum, frame):
        raise TimeoutError("still running after 1 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(1)
    try:
        with pytest.raises(AlgebraError):
            call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("size", BAD_SIZES, ids=repr)
@pytest.mark.parametrize("name", sorted(_sized()))
def test_every_size_passes_one_gate(name, size):
    # ore_fermi("1", 1) used to end in TypeError and ore_fermi(-1, 1) to say
    # "rank--1"; ore ranks had no upper bound, and center_probe(10**9, 1)
    # ran out of memory
    _refused_within_a_second(lambda: _sized()[name](size))


@pytest.mark.parametrize("index", BAD_SIZES + [0, 3], ids=repr)
@pytest.mark.parametrize("name", sorted(_indexed()))
def test_every_generator_index_passes_one_check(name, index):
    # fermi_gen, bose_p, bose_q and ore_fermi used to end in TypeError on "1",
    # and ore_fermi(0, 1.5) to say "w1 outside"
    _refused_within_a_second(lambda: _indexed()[name](index))


def test_the_size_bound_is_inclusive():
    from cliffordweyl.exprs import MAX_ALGEBRA_SIZE
    from cliffordweyl.ore import ore_e_plus

    assert AlgebraSignature(MAX_ALGEBRA_SIZE, MAX_ALGEBRA_SIZE // 2).n_bose == 500
    assert ore_e_plus(MAX_ALGEBRA_SIZE).n == 1000
    with pytest.raises(AlgebraError, match="n_bose above the size bound of 500"):
        AlgebraSignature(0, MAX_ALGEBRA_SIZE // 2 + 1)


@pytest.mark.parametrize("n, h", [(0, 10**7), (1, 10**7), (0, 1024)], ids=["ore:0", "ore:1", "just past the bound"])
def test_quotient_dimension_passes_one_bound(n, h):
    # pi_h_matrix(0, 5000, "+", E+) used to take 0.3 s and h = 10**7 minutes
    from cliffordweyl.deform import finite_irrep_pi_h, pi_h_matrix
    from cliffordweyl.ore import ore_e_plus

    _refused_within_a_second(lambda: pi_h_matrix(n, h, "+", ore_e_plus(n)))
    _refused_within_a_second(lambda: finite_irrep_pi_h(n, h, "-"))


def test_the_largest_quotient_below_the_bound_is_built():
    from fractions import Fraction

    from cliffordweyl.deform import ore_to_matrix, pi_h_matrix
    from cliffordweyl.ore import ore_e_plus, ore_unit
    from cliffordweyl.periodicity import MAX_QUOTIENT_DIMENSION, cw_to_matrix

    assert MAX_QUOTIENT_DIMENSION < 4097
    assert pi_h_matrix(0, Fraction(2047, 2), "+", ore_e_plus(0)).shape == (4095, 4095)
    # and the largest matrix realizations, 2^12-square
    assert cw_to_matrix(12, 0, unit(AlgebraSignature(24, 0))).shape == (4096, 4096)
    assert ore_to_matrix(12, ore_unit(12)).shape == (4096, 4096)


@pytest.mark.parametrize("n", [13, 20])
def test_realization_dimension_passes_the_same_bound(n, monkeypatch):
    # cw_to_matrix(n, 0, unit) took 0.45 s at n = 14, four times longer per step;
    # the bound is checked before either factorization
    from faults import refuse

    from cliffordweyl.deform import ore_to_matrix, periodicity2_forward
    from cliffordweyl.ore import ore_unit
    from cliffordweyl.periodicity import cw_to_matrix, periodicity1_forward

    refuse(monkeypatch, periodicity1_forward, periodicity2_forward)
    _refused_within_a_second(lambda: cw_to_matrix(n, 0, unit(AlgebraSignature(2 * n, 0))))
    _refused_within_a_second(lambda: ore_to_matrix(n, ore_unit(n)))


# a RepDescriptor's sizes, each just past what its signature() accepts:
# (kind name, ell, k)
DESCRIPTORS_PAST_THE_BOUND = [
    ("METAPLECTIC", 0, 501),
    ("METAPLECTIC", 0, 700),
    ("SPIN", 501, 0),
    ("SPIN_PLUS", 500, 0),
    ("SPIN_METAPLECTIC_MINUS", 500, 1),
    ("SPIN_METAPLECTIC", 1, 501),
]


@pytest.mark.parametrize("kind, ell, k", DESCRIPTORS_PAST_THE_BOUND)
def test_rep_descriptor_refuses_what_its_signature_refuses(kind, ell, k):
    # RepDescriptor(METAPLECTIC, 0, 700) used to be built and fail on first use
    from cliffordweyl.reps import RepDescriptor, RepKind

    _refused_within_a_second(lambda: RepDescriptor(RepKind[kind], ell, k))


@pytest.mark.parametrize(
    "kind, ell, k, signature",
    [("METAPLECTIC", 0, 500, (0, 500)), ("SPIN", 500, 0, (1000, 0)), ("SPIN_PLUS", 499, 0, (999, 0))],
)
def test_rep_descriptor_bound_is_inclusive(kind, ell, k, signature):
    from cliffordweyl.reps import RepDescriptor, RepKind

    assert RepDescriptor(RepKind[kind], ell, k).signature() == AlgebraSignature(*signature)
