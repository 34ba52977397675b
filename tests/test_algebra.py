import random

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
