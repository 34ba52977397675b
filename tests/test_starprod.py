"""Product-layer tests.

Expected values marked [DERIVED] were computed by hand from the terminating
kernel sums (falling factorials for the Bose factor, single contraction of
the common index set for the Fermi factor) and frozen here.
"""

import random
from fractions import Fraction

import pytest

import reference_weyl_kernel as ref
from reference_bracket import homogeneous_parts
from sampling import rand_element
from cliffordweyl import starprod
from cliffordweyl.algebra import (
    AlgebraSignature,
    CwElement,
    CwMonomial,
    bidegree,
    bose_p,
    bose_q,
    element_bidegree,
    fermi_gen,
    monomial_element,
    unit,
    zero,
)
from cliffordweyl.scalars import S_HALF, S_LAMBDA, S_ONE, Scalar
from cliffordweyl.starprod import (
    anti_bracket,
    lie_bracket,
    poisson,
    star,
    super_bracket,
    supertrace_weyl,
    trace_clifford,
    wedge,
)
from reference_act import element_star_words, eval_star_word, to_star_words

SIG = AlgebraSignature(3, 2)
W = [fermi_gen(SIG, i) for i in (1, 2, 3)]
P = [bose_p(SIG, i) for i in (1, 2)]
Q = [bose_q(SIG, i) for i in (1, 2)]


# -- frozen examples ---------------------------------------------------------


def test_star_generator_fixtures():
    assert star(P[0], Q[0]) == wedge(P[0], Q[0]) + unit(SIG).scale(S_HALF)
    assert star(W[0], W[0]) == unit(SIG)
    assert star(P[0], W[0]) == -wedge(W[0], P[0])
    assert star(W[0], P[0]) == wedge(W[0], P[0])


def test_wedge_fixtures():
    assert wedge(W[0], W[0]) == zero(SIG)
    assert wedge(P[0], W[0]) == -wedge(W[0], P[0])
    assert wedge(Q[0], P[0]) == wedge(P[0], Q[0])  # commuting symbols


def test_star_higher_order_weyl():
    # [DERIVED] p^2 * q^2 = p^2q^2 + 2pq + 1/2 at t=1
    p2 = wedge(P[0], P[0])
    q2 = wedge(Q[0], Q[0])
    expect = wedge(p2, q2) + wedge(P[0], Q[0]).scale(2) + unit(SIG).scale(S_HALF)
    assert star(p2, q2) == expect


def test_poisson_fixtures():
    assert poisson(P[0], Q[0]) == unit(SIG)
    assert poisson(W[0], W[0]) == unit(SIG).scale(2)
    assert poisson(W[0], P[0]) == zero(SIG)
    assert poisson(Q[0], P[0]) == -unit(SIG)


def test_bracket_fixtures():
    assert lie_bracket(P[0], Q[0]) == unit(SIG)
    assert anti_bracket(W[0], W[0]) == unit(SIG).scale(2)
    assert super_bracket(P[0], Q[0]) == wedge(P[0], Q[0]).scale(2)
    # Bose-parity grading: two Fermi generators bracket as a commutator
    assert super_bracket(W[0], W[0]) == zero(SIG)
    assert super_bracket(W[0], W[1]) == wedge(W[0], W[1]).scale(2)


def test_presentation_relations():
    # anticommutators/commutators of all generator pairs
    one = unit(SIG)
    for i, wi in enumerate(W):
        for j, wj in enumerate(W):
            assert anti_bracket(wi, wj) == (one.scale(2) if i == j else zero(SIG))
    for i, pi in enumerate(P):
        for j, qj in enumerate(Q):
            assert lie_bracket(pi, qj) == (one if i == j else zero(SIG))
            assert lie_bracket(qj, pi) == (-one if i == j else zero(SIG))
    for pi in P:
        for pj in P:
            assert lie_bracket(pi, pj) == zero(SIG)
    for qi in Q:
        for qj in Q:
            assert lie_bracket(qi, qj) == zero(SIG)
    for wi in W:
        for x in P + Q:
            assert anti_bracket(wi, x) == zero(SIG)


def test_fermi_volume_square_signs():
    # (w1*...*w2n)^*2 = (-1)^n for n <= 4
    for n in range(1, 5):
        sig = AlgebraSignature(2 * n, 0)
        vol = unit(sig)
        for i in range(1, 2 * n + 1):
            vol = star(vol, fermi_gen(sig, i))
        assert star(vol, vol) == unit(sig).scale((-1) ** n)


# -- invariants ---------------------------------------------------------------


def test_associativity_seeded_triples():
    rng = random.Random(1234)
    for _ in range(200):
        a = rand_element(rng, SIG)
        b = rand_element(rng, SIG)
        c = rand_element(rng, SIG)
        assert star(star(a, b), c) == star(a, star(b, c))


def test_associativity_pure_signatures():
    rng = random.Random(99)
    for sig in (AlgebraSignature(0, 2), AlgebraSignature(4, 0)):
        for _ in range(60):
            a = rand_element(rng, sig)
            b = rand_element(rng, sig)
            c = rand_element(rng, sig)
            assert star(star(a, b), c) == star(a, star(b, c))


# L-free t other than 0 and 1: star scales each term of the product at t = 1
# by t^e, e half the Z-degree the term loses
OTHER_T = (Scalar.of(2), Scalar.of(Fraction(1, 3), -1))
OTHER_T_IDS = ["t=2", "t=1/3-i"]


@pytest.mark.parametrize("t", OTHER_T, ids=OTHER_T_IDS)
def test_relations_at_other_t(t):
    sig = AlgebraSignature(3, 2, t)
    one = unit(sig)
    for i in (1, 2, 3):
        w = fermi_gen(sig, i)
        assert star(w, w) == one.scale(t)
    for j in (1, 2):
        p, q = bose_p(sig, j), bose_q(sig, j)
        assert star(p, q) - star(q, p) == one.scale(t)


@pytest.mark.parametrize("t", OTHER_T, ids=OTHER_T_IDS)
def test_associativity_at_other_t(t):
    sig = AlgebraSignature(3, 2, t)
    rng = random.Random(4321)
    for _ in range(60):
        a, b, c = (rand_element(rng, sig) for _ in range(3))
        assert star(star(a, b), c) == star(a, star(b, c))


@pytest.mark.parametrize("t", OTHER_T, ids=OTHER_T_IDS)
def test_star_at_other_t_is_formal_star_specialized(t):
    # star at t = L, with L then replaced by t, is star at t itself
    sig, sigL = AlgebraSignature(3, 2, t), AlgebraSignature(3, 2, S_LAMBDA)
    value = t.constant()
    rng = random.Random(8765)
    for _ in range(60):
        a, b = rand_element(rng, sig, maxdeg=5), rand_element(rng, sig, maxdeg=5)
        formal = star(CwElement(sigL, a.terms), CwElement(sigL, b.terms))
        specialized = formal.map_coefficients(lambda c: Scalar.from_gaussian(c.specialize(value)))
        assert CwElement(sig, specialized.terms) == star(a, b)


def test_star_at_zero_is_wedge():
    sig0 = AlgebraSignature(3, 2, Scalar())
    rng = random.Random(5)
    for _ in range(80):
        a, b = rand_element(rng, sig0), rand_element(rng, sig0)
        assert star(a, b) == ref.wedge(a, b)


def test_first_order_term_is_half_poisson():
    # with the deformation parameter set to the formal variable L, the star
    # product's L-expansion must start  wedge + (L/2)*poisson + O(L^2)
    sigL = AlgebraSignature(2, 1, S_LAMBDA)
    rng = random.Random(17)
    for _ in range(80):
        a, b = rand_element(rng, sigL, maxdeg=3), rand_element(rng, sigL, maxdeg=3)
        sp = star(a, b)
        order0 = sp.map_coefficients(lambda c: Scalar.from_gaussian(c.lam_coefficient(0)))
        order1 = sp.map_coefficients(lambda c: Scalar.from_gaussian(c.lam_coefficient(1)))
        assert order0 == ref.wedge(a, b)
        assert order1.scale(2) == ref.poisson(a, b)


# t = L and t = 0 too: the bracket is the classical one at every t
POISSON_SIGNATURES = [
    AlgebraSignature(3, 2),
    AlgebraSignature(5, 0),
    AlgebraSignature(0, 3),
    AlgebraSignature(2, 1, S_LAMBDA),
    AlgebraSignature(3, 1, Scalar()),
]


@pytest.mark.parametrize("sig", POISSON_SIGNATURES, ids=repr)
def test_poisson_matches_the_reference_bracket(sig):
    rng = random.Random(4711)
    for _ in range(125):
        # coefficients with L powers ride through the bracket unchanged
        a, b = (
            rand_element(rng, sig, nterms=4).map_coefficients(
                lambda c: c * Scalar.lam(rng.randint(0, 2))
            )
            for _ in range(2)
        )
        got, want = poisson(a, b), ref.poisson(a, b)
        assert got == want and str(got) == str(want), (a, b)


def test_poisson_reads_the_pair_kernel(monkeypatch):
    def refused(*exponents):
        raise RuntimeError("pair kernel")

    monkeypatch.setattr(starprod, "_weyl_pair", refused)
    with pytest.raises(RuntimeError, match="pair kernel"):
        poisson(W[0], W[0])


def test_low_degree_weyl_bracket_equals_poisson():
    # commutator = Poisson bracket whenever the left factor has Z-degree <= 2
    sig = AlgebraSignature(0, 2)
    basis = []
    for dp1 in range(3):
        for dq1 in range(3 - dp1):
            for dp2 in range(3 - dp1 - dq1):
                for dq2 in range(3 - dp1 - dq1 - dp2):
                    basis.append(CwMonomial(0, (dp1, dp2), (dq1, dq2)))
    rng = random.Random(31)
    gs = [rand_element(rng, sig, nterms=4, maxdeg=5) for _ in range(6)]
    for m in basis:
        f = monomial_element(sig, m)
        for g in gs:
            assert lie_bracket(f, g) == ref.poisson(f, g)


def test_bidegree_additive_through_star():
    rng = random.Random(77)
    mono = list(rand_element(rng, SIG, nterms=8).terms)
    for m1 in mono:
        for m2 in mono:
            prod = star(monomial_element(SIG, m1), monomial_element(SIG, m2))
            d = element_bidegree(prod)
            if prod:
                assert d == bidegree(m1) + bidegree(m2)


def test_signature_mismatch():
    from cliffordweyl.algebra import SignatureMismatch

    with pytest.raises(SignatureMismatch):
        star(P[0], bose_p(AlgebraSignature(0, 2), 1))


# -- traces -------------------------------------------------------------------


def test_supertrace_fixtures():
    sig = AlgebraSignature(0, 1)
    p, q = bose_p(sig, 1), bose_q(sig, 1)
    assert supertrace_weyl(star(p, q)) == Scalar.of(Fraction(1, 2))
    with pytest.raises(Exception):
        supertrace_weyl(W[0])


def test_supertrace_kills_brackets():
    sig = AlgebraSignature(0, 2)
    rng = random.Random(11)
    for _ in range(100):
        a = rand_element(rng, sig)
        b = rand_element(rng, sig)
        # Bose-parity homogeneous parts, bracketed pairwise
        for da, xa in homogeneous_parts(a, lambda m: m.bose_degree() % 2).items():
            for db, xb in homogeneous_parts(b, lambda m: m.bose_degree() % 2).items():
                assert supertrace_weyl(super_bracket(xa, xb)) == Scalar()


def test_trace_clifford_fixtures():
    sig = AlgebraSignature(2, 0)
    assert trace_clifford(unit(sig)) == Scalar.of(2)
    assert trace_clifford(fermi_gen(sig, 1)) == Scalar()
    with pytest.raises(Exception):
        trace_clifford(unit(AlgebraSignature(3, 0)))
    with pytest.raises(Exception):
        trace_clifford(unit(AlgebraSignature(2, 1)))


def test_trace_clifford_kills_commutators():
    sig = AlgebraSignature(4, 0)
    rng = random.Random(13)
    for _ in range(60):
        a, b = rand_element(rng, sig), rand_element(rng, sig)
        assert trace_clifford(lie_bracket(a, b)) == Scalar()


# -- star words ---------------------------------------------------------------
#
# The star words live in `reference_act`, where they drive the reference
# module action and transport maps; these tests check them against `star`.


def test_star_words_reconstruct_monomials():
    rng = random.Random(2718)
    for _ in range(40):
        while True:
            m = CwMonomial(
                rng.getrandbits(3),
                (rng.randint(0, 2), rng.randint(0, 2)),
                (rng.randint(0, 2), rng.randint(0, 2)),
            )
            if m.z_degree() <= 5:
                break
        acc = zero(SIG)
        for c, word in to_star_words(SIG, m):
            acc = acc + eval_star_word(SIG, word).scale(c)
        assert acc == monomial_element(SIG, m)


def test_element_star_words_reconstruct():
    rng = random.Random(281)
    for _ in range(15):
        e = rand_element(rng, SIG, nterms=3, maxdeg=4)
        acc = zero(SIG)
        for c, word in element_star_words(e):
            acc = acc + eval_star_word(SIG, word).scale(c)
        assert acc == e


def test_star_words_respect_t():
    # at t=0 a monomial is literally the word of its factors
    sig0 = AlgebraSignature(1, 1, Scalar())
    m = CwMonomial(1, (2,), (1,))
    words = to_star_words(sig0, m)
    assert len(words) == 1
    c, word = words[0]
    assert c == S_ONE
    assert word == (("w", 1), ("q", 1), ("p", 1), ("p", 1))


def test_star_words_of_a_deep_q_power():
    # cw:0,2: q1^1500 is one word; the reference strips q factors on an
    # explicit stack, so no recursion over the power
    sig = AlgebraSignature(0, 1)
    assert to_star_words(sig, CwMonomial(0, (0,), (1500,))) == [(S_ONE, (("q", 1),) * 1500)]
    # p1 q1^N = q1^N p1 + N (t/2) q1^(N-1)
    words = to_star_words(sig, CwMonomial(0, (1,), (1500,)))
    assert words == [
        (Scalar.of(1500) * sig.t_param * S_HALF, (("q", 1),) * 1499),
        (S_ONE, (("q", 1),) * 1500 + (("p", 1),)),
    ]
    ref._weyl_word_cache.clear()  # some 30 MB of words
