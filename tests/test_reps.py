"""Representation-layer tests.

The action of a product, act(a*b, v) == act(a, act(b, v)), is the independent
oracle for the star product: the left side goes through the bidifferential
kernels, the right side only composes monomial actions, which `act` computes
in closed form without any product.  `tests/reference_act.py` keeps the
earlier token-by-token action, and the closed form must equal it exactly.
Expected matrices
marked [DERIVED] were computed by hand from the ladder decomposition
w_{2j-1} = raise + lower, w_{2j} = i(raise - lower).
"""

import random
from fractions import Fraction

import pytest

import reference_act
from reference_transport import ladder_lower, ladder_raise
from cliffordweyl import reps, scalars, sparse, starprod
from cliffordweyl.algebra import (
    AlgebraError,
    AlgebraSignature,
    CwElement,
    CwMonomial,
    bose_p,
    bose_q,
    fermi_gen,
    unit,
)
from cliffordweyl.linalg import Matrix, MatrixError
from cliffordweyl.ore import ore_unit
from cliffordweyl.reps import (
    GrassPolyVector,
    RepDescriptor,
    RepKind,
    act,
    clifford_op_to_symbol,
    metaplectic,
    rep_matrix,
    spin,
    spin_metaplectic,
    spin_metaplectic_minus,
    spin_metaplectic_plus,
    spin_minus,
    spin_plus,
    spin_rep_odd_sign_check,
)
from cliffordweyl.scalars import S_I, S_ONE, Scalar, i_power
from cliffordweyl.starprod import star

Z = Scalar()


def rand_element(rng, sig, nterms=3, maxdeg=4):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        while True:
            cliff = rng.getrandbits(sig.n_fermi) if sig.n_fermi else 0
            wp = tuple(rng.randint(0, 2) for _ in range(sig.n_bose))
            wq = tuple(rng.randint(0, 2) for _ in range(sig.n_bose))
            m = CwMonomial(cliff, wp, wq)
            if m.z_degree() <= maxdeg:
                break
        terms[m] = Scalar.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2))
    return CwElement(sig, terms)


def rand_vector(rng, desc, maxexp=3):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        g = rng.getrandbits(desc.ell) if desc.ell else 0
        e = tuple(rng.randint(0, maxexp) for _ in range(desc.k))
        terms[(g, e)] = Scalar.of(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-2, 2))
    return GrassPolyVector(desc.ell, desc.k, terms)


# -- action fixtures ----------------------------------------------------------


def test_metaplectic_derivative_fixture():
    desc = metaplectic(1)
    sig = desc.signature()
    x2 = GrassPolyVector.basis(0, 1, 0, (2,))
    x1 = GrassPolyVector.basis(0, 1, 0, (1,))
    assert act(desc, bose_p(sig, 1), x2) == x1.scale(2)


def test_metaplectic_number_operator_fixture():
    # p*q = pq + 1/2 acts on the constant as d/dx (x * 1) = 1
    desc = metaplectic(1)
    sig = desc.signature()
    one = GrassPolyVector.basis(0, 1)
    assert act(desc, star(bose_p(sig, 1), bose_q(sig, 1)), one) == one


def test_spin_volume_word_fixture():
    desc = spin(1)
    sig = desc.signature()
    vol = star(fermi_gen(sig, 1), fermi_gen(sig, 2))
    one = GrassPolyVector.basis(1, 0, 0)
    xi = GrassPolyVector.basis(1, 0, 1)
    assert act(desc, vol, one) == one.scale(S_I)
    assert act(desc, vol, xi) == xi.scale(-S_I)


def test_odd_generator_is_signed_parity():
    for desc, sgn in ((spin_metaplectic_plus(1, 1), 1), (spin_metaplectic_minus(1, 1), -1)):
        sig = desc.signature()
        w3 = fermi_gen(sig, 3)
        even = GrassPolyVector.basis(1, 1, 0, (2,))
        odd = GrassPolyVector.basis(1, 1, 1, (2,))
        assert act(desc, w3, even) == even.scale(sgn)
        assert act(desc, w3, odd) == odd.scale(-sgn)


def test_mixed_volume_word_sign():
    # w1*w2*w3 anticommutes with p and q, so on the mixed carrier it acts as
    # +/- i times the polynomial-parity involution (not a scalar)
    for desc, sgn in ((spin_metaplectic_plus(1, 1), S_I), (spin_metaplectic_minus(1, 1), -S_I)):
        sig = desc.signature()
        vol = star(star(fermi_gen(sig, 1), fermi_gen(sig, 2)), fermi_gen(sig, 3))
        for g in (0, 1):
            for m in (0, 1, 2):
                v = GrassPolyVector.basis(1, 1, g, (m,))
                expected = v.scale(sgn if m % 2 == 0 else -sgn)
                assert act(desc, vol, v) == expected


# -- the star-product oracle --------------------------------------------------


ORACLE_DESCRIPTORS = [
    spin(2),
    spin_plus(1),
    spin_minus(1),
    metaplectic(1),
    spin_metaplectic(1, 1),
    spin_metaplectic_plus(1, 1),
    spin_metaplectic_minus(1, 1),
]


@pytest.mark.parametrize("desc", ORACLE_DESCRIPTORS, ids=lambda d: d.kind.value)
def test_action_respects_star(desc):
    rng = random.Random("oracle:" + desc.kind.value)
    sig = desc.signature()
    for _ in range(300):
        a = rand_element(rng, sig)
        b = rand_element(rng, sig)
        v = rand_vector(rng, desc)
        assert act(desc, star(a, b), v) == act(desc, a, act(desc, b, v))


def test_action_is_linear():
    desc = spin_metaplectic(1, 1)
    sig = desc.signature()
    rng = random.Random(7)
    for _ in range(25):
        a = rand_element(rng, sig)
        v = rand_vector(rng, desc)
        w = rand_vector(rng, desc)
        assert act(desc, a, v + w) == act(desc, a, v) + act(desc, a, w)
        assert act(desc, a, v.scale(S_I)) == act(desc, a, v).scale(S_I)


# -- the closed form against the token-by-token reference ---------------------


_SPIN_ONLY = {RepKind.SPIN, RepKind.SPIN_PLUS, RepKind.SPIN_MINUS}


def _reference_case(rng, kind):
    """A descriptor with ell <= 2 and k <= 4, an element with L in its
    coefficients, and a vector that has, besides random terms, one term
    below a monomial's p power in some mode, whose image is zero."""
    ell = 0 if kind is RepKind.METAPLECTIC else rng.randint(0, 2)
    k = 0 if kind in _SPIN_ONLY else rng.randint(1 if kind is RepKind.METAPLECTIC else 0, 4)
    desc = RepDescriptor(kind, ell, k)
    sig = desc.signature()
    terms = {}
    for _ in range(rng.randint(1, 4)):
        wp = tuple(rng.randint(0, 3) for _ in range(k))
        wq = tuple(rng.randint(0, 2) for _ in range(k))
        m = CwMonomial(rng.getrandbits(sig.n_fermi) if sig.n_fermi else 0, wp, wq)
        re = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
        terms[m] = Scalar({0: re, 1: rng.randint(-1, 1)})
    a = CwElement(sig, terms)
    vterms = {}
    for _ in range(rng.randint(1, 3)):
        g = rng.getrandbits(ell) if ell else 0
        e = tuple(rng.randint(0, 3) for _ in range(k))
        vterms[g, e] = Scalar.of(rng.randint(-3, 3), rng.randint(-2, 2))
    m = rng.choice(sorted(a.terms))
    short = [j for j in range(k) if m.wp[j] > m.wq[j]]
    if short:
        j = rng.choice(short)
        e = [rng.randint(0, 3) for _ in range(k)]
        e[j] = rng.randint(0, m.wp[j] - m.wq[j] - 1)
        vterms[rng.getrandbits(ell) if ell else 0, tuple(e)] = S_ONE
    return desc, a, GrassPolyVector(ell, k, vterms)


@pytest.mark.parametrize("kind", list(RepKind), ids=lambda kind: kind.value)
def test_act_matches_token_reference(kind):
    rng = random.Random("reference:" + kind.value)
    zero_images = 0
    for _ in range(60):
        desc, a, v = _reference_case(rng, kind)
        assert act(desc, a, v) == reference_act.act(desc, a, v), (desc, a, v)
        for m in a.terms:
            for u in v.terms:
                mono = CwElement(a.signature, {m: S_ONE})
                zero_images += not act(desc, mono, GrassPolyVector.basis(desc.ell, desc.k, *u))
    if kind not in _SPIN_ONLY:
        assert zero_images


def test_act_on_a_deep_power():
    # p1 q1^N = q1^N p1 + (N/2) q1^(N-1): on 1 only the second term survives,
    # on x it is x^N + (N/2) x^N; one closed-form term, no word of length N
    desc = metaplectic(1)
    m = CwElement(desc.signature(), {CwMonomial(0, (1,), (1500,)): S_ONE})
    one, x = GrassPolyVector.basis(0, 1, 0, (0,)), GrassPolyVector.basis(0, 1, 0, (1,))
    assert act(desc, m, one) == GrassPolyVector.basis(0, 1, 0, (1499,)).scale(750)
    assert act(desc, m, x) == GrassPolyVector.basis(0, 1, 0, (1500,)).scale(751)


def test_act_makes_one_coefficient_product_per_pair(monkeypatch):
    rng = random.Random(43)
    desc = spin_metaplectic_plus(2, 3)
    exps = [tuple(rng.randint(0, 2) for _ in range(3)) for _ in range(40)]
    monomials = [CwMonomial(rng.getrandbits(5), exps[i], exps[-1 - i]) for i in range(20)]
    terms = {m: Scalar({0: i + 1, 1: 1}) for i, m in enumerate(monomials)}
    a = CwElement(desc.signature(), terms)
    v = GrassPolyVector(
        2, 3, {(g, (g, 3 - g, 2)): Scalar({0: g + 1, 1: Fraction(1, g + 2)}) for g in range(4)}
    )
    want = reference_act.act(desc, a, v)
    products = []
    convolve = scalars.convolve

    def counted_convolve(t1, t2):
        products.append(1)
        return convolve(t1, t2)

    monkeypatch.setattr(scalars, "convolve", counted_convolve)
    got = act(desc, a, v)
    monkeypatch.undo()
    assert len(products) <= len(a.terms) * len(v.terms)
    assert got == want


def test_act_calls_no_product(monkeypatch):
    rng = random.Random(47)
    cases = [_reference_case(rng, kind) for kind in RepKind for _ in range(5)]
    want = [reference_act.act(*case) for case in cases]

    def refuse(*args):
        raise AssertionError("act called a product")

    for module, name in (
        (starprod, "star"),
        (reps, "star"),
        (sparse, "pair_product"),
        (starprod, "pair_product"),
        (starprod, "pair_kernel"),
        (starprod, "_mode_pair"),
        (starprod, "_weyl_pair"),
    ):
        monkeypatch.setattr(module, name, refuse)
    assert [act(*case) for case in cases] == want


# -- operator relations on the carrier ---------------------------------------


@pytest.mark.parametrize("minus", [False, True], ids=["plus", "minus"])
@pytest.mark.parametrize("ell", [1, 2])
def test_defining_relations_as_operators(ell, minus):
    """Generator relations hold as identities of composed operators.

    Checked on every carrier basis vector of total degree <= 5; no star
    product is involved on either side.
    """
    desc = (spin_metaplectic_minus if minus else spin_metaplectic_plus)(ell, 1)
    sig = desc.signature()
    n = sig.n_fermi
    ws = [fermi_gen(sig, i) for i in range(1, n + 1)]
    p, q = bose_p(sig, 1), bose_q(sig, 1)

    basis = [
        GrassPolyVector.basis(ell, 1, g, (m,))
        for g in range(1 << ell)
        for m in range(6)
        if g.bit_count() + m <= 5
    ]

    def compose(a, b, v):
        return act(desc, a, act(desc, b, v))

    for v in basis:
        for i in range(n):
            for j in range(i, n):
                anti = compose(ws[i], ws[j], v) + compose(ws[j], ws[i], v)
                assert anti == (v.scale(2) if i == j else v.scale(0))
            assert compose(ws[i], p, v) + compose(p, ws[i], v) == v.scale(0)
            assert compose(ws[i], q, v) + compose(q, ws[i], v) == v.scale(0)
        assert compose(p, q, v) - compose(q, p, v) == v


# -- matrices ------------------------------------------------------------------


def test_rep_matrix_pauli_fixtures():
    desc = spin(1)
    sig = desc.signature()
    assert rep_matrix(desc, fermi_gen(sig, 1)) == Matrix([[Z, S_ONE], [S_ONE, Z]])
    assert rep_matrix(desc, fermi_gen(sig, 2)) == Matrix([[Z, -S_I], [S_I, Z]])
    assert rep_matrix(desc, unit(sig)) == Matrix.identity(2)


def test_rep_matrix_is_homomorphism():
    rng = random.Random(11)
    for desc in (spin(1), spin(2), spin_plus(1), spin_minus(1)):
        sig = desc.signature()
        for _ in range(20):
            a = rand_element(rng, sig)
            b = rand_element(rng, sig)
            assert rep_matrix(desc, star(a, b)) == rep_matrix(desc, a) * rep_matrix(desc, b)


def test_rep_matrix_rejects_infinite_carrier():
    desc = metaplectic(1)
    with pytest.raises(AlgebraError):
        desc.finite_dimension()
    with pytest.raises(AlgebraError):
        rep_matrix(desc, unit(desc.signature()))


def test_volume_word_is_scaled_parity():
    # w1 * ... * w_{2n} maps to i^n diag((-1)^{|g|}) for n <= 3
    for n in (1, 2, 3):
        desc = spin(n)
        sig = desc.signature()
        vol = unit(sig)
        for i in range(1, 2 * n + 1):
            vol = star(vol, fermi_gen(sig, i))
        dim = 1 << n
        expected = Matrix(
            [
                [
                    (i_power(n) if g.bit_count() % 2 == 0 else -i_power(n))
                    if g == h
                    else Z
                    for h in range(dim)
                ]
                for g in range(dim)
            ]
        )
        assert rep_matrix(desc, vol) == expected


def test_odd_sign_reports():
    for n in (0, 1, 2):
        report = spin_rep_odd_sign_check(n)
        assert report["plus_ok"] and report["minus_ok"] and report["ok"]


# -- operator-to-symbol --------------------------------------------------------


def test_op_to_symbol_fixtures():
    sig = AlgebraSignature(2, 0)
    assert clifford_op_to_symbol(1, Matrix.identity(2)) == unit(sig)
    parity = Matrix([[S_ONE, Z], [Z, -S_ONE]])
    w12 = CwElement(sig, {CwMonomial(0b11, (), ()): -S_I})
    assert clifford_op_to_symbol(1, parity) == w12
    lower = Matrix([[Z, S_ONE], [Z, Z]])
    assert clifford_op_to_symbol(1, lower) == ladder_lower(sig, 1)
    raise_ = Matrix([[Z, Z], [S_ONE, Z]])
    assert clifford_op_to_symbol(1, raise_) == ladder_raise(sig, 1)


def test_op_to_symbol_round_trip_elementary():
    for n in (1, 2, 3):
        desc = spin(n)
        dim = 1 << n
        for r in range(dim):
            for c in range(dim):
                E = Matrix(
                    [[S_ONE if (i, j) == (r, c) else Z for j in range(dim)] for i in range(dim)]
                )
                assert rep_matrix(desc, clifford_op_to_symbol(n, E)) == E


def test_symbol_round_trip_elements():
    rng = random.Random(23)
    for n in (1, 2, 3):
        desc = spin(n)
        sig = desc.signature()
        for _ in range(15):
            a = rand_element(rng, sig, maxdeg=2 * n)
            assert clifford_op_to_symbol(n, rep_matrix(desc, a)) == a


def test_op_to_symbol_multiplicative():
    rng = random.Random(29)
    n, dim = 2, 4
    for _ in range(15):
        A = Matrix(
            [[Scalar.of(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(dim)] for _ in range(dim)]
        )
        B = Matrix(
            [[Scalar.of(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(dim)] for _ in range(dim)]
        )
        assert clifford_op_to_symbol(n, A * B) == star(
            clifford_op_to_symbol(n, A), clifford_op_to_symbol(n, B)
        )


def test_op_to_symbol_size_mismatch():
    with pytest.raises(AlgebraError):
        clifford_op_to_symbol(2, Matrix.identity(3))


# -- error and serialization paths ---------------------------------------------


def test_act_signature_mismatch():
    desc = spin(1)
    other = AlgebraSignature(2, 1)
    with pytest.raises(AlgebraError):
        act(desc, unit(other), GrassPolyVector.basis(1, 0))
    with pytest.raises(AlgebraError):
        act(desc, unit(desc.signature()), GrassPolyVector.basis(2, 0))
    # an element of the deformed family, not of cw
    with pytest.raises(AlgebraError):
        act(desc, ore_unit(1), GrassPolyVector.basis(1, 0))


def test_vector_validation():
    with pytest.raises(AlgebraError):
        GrassPolyVector(1, 0, {(4, ()): S_ONE})
    with pytest.raises(AlgebraError):
        GrassPolyVector(1, 1, {(0, (-1,)): S_ONE})
    with pytest.raises(AttributeError):
        GrassPolyVector.basis(1, 0).terms = {}
    # a plain dict is not a vector
    with pytest.raises(AlgebraError):
        act(spin(1), unit(spin(1).signature()), {(0, ()): S_ONE})


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: spin(-1), AlgebraError),
        (lambda: spin_plus(-1), AlgebraError),
        (lambda: spin_minus(-2), AlgebraError),
        (lambda: metaplectic(-1), AlgebraError),
        (lambda: spin_metaplectic(-1, 1), AlgebraError),
        (lambda: spin_metaplectic_plus(1, -1), AlgebraError),
        (lambda: spin_metaplectic_minus(-1, -1), AlgebraError),
        (lambda: spin(1.5), AlgebraError),
        (lambda: clifford_op_to_symbol(1, [[1, 0], [0, 1]]), MatrixError),
        (lambda: clifford_op_to_symbol(-1, Matrix.identity(1)), AlgebraError),
        (lambda: clifford_op_to_symbol(1, Matrix.identity(2, unit(AlgebraSignature(0, 1)))), MatrixError),
    ],
    ids=[
        "spin",
        "spin+",
        "spin-",
        "metaplectic",
        "spin-metaplectic",
        "spin-metaplectic+",
        "spin-metaplectic-",
        "spin-float",
        "op-not-matrix",
        "op-negative-n",
        "op-over-an-algebra",
    ],
)
def test_bad_sizes_and_operators_raise(call, error):
    with pytest.raises(error):
        call()


def test_descriptor_rejects_bad_sizes():
    # rep_matrix(RepDescriptor(SPIN, -1, 0), ...) used to end in "negative shift count"
    for kind, ell, k in [(RepKind.SPIN, -1, 0), (RepKind.METAPLECTIC, 0, -2), (RepKind.SPIN_PLUS, 0.5, 0)]:
        with pytest.raises(AlgebraError, match="must be a non-negative int"):
            RepDescriptor(kind, ell, k)
    desc = RepDescriptor(RepKind.SPIN, 2, 0)
    assert desc == spin(2) == (RepKind.SPIN, 2, 0)
    assert repr(desc) == "RepDescriptor(kind=<RepKind.SPIN: 'spin'>, ell=2, k=0)"


def test_matrix_json_round_trip():
    desc = spin(2)
    sig = desc.signature()
    rng = random.Random(31)
    m = rep_matrix(desc, rand_element(rng, sig))
    assert Matrix.from_json(m.to_json()) == m


def test_descriptor_kinds():
    assert spin(2).finite_dimension() == 4
    assert spin_plus(1).signature() == AlgebraSignature(3, 0)
    assert spin_metaplectic(1, 2).signature() == AlgebraSignature(2, 2)
    assert metaplectic(2).kind is RepKind.METAPLECTIC
