"""Tensor product / periodicity tests.

The tensor product carries no crossing sign (see the module docstring); the
generator-image fixtures were checked by hand against the volume-involution
relations z^2 = 1, z w_j = -w_j z.
"""

import random
from fractions import Fraction

import pytest
from reference_tensor import ref_tensor_star
from reference_transport import tensor_unit, tensor_zero

from cliffordweyl.algebra import (
    AlgebraError,
    AlgebraSignature,
    CwElement,
    CwMonomial,
    SignatureMismatch,
    bose_p,
    bose_q,
    fermi_gen,
    monomial_element,
    unit,
    zero,
)
from cliffordweyl.deform import periodicity2_forward
from cliffordweyl.linalg import Matrix, sparse_rank
from cliffordweyl.periodicity import (
    TensorElement,
    cw_to_matrix,
    matrix_star,
    module_transport,
    odd_join,
    odd_projections,
    odd_split,
    periodicity1_forward,
    periodicity1_inverse,
    tensor_of,
    tensor_star,
    volume_involution,
)
from cliffordweyl.reps import GrassPolyVector, act, metaplectic
from cliffordweyl.scalars import S_I, S_LAMBDA, S_ONE, Scalar
from cliffordweyl.starprod import star
from cliffordweyl.suites import _rand_ore

SHIFT_CASES = [(1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 2, 1)]


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


# -- tensor elements -----------------------------------------------------------


LEFT = AlgebraSignature(2, 0)
RIGHT = AlgebraSignature(1, 1)


def test_tensor_star_fixtures():
    w1 = tensor_of(fermi_gen(LEFT, 1), unit(RIGHT))
    assert tensor_star(w1, w1) == tensor_unit(LEFT, RIGHT)
    # no crossing sign: (1 (x) p)(w1 (x) 1) = +w1 (x) p
    pz = tensor_of(unit(LEFT), bose_p(RIGHT, 1))
    assert tensor_star(pz, w1) == tensor_of(fermi_gen(LEFT, 1), bose_p(RIGHT, 1))
    x = tensor_of(fermi_gen(LEFT, 2), bose_q(RIGHT, 1))
    assert tensor_star(tensor_unit(LEFT, RIGHT), x) == x


@pytest.mark.parametrize("m,n,k", SHIFT_CASES)
def test_tensor_star_matches_reference_on_cw_images(m, n, k):
    rng = random.Random(7100 + 10 * m + n)
    src = AlgebraSignature(2 * m + n, k)
    for _ in range(4):
        fx, fy = (periodicity1_forward(m, n, k, rand_element(rng, src)) for _ in range(2))
        assert tensor_star(fx, fy) == ref_tensor_star(fx, fy), (fx, fy)


def test_tensor_star_matches_reference_with_l_powers():
    # L-polynomial coefficients, Bose generators on the left and t = L on the right
    rng = random.Random(7101)
    left, right = AlgebraSignature(2, 1), AlgebraSignature(1, 1, S_LAMBDA)
    coeffs = [S_ONE, S_LAMBDA, S_I + S_LAMBDA * S_LAMBDA]

    def rand_tensor():
        return sum(
            (tensor_of(rand_element(rng, left), rand_element(rng, right)).scale(c) for c in coeffs),
            tensor_zero(left, right),
        )

    for _ in range(4):
        x, y = rand_tensor(), rand_tensor()
        assert tensor_star(x, y) == ref_tensor_star(x, y), (x, y)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_tensor_star_matches_reference_on_deformed_images(n):
    rng = random.Random(7102 + n)
    for _ in range(4):
        fx, fy = (periodicity2_forward(n, _rand_ore(rng, n, nterms=3)) for _ in range(2))
        assert tensor_star(fx, fy) == ref_tensor_star(fx, fy), (fx, fy)


def test_tensor_vector_ops():
    rng = random.Random(1)
    xs = [
        tensor_of(rand_element(rng, LEFT), rand_element(rng, RIGHT))
        for _ in range(3)
    ]
    assert (xs[0] + xs[1]) - xs[1] == xs[0]
    assert xs[0] - xs[0] == tensor_zero(LEFT, RIGHT)
    assert xs[2].scale(S_I).scale(S_I) == -xs[2]
    with pytest.raises(SignatureMismatch):
        xs[0] + tensor_unit(RIGHT, LEFT)


def test_tensor_json_round_trip():
    rng = random.Random(2)
    x = tensor_of(rand_element(rng, LEFT), rand_element(rng, RIGHT))
    assert TensorElement.from_json(LEFT, RIGHT, x.to_json()) == x


def test_volume_involution_relations():
    for m in (1, 2):
        sig = AlgebraSignature(2 * m, 0)
        z = volume_involution(sig, m)
        assert star(z, z) == unit(sig)
        for j in range(1, 2 * m + 1):
            w = fermi_gen(sig, j)
            assert star(z, w) == -star(w, z)


# -- dimension shift ------------------------------------------------------------


def test_forward_generator_fixture():
    # (m=1,n=1,k=1): w3 -> z (x) w'1 with z = i w1 w2
    src = AlgebraSignature(3, 1)
    left, right = AlgebraSignature(2, 0), AlgebraSignature(1, 1)
    got = periodicity1_forward(1, 1, 1, fermi_gen(src, 3))
    assert got == tensor_of(volume_involution(left, 1), fermi_gen(right, 1))
    # even generators pass through the left slot
    assert periodicity1_forward(1, 1, 1, fermi_gen(src, 1)) == tensor_of(
        fermi_gen(left, 1), unit(right)
    )


@pytest.mark.parametrize("mnk", SHIFT_CASES, ids=str)
def test_forward_is_homomorphism(mnk):
    m, n, k = mnk
    sig = AlgebraSignature(2 * m + n, k)
    gens = (
        [fermi_gen(sig, i) for i in range(1, 2 * m + n + 1)]
        + [bose_p(sig, j) for j in range(1, k + 1)]
        + [bose_q(sig, j) for j in range(1, k + 1)]
    )
    for x in gens:
        for y in gens:
            fx = periodicity1_forward(m, n, k, x)
            fy = periodicity1_forward(m, n, k, y)
            assert periodicity1_forward(m, n, k, star(x, y)) == tensor_star(fx, fy)
    rng = random.Random("shift:%d%d%d" % mnk)
    for _ in range(100):
        x = rand_element(rng, sig)
        y = rand_element(rng, sig)
        assert periodicity1_forward(m, n, k, star(x, y)) == tensor_star(
            periodicity1_forward(m, n, k, x), periodicity1_forward(m, n, k, y)
        )


@pytest.mark.parametrize("mnk", SHIFT_CASES, ids=str)
def test_round_trips(mnk):
    m, n, k = mnk
    sig = AlgebraSignature(2 * m + n, k)
    rng = random.Random("rt:%d%d%d" % mnk)
    for _ in range(100):
        x = rand_element(rng, sig)
        fx = periodicity1_forward(m, n, k, x)
        assert periodicity1_inverse(m, n, k, fx) == x
    # other direction on pure tensors of random elements
    left, right = AlgebraSignature(2 * m, 0), AlgebraSignature(n, k)
    for _ in range(30):
        X = tensor_of(rand_element(rng, left), rand_element(rng, right))
        assert periodicity1_forward(m, n, k, periodicity1_inverse(m, n, k, X)) == X


def test_shift_signature_errors():
    with pytest.raises(SignatureMismatch):
        periodicity1_forward(1, 1, 1, unit(AlgebraSignature(2, 1)))
    with pytest.raises(SignatureMismatch):
        periodicity1_inverse(1, 1, 1, tensor_unit(RIGHT, LEFT))


# -- odd splitting ---------------------------------------------------------------


def test_odd_projection_fixtures():
    zp, zm = odd_projections(0)
    sig1 = AlgebraSignature(1, 0)
    assert star(zp, zm) == zero(sig1)
    assert star(zm, zp) == zero(sig1)
    assert zp + zm == unit(sig1)
    assert star(zp, zp) == zp and star(zm, zm) == zm


def test_odd_split_fixtures():
    sig1 = AlgebraSignature(1, 0)
    sig0 = AlgebraSignature(0, 0)
    assert odd_split(0, unit(sig1)) == (unit(sig0), unit(sig0))
    assert odd_split(0, fermi_gen(sig1, 1)) == (unit(sig0), -unit(sig0))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_odd_split_is_isomorphism(n):
    sig = AlgebraSignature(2 * n + 1, 0)
    rng = random.Random(40 + n)
    for _ in range(40):
        x = rand_element(rng, sig, maxdeg=2 * n + 1)
        y = rand_element(rng, sig, maxdeg=2 * n + 1)
        xp, xm = odd_split(n, x)
        yp, ym = odd_split(n, y)
        assert odd_split(n, star(x, y)) == (star(xp, yp), star(xm, ym))
        assert odd_join(n, xp, xm) == x
    # join then split is also the identity
    small = AlgebraSignature(2 * n, 0)
    for _ in range(20):
        cp = rand_element(rng, small, maxdeg=2 * n)
        cm = rand_element(rng, small, maxdeg=2 * n)
        assert odd_split(n, odd_join(n, cp, cm)) == (cp, cm)


# -- matrices over an algebra ----------------------------------------------------


W2 = AlgebraSignature(0, 1)


def e_matrix(i, j, sig=W2, r=2):
    one, z = unit(sig), zero(sig)
    return Matrix(
        [[one if (a, b) == (i, j) else z for b in range(r)] for a in range(r)]
    )


def test_matrix_star_fixtures():
    rng = random.Random(6)
    A = Matrix(
        [[rand_element(rng, W2), rand_element(rng, W2)] for _ in range(2)]
    )
    ident = Matrix.identity(2, unit(W2))
    assert matrix_star(ident, A) == A
    assert matrix_star(A, ident) == A
    assert matrix_star(e_matrix(0, 1), e_matrix(1, 0)) == e_matrix(0, 0)
    assert matrix_star(e_matrix(0, 1), e_matrix(0, 1)).rows == (
        (zero(W2), zero(W2)),
        (zero(W2), zero(W2)),
    )


def test_matrix_star_associative():
    rng = random.Random(7)
    for _ in range(100):
        mats = [
            Matrix(
                [
                    [rand_element(rng, W2, nterms=2, maxdeg=3) for _ in range(2)]
                    for _ in range(2)
                ]
            )
            for _ in range(3)
        ]
        A, B, C = mats
        assert matrix_star(matrix_star(A, B), C) == matrix_star(A, matrix_star(B, C))


def test_matrix_guards():
    column = Matrix([[unit(W2)], [unit(W2)]])
    with pytest.raises(AlgebraError):
        matrix_star(column, column)
    with pytest.raises(AlgebraError):
        Matrix([[unit(W2), unit(AlgebraSignature(1, 1))], [unit(W2), unit(W2)]])
    with pytest.raises(AlgebraError):
        matrix_star(e_matrix(0, 0), Matrix.identity(3, unit(W2)))


def test_module_transport_is_action():
    # entries act on polynomials; matrices must then act on pairs compatibly
    desc = metaplectic(1)
    action = lambda a, v: act(desc, a, v)
    lifted = module_transport(action, 2)
    rng = random.Random(8)
    for _ in range(20):
        A = Matrix([[rand_element(rng, W2, nterms=2) for _ in range(2)] for _ in range(2)])
        B = Matrix([[rand_element(rng, W2, nterms=2) for _ in range(2)] for _ in range(2)])
        vs = [
            GrassPolyVector.basis(0, 1, 0, (rng.randint(0, 3),)).scale(rng.randint(1, 4))
            for _ in range(2)
        ]
        assert lifted(matrix_star(A, B), vs) == lifted(A, lifted(B, vs))


# -- full even reduction ---------------------------------------------------------


SIG22 = AlgebraSignature(2, 1)


def test_cw_to_matrix_fixtures():
    one, z = unit(W2), zero(W2)
    assert cw_to_matrix(1, 1, fermi_gen(SIG22, 1)) == Matrix([[z, one], [one, z]])
    p = bose_p(W2, 1)
    assert cw_to_matrix(1, 1, bose_p(SIG22, 1)) == Matrix([[-p, z], [z, p]])
    assert cw_to_matrix(1, 1, unit(SIG22)) == Matrix.identity(2, one)


@pytest.mark.parametrize("nk", [(1, 1), (2, 1)], ids=str)
def test_cw_to_matrix_is_homomorphism(nk):
    n, k = nk
    sig = AlgebraSignature(2 * n, k)
    rng = random.Random("mat:%d%d" % nk)
    for _ in range(40):
        x = rand_element(rng, sig)
        y = rand_element(rng, sig)
        assert cw_to_matrix(n, k, star(x, y)) == matrix_star(
            cw_to_matrix(n, k, x), cw_to_matrix(n, k, y)
        )


@pytest.mark.parametrize("nk", [(1, 1), (2, 1)], ids=str)
def test_cw_to_matrix_basis_independent(nk):
    # all Fermi masks over a few Bose monomials -> independent matrices
    n, k = nk
    sig = AlgebraSignature(2 * n, k)
    bose_parts = [((0,) * k, (0,) * k), ((1,) + (0,) * (k - 1), (0,) * k)]
    rows = []
    for mask in range(1 << (2 * n)):
        for wp, wq in bose_parts:
            M = cw_to_matrix(n, k, monomial_element(sig, CwMonomial(mask, wp, wq)))
            row = {}
            for i in range(M.shape[0]):
                for j in range(M.shape[1]):
                    for mono, c in M[i, j].terms.items():
                        for power, g in c.coeffs.items():
                            row[(i, j, mono, power)] = g
            rows.append(row)
    assert sparse_rank(rows) == len(rows)
