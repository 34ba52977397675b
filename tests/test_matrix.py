"""The sparse `Matrix` against the dense matrix it replaced.

`reference_matrix.DenseMatrix` stores every entry and computes each
operation over the whole grid.  Here both are built from the same seeded
random rows, over Scalars with L powers, cw elements and ore elements, at
densities from 0 to 1, and every operation must agree with the oracle,
text forms included, while the sparse matrix stores no zero entry.  The
work-count test pins that a product only multiplies stored entries.
"""

import random
from fractions import Fraction

import pytest
from reference_matrix import DenseMatrix

from cliffordweyl import scalars
from cliffordweyl.algebra import AlgebraSignature, fermi_gen, unit, zero
from cliffordweyl.linalg import Matrix, MatrixError
from cliffordweyl.ore import ore_zero
from cliffordweyl.scalars import GaussianRational, Scalar
from cliffordweyl.suites import _rand_cw, _rand_ore

SIG = AlgebraSignature(2, 1)


def rand_scalar(rng):
    # small coefficients and a few L powers, so sums and products cancel often
    return Scalar({rng.randrange(3): GaussianRational(rng.choice((1, -1, 2)), rng.choice((0, 0, 1)))})


def rand_cw(rng):
    # 1 +- w1 are zero divisors, (1 + w1)(1 - w1) = 0, so products of nonzero entries vanish
    if rng.random() < 0.5:
        return unit(SIG) + fermi_gen(SIG, 1).scale(rng.choice((1, -1)))
    return _rand_cw(rng, SIG, nterms=2, maxdeg=3)


RINGS = {
    "scalar": (rand_scalar, Scalar()),
    "cw": (rand_cw, zero(SIG)),
    "ore": (lambda rng: _rand_ore(rng, 0, nterms=2, maxdeg=3), ore_zero(0)),
}
SHAPES = [(1, 1), (1, 4), (4, 1), (2, 3), (3, 3), (4, 2)]
DENSITIES = [0, 0.2, 0.5, 1]


def rand_rows(rng, ring, shape, density):
    entry, z = RINGS[ring]
    return [[entry(rng) if rng.random() < density else z for _ in range(shape[1])] for _ in range(shape[0])]


def rand_pair(rng, ring, shape, density):
    """The same random matrix, sparse and dense."""
    rows = rand_rows(rng, ring, shape, density)
    return Matrix(rows), DenseMatrix(rows)


def assert_same(m, d):
    """m agrees with the oracle d entry by entry and in text, and stores no zero."""
    assert m.shape == d.shape
    assert m.rows == d.rows
    assert repr(m) == repr(d)
    assert m.to_json() == d.to_json()
    rows, cols = d.shape
    for i in range(-rows, rows):
        for j in range(-cols, cols):
            assert m[i, j] == d[i, j]
    stored = dict(m.items())
    assert all(stored.values())
    assert stored == {(i, j): x for i, r in enumerate(d.rows) for j, x in enumerate(r) if x}
    assert m == Matrix(d.rows) and hash(m) == hash(Matrix(d.rows))


def cases():
    for ring in sorted(RINGS):
        for density in DENSITIES:
            yield ring, density


@pytest.mark.parametrize("ring,density", list(cases()))
def test_operations_match_the_dense_oracle(ring, density):
    rng = random.Random("%s:%s" % (ring, density))
    for shape in SHAPES:
        for _ in range(3):
            (a, da), (b, db) = rand_pair(rng, ring, shape, density), rand_pair(rng, ring, shape, density)
            assert_same(a, da)
            assert_same(a + b, da + db)
            assert_same(a - b, da - db)
            assert_same(a - a, da - da)
            assert_same(-a, -da)
            # ore coefficients are Gaussian rationals; L is one of its generators
            half = GaussianRational(Fraction(1, 2), 1)
            for s in (half if ring == "ore" else Scalar.lam(1, half), GaussianRational(-3), 0):
                assert_same(a.scale(s), da.scale(s))
            other = (shape[1], rng.randrange(1, 4))
            c, dc = rand_pair(rng, ring, other, density)
            assert_same(a * c, da * dc)


def test_edge_shapes_match_the_dense_oracle():
    for shape in ((0, 0), (3, 0)):
        assert_same(Matrix([[]] * shape[0]), DenseMatrix([[]] * shape[0]))
    empty, dempty = Matrix([[], []]), DenseMatrix([[], []])
    assert_same(empty * Matrix([[]] * 0), dempty * DenseMatrix([]))
    for n in (0, 1, 3):
        assert_same(Matrix.identity(n), DenseMatrix.identity(n))
        assert_same(Matrix.identity(n, unit(SIG)), DenseMatrix.identity(n, unit(SIG)))


def test_indexing_errors_match_the_dense_oracle():
    m, d = rand_pair(random.Random(6), "scalar", (2, 3), 0.5)
    for rc in ((2, 0), (-3, 0), (0, 3), (0, -4)):
        with pytest.raises(IndexError):
            d[rc]
        with pytest.raises(IndexError):
            m[rc]


def test_shape_and_ring_errors_are_kept():
    a = Matrix([[1, 2]])
    with pytest.raises(MatrixError, match="shape mismatch"):
        a + Matrix([[1], [2]])
    with pytest.raises(MatrixError, match="shape mismatch"):
        a - Matrix([[1], [2]])
    with pytest.raises(MatrixError, match="shape mismatch"):
        a * a
    with pytest.raises(MatrixError, match="entry rings differ"):
        Matrix.identity(1) * Matrix.identity(1, unit(SIG))
    with pytest.raises(MatrixError, match="mixed entry rings"):
        Matrix([[0, unit(SIG)]])
    with pytest.raises(MatrixError, match="mixed entry rings"):
        Matrix.from_entries((1, 1), {(0, 0): unit(SIG)})
    with pytest.raises(MatrixError, match="outside shape"):
        Matrix.from_entries((1, 1), {(0, 1): 1})
    with pytest.raises(AttributeError):
        a.rows = ()


def test_equal_matrices_built_differently_hash_alike():
    rng = random.Random(7)
    for ring in sorted(RINGS):
        for density in DENSITIES:
            a, _ = rand_pair(rng, ring, (3, 3), density)
            one = Matrix.identity(3, RINGS[ring][1] + 1)
            built = [
                a,
                Matrix(a.rows),
                Matrix.from_entries((3, 3), dict(a.items()), RINGS[ring][1]),
                a * one,
                one * a,
                (a + a) - a,
                -(-a),
                a.scale(2).scale(Fraction(1, 2)),
            ]
            for m in built:
                assert m == a and hash(m) == hash(a)
            zeros = [a - a, a.scale(0), Matrix([[RINGS[ring][1]] * 3] * 3), Matrix.identity(3).scale(0)]
            for m in zeros:
                assert m == zeros[0] and hash(m) == hash(zeros[0])
                assert not list(m.items())


def one_per_row(rng, n):
    """An n x n Scalar matrix with one nonzero entry in each row."""
    return Matrix.from_entries(
        (n, n), {(i, rng.randrange(n)): Scalar.of(rng.randrange(1, 9), rng.randrange(3)) for i in range(n)}
    )


def test_products_multiply_only_stored_entries(monkeypatch):
    products = []
    tests = []
    convolve, nonzero = scalars.convolve, Scalar.__bool__

    def counted_convolve(t1, t2):
        products.append(1)
        return convolve(t1, t2)

    def counted_bool(s):
        tests.append(1)
        return nonzero(s)

    rng = random.Random(8)
    a, b = one_per_row(rng, 40), one_per_row(rng, 40)
    monkeypatch.setattr(scalars, "convolve", counted_convolve)
    monkeypatch.setattr(Scalar, "__bool__", counted_bool)
    ab = a * b
    # one product per stored entry of a, and no pass over the 40 x 40 grid
    assert len(products) == 40
    assert len(tests) <= 3 * 40
    monkeypatch.undo()
    assert ab == Matrix((DenseMatrix(a.rows) * DenseMatrix(b.rows)).rows)
