import random
from fractions import Fraction

import pytest
from faults import inject

from cliffordweyl.algebra import AlgebraError, AlgebraSignature, unit
from cliffordweyl.deform import center_probe, commutant_probe, finite_irrep_pi_h
from cliffordweyl.linalg import (
    Matrix,
    MatrixError,
    add_row,
    reduce_row,
    sparse_nullspace,
    sparse_rank,
    sparse_rref,
)
from cliffordweyl.scalars import GR_ONE, GR_ZERO, GaussianRational, Scalar
from cliffordweyl.ore import ore_generators, ore_lie_bracket
from cliffordweyl.suites import _PI_H_GRID


def rand_gr(rng):
    return GaussianRational(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2)
    )


def test_matrix_identity_and_mul():
    I2 = Matrix.identity(2)
    a = Matrix([[1, 2], [3, 4]])
    assert I2 * a == a
    assert a * I2 == a
    b = Matrix([[0, 1], [1, 0]])
    assert a * b == Matrix([[2, 1], [4, 3]])
    assert (a * b) * b == a


def test_matrix_mul_associative_random():
    rng = random.Random(6)
    for _ in range(25):
        a = Matrix([[rand_gr(rng) for _ in range(3)] for _ in range(2)])
        b = Matrix([[rand_gr(rng) for _ in range(2)] for _ in range(3)])
        c = Matrix([[rand_gr(rng) for _ in range(4)] for _ in range(2)])
        assert (a * b) * c == a * (b * c)


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix([[1, 2]]) * Matrix([[1, 2]])


def test_matrix_coerces_numbers_and_rejects_mixed_rings():
    assert Matrix([[1, GaussianRational(0, 1)]]).rows == ((Scalar.of(1), Scalar.of(0, 1)),)
    sig = AlgebraSignature(0, 1)
    with pytest.raises(MatrixError):
        Matrix([[1, unit(sig)]])
    with pytest.raises(MatrixError):
        Matrix([["x"]])
    with pytest.raises(MatrixError):
        Matrix([[1]]) * Matrix([[unit(sig)]])
    assert issubclass(MatrixError, AlgebraError) and issubclass(MatrixError, ValueError)


def test_matrix_json_round_trip():
    m = Matrix([[1, GaussianRational(Fraction(1, 3), -2)], [Scalar.lam(2), 0]])
    assert Matrix.from_json(m.to_json()) == m


def test_rref_simple():
    rows = [
        {0: GR_ONE, 1: GaussianRational(2)},
        {1: GR_ONE, 2: GaussianRational(3)},
    ]
    piv = sparse_rref(rows)
    assert set(piv) == {0, 1}
    # pivot rows contain no pivot columns
    for pc, pr in piv.items():
        assert pc not in pr
        assert not (set(pr) & set(piv))


def test_rank_counts_independent_rows():
    rows = [
        {0: GR_ONE},
        {0: GaussianRational(2)},  # dependent
        {1: GR_ONE, 0: GR_ONE},
    ]
    assert sparse_rank(rows) == 2


def test_nullspace_solves_system():
    # x0 + 2 x1 = 0 ; x1 + 3 x2 = 0 over vars {0,1,2}
    rows = [
        {0: GR_ONE, 1: GaussianRational(2)},
        {1: GR_ONE, 2: GaussianRational(3)},
    ]
    basis = sparse_nullspace(rows, [0, 1, 2])
    assert len(basis) == 1
    (v,) = basis
    # check each equation exactly
    for eq in rows:
        s = GR_ZERO
        for c, coef in eq.items():
            s = s + coef * v.get(c, GR_ZERO)
        assert s == GR_ZERO
    assert v[2] == GR_ONE


def test_nullspace_random_systems():
    rng = random.Random(10)
    for _ in range(30):
        nvars = rng.randint(2, 7)
        variables = list(range(nvars))
        rows = []
        for _ in range(rng.randint(1, 6)):
            row = {
                v: rand_gr(rng)
                for v in rng.sample(variables, rng.randint(1, nvars))
            }
            rows.append(row)
        basis = sparse_nullspace(rows, variables)
        assert len(basis) == nvars - sparse_rank(rows)
        for v in basis:
            for eq in rows:
                s = GR_ZERO
                for c, coef in eq.items():
                    s = s + coef * v.get(c, GR_ZERO)
                assert s == GR_ZERO


def test_add_row_builds_sparse_rref():
    rng = random.Random(11)
    for _ in range(30):
        rows = [
            {v: rand_gr(rng) for v in rng.sample(range(6), rng.randint(1, 6))}
            for _ in range(rng.randint(1, 8))
        ]
        pivots = {}
        for r in rows:
            dependent = not reduce_row(pivots, r)
            before = dict(pivots)
            assert add_row(pivots, r) is not dependent
            if dependent:
                assert pivots == before
        assert pivots == sparse_rref(rows)
        assert all(not reduce_row(pivots, r) for r in rows)


def test_suites_catch_a_skipped_pivot_in_the_eliminator(monkeypatch):
    inject(monkeypatch, "skipped-pivot")
    assert sparse_rank([{0: GR_ONE}, {1: GR_ONE}, {2: GR_ONE}]) == 0


def test_probe_answers_survive_a_dropped_equation(monkeypatch):
    center = center_probe(0, 4)
    reps = [finite_irrep_pi_h(*entry) for entry in _PI_H_GRID]
    dims = [commutant_probe(rep) for rep in reps]
    inject(monkeypatch, "dropped-row")
    assert sparse_rank([{0: GR_ONE}, {1: GR_ONE}]) == 1  # the solvers read the patched one
    faulty = center_probe(0, 4)
    assert [str(x) for x in faulty] == [str(x) for x in center] == ["1", "L", "L^2"]
    # each vector solves every commutator equation, checked by the product
    for x in faulty:
        for g in ore_generators(0):
            assert not ore_lie_bracket(x, g)
    assert [commutant_probe(rep) for rep in reps] == dims == [1] * len(_PI_H_GRID)
