"""`deform.commutant_probe`: the spin-up against the d^2-unknown solve it
replaced, its work, its input errors and a fault in its relations.

`reference_commutant.reference_commutant_dimension` is the old solve; both
must give the same dimension on the `commutant` grid and on seeded random
matrix sets (direct sums of quotients are in `test_deform.py`).
"""

import random
from fractions import Fraction

import pytest
from reference_commutant import reference_commutant_dimension

from cliffordweyl import deform
from cliffordweyl.algebra import AlgebraError, AlgebraSignature, fermi_gen
from cliffordweyl.deform import commutant_probe, finite_irrep_pi_h
from cliffordweyl.linalg import Matrix
from cliffordweyl.scalars import CentralParameterError, GaussianRational, Scalar
from cliffordweyl.suites import _PI_H_GRID, run_suite, suite_names


def _random_matrix(rng, d, upper):
    def entry(i, j):
        if (upper and j < i) or rng.random() < 0.6:
            return 0
        return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.choice((0, 0, 1)))

    return Matrix([[entry(i, j) for j in range(d)] for i in range(d)])


def test_spin_up_matches_the_reference_on_the_grid():
    for entry in _PI_H_GRID:
        rep = finite_irrep_pi_h(*entry)
        assert commutant_probe(rep) == reference_commutant_dimension(rep) == 1, entry


def test_spin_up_matches_the_reference_on_random_matrix_sets():
    rng = random.Random("commutant-spin-up")
    seen = set()
    for trial in range(300):
        d = rng.randint(0, 5)
        mats = [_random_matrix(rng, d, upper=trial % 3 == 0) for _ in range(rng.randint(1, 3))]
        if trial % 7 == 0:
            mats.append(Matrix([[0] * d for _ in range(d)]))
        dim = commutant_probe(mats)
        assert dim == reference_commutant_dimension(mats), (trial, mats)
        seen.add(dim)
    # scalar, cyclic and decomposable modules all occur
    assert set(range(8)) <= seen and max(seen) >= 9


def test_smallest_sizes():
    assert commutant_probe([Matrix([])]) == reference_commutant_dimension([Matrix([])]) == 0
    assert commutant_probe({"a": Matrix([[3]]), "b": Matrix([[0]])}) == 1


def test_largest_quotient_makes_few_eliminations(monkeypatch):
    """On pi_h at n = 1, h = 2 (d = 18, 6 generators) `add_row` takes the 18
    basis vectors and the rows of the relations read until the rank reaches
    d - 1, 70 calls in all; the d^2 solve stacked 1,944 rows."""
    rep = finite_irrep_pi_h(1, 2, "+")
    d, calls = rep["E+"].shape[0], []
    real = deform.add_row

    def counting(pivots, row):
        calls.append(row)
        return real(pivots, row)

    monkeypatch.setattr(deform, "add_row", counting)
    assert commutant_probe(rep) == 1
    assert d == 18 and len(calls) <= d * len(rep)


def test_input_errors_name_the_problem():
    sig = AlgebraSignature(1, 0)
    with pytest.raises(AlgebraError, match="empty representation"):
        commutant_probe({})
    with pytest.raises(AlgebraError, match="not a dict with sortable keys or a sequence"):
        commutant_probe(5)
    with pytest.raises(AlgebraError, match="not a dict with sortable keys or a sequence"):
        commutant_probe({1: Matrix([[1]]), "a": Matrix([[2]])})
    with pytest.raises(AlgebraError, match="generator 0 is not a square Matrix"):
        commutant_probe([[[1]]])
    with pytest.raises(AlgebraError, match="generator 0 is not a square Matrix"):
        commutant_probe([Matrix([[1, 2]])])
    with pytest.raises(AlgebraError, match="generator 1 is not a square Matrix of the first one's size"):
        commutant_probe([Matrix.identity(2), Matrix.identity(3)])
    with pytest.raises(AlgebraError, match="not a number"):
        commutant_probe([Matrix([[fermi_gen(sig, 1)]])])
    # an entry in L is refused even where the solve would stop before reading it
    bad = {"a": Matrix([[0, 1], [0, 0]]), "z": Matrix([[Scalar.lam(1), 0], [0, Scalar.lam(1)]])}
    with pytest.raises(CentralParameterError, match="central parameter"):
        commutant_probe(bad)


# The relations that the spin-up finds for the first generator in sorted
# order, E+, are dropped.  The basis still spans, but X need no longer
# commute with E+: each pi_h with h > 0 reads a commutant of dimension
# 2h + 1, the four with h = 0 still read 1.  No other suite probes a
# commutant.  (Dropping the relations of any other single generator
# changes no answer on the grid.)
DROPPED_RELATION_FAILURES = {"commutant": (20, 16)}


def test_suites_catch_the_relations_of_one_generator_dropped(monkeypatch):
    real = deform._spin_up

    def wrong(gens, d):
        starts, lifts, relations = real(gens, d)
        return starts, lifts, [rel for rel in relations if rel[0] != 0]

    monkeypatch.setattr(deform, "_spin_up", wrong)
    rep = finite_irrep_pi_h(1, 2, "+")
    assert commutant_probe(rep) == 5 and reference_commutant_dimension(rep) == 1
    failed = {}
    for name in suite_names():
        result = run_suite(name)
        if not result.passed:
            failed[name] = (result.cases, len(result.failures))
    assert failed == DROPPED_RELATION_FAILURES
