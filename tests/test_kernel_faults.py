"""Eight product-layer faults and the suites that catch them, with `cases=3`.

Each fault replaces one kernel of the product layer, the product loop or
the matrix product by a monkeypatch that rewrites the true one's result or
its arguments; nothing in the package has a hook for it.  The kernel caches
are emptied before and after each test, so the faulty run starts from no
cached correct entry and no faulty entry is served to a later test.

A pin maps each suite that does not pass to (cases, failed cases), or to
the message of the `AlgebraError` it raised; every other suite passes.
A pin that changes is a test change.
"""

from fractions import Fraction

import pytest
from kernel_format import lowering_terms

from cliffordweyl import ore, periodicity, sparse, starprod
from cliffordweyl.algebra import AlgebraError, AlgebraSignature, bose_p, bose_q, fermi_gen
from cliffordweyl.linalg import Matrix
from cliffordweyl.scalars import _make
from cliffordweyl.suites import run_suite, suite_names

KERNEL_CACHES = (starprod._cliff_pair, starprod._mode_pair, starprod._weyl_pair, ore._lower_past_powers)


@pytest.fixture
def empty_kernel_caches():
    for cached in KERNEL_CACHES:
        cached.cache_clear()
    yield
    for cached in KERNEL_CACHES:
        cached.cache_clear()


def _failing_suites():
    failed = {}
    for name in suite_names():
        try:
            result = run_suite(name, cases=3)
        except AlgebraError as exc:
            failed[name] = str(exc)
            continue
        if not result.passed:
            failed[name] = (result.cases, len(result.failures))
    return failed


# Every order-one term of the one-mode Bose kernel has twice its
# coefficient, so [p1, q1] comes out 2t and the product is not associative.
MODE_PAIR_FAULT_FAILURES = {
    "a0-iso": (56, 5),
    "associativity": (3, 3),
    "cocycle": (40, 2),
    "hochschild": (69, 3),
    "relations": (7, 2),
}


def test_suites_catch_a_wrong_coefficient_in_the_mode_kernel(empty_kernel_caches, monkeypatch):
    real = starprod._mode_pair

    def wrong(a, b, c, d):
        den, terms = real(a, b, c, d)
        return den, tuple((m, 2 * num if m == 1 else num, P, Q) for m, num, P, Q in terms)

    monkeypatch.setattr(starprod, "_mode_pair", wrong)
    # p * q = pq + 2 (t/2): over the denominator 2, the order-one numerator 1 becomes 2
    assert wrong(1, 0, 0, 1) == (2, ((0, 2, 1, 1), (1, 2, 0, 0)))
    assert _failing_suites() == MODE_PAIR_FAULT_FAILURES


# Every term of E-^beta E+^gamma that carries the ghost is read one L^2 slot
# too high.  In `cocycle` the first-order cochain on (p1, q1), which the
# proportionality constant is read from, comes out 0, so there is no
# constant: the (p1, q1) and (q1, p1) slots fail at both ranks, and the
# suite still counts 2 * cases + 34 cases.
LOWER_PAST_POWERS_FAULT_FAILURES = {
    "cocycle": (40, 4),
    "ghost": (45, 3),
    "ore-relations": (119, 49),
    "osp22": (54, 8),
}


def test_suites_catch_a_wrong_slot_in_the_lowering_kernel(empty_kernel_caches, monkeypatch):
    real = ore._lower_past_powers

    def wrong(beta, gamma):
        den, plain, ghost = real(beta, gamma)
        return den, plain, tuple((num, a, b, extra + 2) for num, a, b, extra in ghost)

    monkeypatch.setattr(ore, "_lower_past_powers", wrong)
    # E- E+ = E+ E- + 1/4 - ghost L^2
    assert [(a, eps, b, extra) for _, a, eps, b, extra in lowering_terms(wrong(1, 1))] == [
        (0, 0, 0, 0),
        (0, 1, 0, 2),
        (1, 0, 1, 0),
    ]
    assert _failing_suites() == LOWER_PAST_POWERS_FAULT_FAILURES


# A fault in the L^2 slots alone: every term with extra > 0 read one slot
# higher, or every L power read as 0 (ghost^2 = 1).  E-^2 E+^2 has no L^2
# term, so only the rank-0 normal forms of E-^beta E+^gamma with min(beta,
# gamma) >= 3 in `ore-relations` see either.
L_SQUARED_SLOT_FAULT_FAILURES = {"ore-relations": (119, 46)}


@pytest.mark.parametrize("extra", [lambda x: x + 2 if x else 0, lambda x: 0], ids=["one-slot-up", "all-zero"])
def test_suites_catch_a_wrong_l_squared_slot_in_the_lowering_kernel(empty_kernel_caches, monkeypatch, extra):
    real = ore._lower_past_powers

    def wrong(beta, gamma):
        den, *parts = real(beta, gamma)
        return den, *(tuple((num, a, b, extra(x)) for num, a, b, x in terms) for terms in parts)

    monkeypatch.setattr(ore, "_lower_past_powers", wrong)
    assert wrong(2, 2) == real(2, 2)
    assert wrong(3, 3) != real(3, 3)
    assert _failing_suites() == L_SQUARED_SLOT_FAULT_FAILURES


# The product loop's common denominator leaves out the second operand's:
# each product is read over the first operand's denominators only.  A
# bracket is one pass over a x b, so it drops b's denominators only.
ONE_OPERAND_DENOMINATOR_FAILURES = {
    "a0-iso": (56, 2),
    "associativity": (3, 3),
    "hochschild": (69, 3),
    "matrix-iso": (10, 2),
    "odd-split": (27, 5),
    "osp22": (54, 12),
}


def test_suites_catch_a_denominator_from_one_operand(empty_kernel_caches, monkeypatch):
    real = sparse.pair_product

    def wrong(a, b, pair):
        return real(a, [(k, _make(c._re, c._im, 1)) for k, c in b], pair)

    for module in (sparse, starprod, ore, periodicity):
        monkeypatch.setattr(module, "pair_product", wrong)
    # (1/2 E+) (1/3 E-) comes out E+ E- / 2
    half, third = ore.ore_e_plus(0).scale(Fraction(1, 2)), ore.ore_e_minus(0).scale(Fraction(1, 3))
    assert half * third == ore.ore_product(ore.ore_e_plus(0), ore.ore_e_minus(0)).scale(Fraction(1, 2))
    assert _failing_suites() == ONE_OPERAND_DENOMINATOR_FAILURES


# The cw bracket kernel keeps the other order parity of each pair, as if
# sigma had the other sign: every commutator comes out an anticommutator
# and back.
CW_BRACKET_FAULT_FAILURES = {
    "parastat": (345, 175),
    "relations": (7, 7),
    "twisted-adjoint": (264, 89),
}


def test_suites_catch_the_other_order_parity_in_the_cw_bracket_kernel(empty_kernel_caches, monkeypatch):
    real = starprod._bracket_kernel
    monkeypatch.setattr(starprod, "_bracket_kernel", lambda odd: real(lambda m1, m2: not odd(m1, m2)))
    # [p1, q1] comes out p1 q1 + q1 p1 = 2 p1 q1, and {w1, w1} comes out 0
    sig = AlgebraSignature(1, 1)
    p, q, w = bose_p(sig, 1), bose_q(sig, 1), fermi_gen(sig, 1)
    assert starprod.lie_bracket(p, q) == p * q + q * p
    assert not starprod.anti_bracket(w, w)
    assert _failing_suites() == CW_BRACKET_FAULT_FAILURES


# The ore bracket kernel's second order, m2 * m1, has the wrong sign.
ORE_BRACKET_FAULT_FAILURES = {
    "ghost": (45, 33),
    "ore-relations": (119, 71),
    "osp22": (54, 34),
}


def test_suites_catch_a_wrong_sign_on_the_second_order_of_the_ore_bracket_kernel(empty_kernel_caches, monkeypatch):
    real = ore.bracket_kernel
    monkeypatch.setattr(ore, "bracket_kernel", lambda n, odd: real(n, lambda m1, m2: not odd(m1, m2)))
    ep, em = ore.ore_e_plus(0), ore.ore_e_minus(0)
    assert ore.ore_lie_bracket(ep, em) == ep * em + em * ep
    assert _failing_suites() == ORE_BRACKET_FAULT_FAILURES


# Each row of a matrix product leaves out the first stored entry of the
# left factor's row, so one term of every row's sum is dropped.
MATRIX_PRODUCT_FAULT_FAILURES = {
    "matrix-iso": (10, 6),
    "pi-h": (220, 60),
}


def test_suites_catch_a_dropped_term_in_the_matrix_product(empty_kernel_caches, monkeypatch):
    real = Matrix._product

    def wrong(a, b):
        seen, rest = set(), {}
        for (i, k), x in a.terms.items():
            if i in seen:
                rest[i, k] = x
            seen.add(i)
        return real(Matrix.raw(a.space, rest), b)

    monkeypatch.setattr(Matrix, "_product", wrong)
    # [[1, 2], [3, 4]] * I comes out [[0, 2], [0, 4]]
    assert Matrix([[1, 2], [3, 4]]) * Matrix.identity(2) == Matrix([[0, 2], [0, 4]])
    assert _failing_suites() == MATRIX_PRODUCT_FAULT_FAILURES
