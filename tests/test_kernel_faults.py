"""Three product-layer faults and the suites that catch them, with `cases=3`.

Each fault replaces one kernel of the product layer, or the product loop,
by a monkeypatch that rewrites the true one's result; nothing in the
package has a hook for it.  The kernel caches are emptied before and after each test, so the
faulty run starts from no cached correct entry and no faulty entry is
served to a later test.

A pin maps each suite that does not pass to (cases, failed cases), or to
the message of the `AlgebraError` it raised; every other suite passes.
A pin that changes is a test change.
"""

from fractions import Fraction

import pytest
from kernel_format import lowering_terms

from cliffordweyl import ore, periodicity, sparse, starprod
from cliffordweyl.algebra import AlgebraError
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
# suite still counts 2 * cases + 34 cases.  A fault in the L^2 slots alone
# (every term with extra > 0 one slot higher, or extra always read as 0)
# fails no suite.
LOWER_PAST_POWERS_FAULT_FAILURES = {
    "cocycle": (40, 4),
    "ghost": (45, 3),
    "ore-relations": (71, 3),
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


# The product loop's common denominator leaves out the second operand's:
# each product is read over the first operand's denominators only.
ONE_OPERAND_DENOMINATOR_FAILURES = {
    "a0-iso": (56, 2),
    "associativity": (3, 3),
    "ghost": (45, 12),
    "hochschild": (69, 3),
    "matrix-iso": (10, 2),
    "odd-split": (27, 5),
    "osp22": (54, 40),
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
