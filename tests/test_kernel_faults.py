"""Eight faults of the product and bracket layers, each seen in what it replaces;
the suites each fails are its pin in `faults.FAULTS`, which `test_faults.py` checks."""

from fractions import Fraction

import pytest
from faults import inject
from kernel_format import lowering_terms

from cliffordweyl import ore, starprod
from cliffordweyl.algebra import AlgebraSignature, bose_p, bose_q, fermi_gen
from cliffordweyl.linalg import Matrix


def test_suites_catch_a_wrong_coefficient_in_the_mode_kernel(monkeypatch):
    inject(monkeypatch, "mode-order-one")
    # p * q = pq + 2 (t/2): over the denominator 2, the order-one numerator 1 becomes 2
    assert starprod._mode_pair(1, 0, 0, 1) == (2, ((0, 2, 1, 1), (1, 2, 0, 0)))


def test_suites_catch_a_wrong_slot_in_the_lowering_kernel(monkeypatch):
    inject(monkeypatch, "ghost-slot")
    # E- E+ = E+ E- + 1/4 - ghost L^2
    terms = lowering_terms(ore._lower_past_powers(1, 1))
    assert [(a, eps, b, extra) for _, a, eps, b, extra in terms] == [(0, 0, 0, 0), (0, 1, 0, 2), (1, 0, 1, 0)]


@pytest.mark.parametrize("fault", ["l2-slot-up", "l2-slot-zero"], ids=["one-slot-up", "all-zero"])
def test_suites_catch_a_wrong_l_squared_slot_in_the_lowering_kernel(monkeypatch, fault):
    real = ore._lower_past_powers
    inject(monkeypatch, fault)
    assert ore._lower_past_powers(2, 2) == real(2, 2)
    assert ore._lower_past_powers(3, 3) != real(3, 3)


def test_suites_catch_a_denominator_from_one_operand(monkeypatch):
    inject(monkeypatch, "one-operand-denominator")
    # (1/2 E+) (1/3 E-) comes out E+ E- / 2
    half, third = ore.ore_e_plus(0).scale(Fraction(1, 2)), ore.ore_e_minus(0).scale(Fraction(1, 3))
    assert half * third == ore.ore_product(ore.ore_e_plus(0), ore.ore_e_minus(0)).scale(Fraction(1, 2))


def test_suites_catch_the_other_order_parity_in_the_cw_bracket_kernel(monkeypatch):
    inject(monkeypatch, "cw-bracket-parity")
    # [p1, q1] comes out p1 q1 + q1 p1 = 2 p1 q1, and {w1, w1} comes out 0
    sig = AlgebraSignature(1, 1)
    p, q, w = bose_p(sig, 1), bose_q(sig, 1), fermi_gen(sig, 1)
    assert starprod.lie_bracket(p, q) == p * q + q * p
    assert not starprod.anti_bracket(w, w)


def test_suites_catch_a_wrong_sign_on_the_second_order_of_the_ore_bracket_kernel(monkeypatch):
    inject(monkeypatch, "ore-bracket-sign")
    ep, em = ore.ore_e_plus(0), ore.ore_e_minus(0)
    assert ore.ore_lie_bracket(ep, em) == ep * em + em * ep


def test_suites_catch_a_dropped_term_in_the_matrix_product(monkeypatch):
    inject(monkeypatch, "matrix-dropped-term")
    # [[1, 2], [3, 4]] * I comes out [[0, 2], [0, 4]]
    assert Matrix([[1, 2], [3, 4]]) * Matrix.identity(2) == Matrix([[0, 2], [0, 4]])
