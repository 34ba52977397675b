"""The contract every sparse element type keeps (cliffordweyl.sparse).

One parametrized set of checks over CwElement, OreElement, GrassPolyVector,
TensorElement with cw and with deformed right factors, and the L-polynomial
ring Scalar: canonical terms, additive inverses, hashing that agrees with
equality, space guards (for every type with more than one space),
immutability, and (for the types with a unit only) numbers acting as
constants.
"""

from fractions import Fraction

import pytest

from cliffordweyl.algebra import AlgebraError, AlgebraSignature, CwElement, CwMonomial
from cliffordweyl.ore import OreElement, OreMonomial
from cliffordweyl.periodicity import TensorElement
from cliffordweyl.reps import GrassPolyVector
from cliffordweyl.scalars import Scalar
from cliffordweyl.sparse import accumulate

SIG = AlgebraSignature(2, 1)
C2 = AlgebraSignature(2, 0)
C4 = AlgebraSignature(4, 0)


def _fermi(mask):
    return CwMonomial(mask, (), ())


# name: (constructor over the space, two distinct keys, an element of another
# space or None for a type with one space, whether the type has a unit)
CASES = {
    "cw": (
        lambda t: CwElement(SIG, t),
        (CwMonomial(1, (0,), (1,)), CwMonomial(0, (2,), (0,))),
        CwElement(AlgebraSignature(3, 1), {CwMonomial(4, (0,), (0,)): 1}),
        True,
    ),
    "ore": (
        lambda t: OreElement(1, t),
        (OreMonomial(1, 1, 0, 0), OreMonomial(0, 0, 2, 1)),
        OreElement(2, {OreMonomial(16, 0, 0, 0): 1}),
        True,
    ),
    "vector": (
        lambda t: GrassPolyVector(1, 1, t),
        ((1, (0,)), (0, (2,))),
        GrassPolyVector(2, 1, {(2, (0,)): 1}),
        False,
    ),
    "tensor-cw": (
        lambda t: TensorElement(C2, SIG, t),
        (
            (_fermi(1), CwMonomial(0, (1,), (0,))),
            (_fermi(3), CwMonomial(2, (0,), (1,))),
        ),
        TensorElement(C4, SIG, {(_fermi(8), CwMonomial(0, (0,), (0,))): 1}),
        False,
    ),
    "tensor-ore": (
        lambda t: TensorElement(C2, 0, t),
        ((_fermi(1), OreMonomial(1, 0, 0, 0)), (_fermi(3), OreMonomial(0, 1, 1, 1))),
        TensorElement(C4, 0, {(_fermi(8), OreMonomial(0, 0, 0, 0)): 1}),
        False,
    ),
    "scalar": (Scalar, (1, 3), None, True),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


@pytest.fixture(params=sorted(name for name, c in CASES.items() if c[2] is not None))
def spaced_case(request):
    return CASES[request.param]


def test_zero_coefficients_are_dropped(case):
    make, (k1, k2), _, _ = case
    x = make({k1: 0, k2: Fraction(3, 2)})
    assert list(x.terms) == [k2]
    assert not make({k1: 0, k2: Fraction(0)})


def test_additive_inverse_and_zero_scale(case):
    make, (k1, k2), _, _ = case
    x = make({k1: 2, k2: Fraction(-1, 3)})
    z = x + (-x)
    assert not z and z.terms == {}
    assert z == make({}) == x - x
    assert x.scale(0).terms == {}
    assert x.scale(2) == x + x


def test_equal_elements_hash_alike(case):
    make, (k1, k2), _, _ = case
    a = make({k1: 2, k2: 1})
    b = make({k2: 1}) + make({k1: 2})
    assert a == b and hash(a) == hash(b)
    assert hash(a - a) == hash(make({}))
    assert a != a.scale(3)


def test_mismatched_spaces_raise(spaced_case):
    make, (k1, _), other, _ = spaced_case
    x = make({k1: 1})
    with pytest.raises(AlgebraError):
        x + other
    with pytest.raises(AlgebraError):
        x - other
    assert x != other


def test_elements_are_immutable(case):
    make, (k1, _), _, _ = case
    x = make({k1: 1})
    for name in ("terms", "space", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, {})
    assert x.terms == make({k1: 1}).terms


def test_numbers_act_as_constants_only_in_algebras(case):
    make, (k1, _), _, has_unit = case
    x = make({k1: 2})
    if has_unit:
        three = make({x.unit_key(): 3})
        assert three == 3 and 3 == three and hash(three) == hash(3)
        assert make({}) == 0 and hash(make({})) == hash(0)
        assert x + 1 - 1 == x and 1 + x == x + 1 and 1 - x == -(x - 1)
        assert x.scale(Fraction(1, 2)) * 2 == x
    else:
        assert x.unit_key() is None
        assert x != 0 and make({}) != 0
        with pytest.raises(TypeError):
            x + 1
        with pytest.raises(TypeError):
            1 - x


def test_constant_powers_take_no_products(case, monkeypatch):
    make, (k1, _), _, has_unit = case
    if not has_unit:
        with pytest.raises(TypeError):
            make({k1: 1}) ** 2
        return
    x = make({k1: 1})
    two = make({x.unit_key(): 2})
    monkeypatch.setattr(type(x), "_product", None)
    assert two**100_000 == 2**100_000
    assert make({}) ** 0 == 1 and make({}) ** 3 == 0


def test_accumulate_drops_cancelled_keys():
    out = {}
    accumulate(out, "a", Fraction(1, 2))
    accumulate(out, "b", 0)
    accumulate(out, "a", Fraction(-1, 2))
    accumulate(out, "c", 3)
    accumulate(out, "c", 4)
    assert out == {"c": 7}
