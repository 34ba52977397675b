"""The six JSON readers: malformed data raises `AlgebraError`, duplicates add.

`GaussianRational`, `Scalar`, `CwElement`, `OreElement`, `TensorElement` and
`Matrix` each read their `to_json` form back through one guard,
`sparse.json_reader`, so a missing field, a bad value or a zero denominator
ends in `AlgebraError`, not in the Python error that the reader met first.
Records of one key are summed in every family, as a term map sums them.
"""

from fractions import Fraction

import pytest

from cliffordweyl.algebra import AlgebraError, AlgebraSignature, CwElement, fermi_gen
from cliffordweyl.linalg import Matrix
from cliffordweyl.ore import OreElement, ore_fermi
from cliffordweyl.periodicity import TensorElement, tensor_of
from cliffordweyl.scalars import GaussianRational, Scalar

SIG = AlgebraSignature(1, 1)
W1 = fermi_gen(SIG, 1)
CW_RECORD = W1.to_json()[0]
ORE_RECORD = ore_fermi(1, 1).to_json()[0]
TENSOR_RECORD = tensor_of(W1, W1).to_json()[0]
ONE = {"0": [[1, 1], [0, 1]]}

READERS = {
    "gaussian": GaussianRational.from_json,
    "scalar": Scalar.from_json,
    "cw": lambda data: CwElement.from_json(SIG, data),
    "ore": lambda data: OreElement.from_json(1, data),
    "tensor": lambda data: TensorElement.from_json(SIG, SIG, data),
    "matrix": Matrix.from_json,
}


def _without(record, field):
    return {k: v for k, v in record.items() if k != field}


# each of these ended in a Python error other than AlgebraError before the guard
PROBES = [
    ("cw", [_without(CW_RECORD, "cliff")]),  # KeyError
    ("cw", [dict(CW_RECORD, coeff={"0": [[1, 0], [0, 1]]})]),  # ZeroDivisionError
    ("cw", [dict(CW_RECORD, cliff=[0])]),  # ValueError: negative shift count
    ("ore", [dict(ORE_RECORD, L="x")]),  # TypeError
    ("scalar", {"a": [[1, 1], [0, 1]]}),  # ValueError
    ("matrix", [[ONE], [1]]),  # AttributeError
    ("tensor", [_without(TENSOR_RECORD, "left")]),  # KeyError
    # exponents are ints: a float or a string is refused, not stored
    ("cw", [dict(CW_RECORD, p=[1.5])]),
    # w2 w1 is -w1 w2 and w1 w1 is 1: Fermi indices are written strictly increasing
    ("cw", [dict(CW_RECORD, cliff=[1, 1])]),
    ("ore", [dict(ORE_RECORD, cliff=[2, 1])]),
    ("ore", [dict(ORE_RECORD, L=1.5)]),
    ("ore", [dict(ORE_RECORD, **{"e+": "2"})]),
    ("gaussian", [[1, 2], [3]]),
    ("gaussian", [[1.5, 2], [0, 1]]),
    ("matrix", [[ONE], []]),
]


@pytest.mark.parametrize("family, data", PROBES)
def test_a_malformed_record_raises_algebra_error(family, data):
    with pytest.raises(AlgebraError):
        READERS[family](data)


@pytest.mark.parametrize("family", sorted(READERS))
@pytest.mark.parametrize("bad", [None, -1, 10**9, "x", 1.5, (), [()], [{}], {"0": None}, object()])
def test_every_reader_returns_or_raises_algebra_error(family, bad):
    # what a reader accepts, such as an empty list for an element, gives a value
    try:
        READERS[family](bad)
    except AlgebraError:
        pass


def test_records_of_one_key_are_summed_in_every_family():
    assert CwElement.from_json(SIG, [CW_RECORD, CW_RECORD]) == 2 * W1
    assert OreElement.from_json(1, [ORE_RECORD, ORE_RECORD]) == 2 * ore_fermi(1, 1)
    assert TensorElement.from_json(SIG, SIG, [TENSOR_RECORD] * 2) == tensor_of(W1, W1).scale(2)
    # "1" and "01" both name L^1
    three_halves = Scalar.lam(1, GaussianRational(Fraction(3, 2)))
    assert Scalar.from_json({"1": [[1, 1], [0, 1]], "01": [[1, 2], [0, 1]]}) == three_halves
    # records that cancel leave no term
    minus = dict(CW_RECORD, coeff={"0": [[-1, 1], [0, 1]]})
    assert CwElement.from_json(SIG, [CW_RECORD, minus]) == CwElement(SIG)

