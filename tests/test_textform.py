"""The streaming text writer against the earlier term-by-term writers.

`tests/reference_textform.py` keeps the writers the library had before
`textform.element_to_text` read its factor texts from per-call tables and
joined the terms as it wrote them.  These seeded tests compare `str` with
them on cw elements of every signature with n, k <= 3 (t = 1 and t = L),
ore elements of ranks 0-2 and cw (x) cw and cw (x) ore tensors, with the
coefficients that exercise each branch of the coefficient and sign rules.

The large-element tests do the same on products with thousands of terms,
where the writer's degree buckets are full, and check `monomials()` against
the sort keys the families had before the buckets, kept here as the oracle,
and `to_json` against its bytes from before the one-pass writer.
"""

import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache

import reference_textform as ref

from cliffordweyl.algebra import AlgebraSignature, CwElement, CwMonomial, unit, zero
from cliffordweyl.ore import OreElement, OreMonomial, ore_e_minus, ore_e_plus, ore_fermi, ore_lambda
from cliffordweyl.ore import ore_unit, ore_zero
from cliffordweyl.periodicity import TensorElement, tensor_of
from cliffordweyl.scalars import GaussianRational, S_LAMBDA, Scalar

# the Gaussian rationals every branch of format_coefficient meets
GAUSSIANS = [
    GaussianRational(1),
    GaussianRational(-1),
    GaussianRational(0, 1),
    GaussianRational(0, -1),
    GaussianRational(Fraction(-3, 4)),
    GaussianRational(0, Fraction(2, 3)),
    GaussianRational(Fraction(1, 2), -1),
    GaussianRational(-2, Fraction(5, 3)),
]


def _gaussian(rng):
    if rng.random() < 0.7:
        return rng.choice(GAUSSIANS)
    re = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
    return GaussianRational(re, Fraction(rng.randint(-3, 3), rng.randint(1, 4)))


def _scalar(rng):
    """One L power (a bare L among them) half the time, else a sum of two or three."""
    if rng.random() < 0.5:
        return Scalar({rng.choice((0, 0, 1, 2, 5)): _gaussian(rng)})
    return Scalar({power: _gaussian(rng) for power in rng.sample(range(5), rng.randint(2, 3))})


def _cw_monomial(rng, sig):
    k = sig.n_bose

    def exps():
        return tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(k))

    return CwMonomial(rng.randrange(1 << sig.n_fermi), exps(), exps())


def _ore_monomial(rng, n):
    full = (1 << (2 * n + 1)) - 1
    cliff = full if rng.random() < 0.25 else rng.randrange(full + 1)  # the ghost's mask
    return OreMonomial(
        cliff, rng.choice((0, 0, 1, 2, 7)), rng.choice((0, 0, 1, 3)), rng.choice((0, 0, 1, 2))
    )


def _terms(rng, key, coeff):
    return {key(): coeff() for _ in range(rng.randint(1, 7))}


def _cw_elements(rng, sig):
    out = [zero(sig), unit(sig), unit(sig).scale(-1), unit(sig).scale(S_LAMBDA)]
    for _ in range(12):
        e = CwElement(sig, _terms(rng, lambda: _cw_monomial(rng, sig), lambda: _scalar(rng)))
        out += [e, -e]
    return out


def _ore_elements(rng, n):
    out = [ore_zero(n), ore_unit(n), -ore_unit(n), OreElement(n, {OreMonomial(0, 0, 0, 1): 1})]
    for _ in range(30):
        e = OreElement(n, _terms(rng, lambda: _ore_monomial(rng, n), lambda: _gaussian(rng)))
        out += [e, -e]
    return out


def _tensors(rng, ls, rs):
    if isinstance(rs, int):
        right, right_unit = (lambda: _ore_monomial(rng, rs)), OreMonomial(0, 0, 0, 0)
    else:
        right, right_unit = (lambda: _cw_monomial(rng, rs)), unit(rs).unit_key()
    left_unit = unit(ls).unit_key()
    out = [TensorElement(ls, rs, {}), TensorElement(ls, rs, {(left_unit, right_unit): Scalar.of(1)})]
    for _ in range(20):
        keys = [(_cw_monomial(rng, ls), right()) for _ in range(rng.randint(1, 6))]
        keys += [(left_unit, right()), (_cw_monomial(rng, ls), right_unit)]
        e = TensorElement(ls, rs, {key: _scalar(rng) for key in keys})
        out += [e, -e]
    return out


def test_str_matches_the_reference_writers():
    rng = random.Random(20)
    seen = 0
    for n in range(4):
        for k in range(4):
            for t in (Scalar.of(1), S_LAMBDA):
                for e in _cw_elements(rng, AlgebraSignature(n, k, t)):
                    assert str(e) == ref.cw_text(e)
                    seen += 1
    for n in range(3):
        for e in _ore_elements(rng, n):
            assert str(e) == ref.ore_text(e)
            seen += 1
    for ls, rs in [
        (AlgebraSignature(1, 1), AlgebraSignature(2, 0)),
        (AlgebraSignature(0, 2), AlgebraSignature(3, 1, S_LAMBDA)),
        (AlgebraSignature(2, 1), 0),
        (AlgebraSignature(1, 0), 1),
        (AlgebraSignature(3, 2), 2),
    ]:
        for e in _tensors(rng, ls, rs):
            assert str(e) == ref.tensor_text(e)
            seen += 1
    assert seen >= 500


def test_fixtures_of_each_branch():
    sig = AlgebraSignature(2, 1)
    w1 = CwMonomial(1, (0,), (0,))
    w1w2p = CwMonomial(3, (2,), (1,))
    one = unit(sig).unit_key()
    minus_i_plus_l = Scalar({0: GaussianRational(0, -1), 1: GaussianRational(1)})
    minus_l2 = Scalar.lam(2, GaussianRational(-1))
    e = CwElement(sig, {one: Scalar.of(-1), w1: minus_i_plus_l, w1w2p: minus_l2})
    assert str(e) == "-1 + (-i + L) * w1 - L^2 * w1 w2 p1^2 q1"
    g = OreElement(0, {OreMonomial(1, 2, 1, 1): GaussianRational(0, 1), OreMonomial(0, 0, 0, 0): 1})
    assert str(g) == "1 + i*L * w1 E+^2 E-"
    t = TensorElement(
        sig, 0, {(one, OreMonomial(1, 0, 0, 1)): Scalar.of(-1), (w1, OreMonomial(0, 0, 0, 0)): S_LAMBDA}
    )
    assert str(t) == "-1 (x) L * w1 + L * w1 (x) 1"


# -- large elements --------------------------------------------------------------------


def _old_cw_key(m):
    return (m.z_degree(), m.cliff, m.wp, m.wq)


def _old_ore_key(m):
    return (m.degree(), m.lam, m.cliff, m.e_plus, m.e_minus)


def _wide_cw(rng, sig, size, maxdeg):
    """A `size`-term element of degree <= maxdeg, coefficients of several L powers."""
    terms = {}
    while len(terms) < size:
        m = _cw_monomial(rng, sig)
        if m.z_degree() <= maxdeg:
            terms[m] = _scalar(rng)
    return CwElement(sig, terms)


@lru_cache(maxsize=None)
def _large_elements():
    """(cw products, ore products, tensors), the same on every call."""
    rng = random.Random(29)
    cw = []
    for n, k, maxdeg in ((4, 2, 5), (2, 3, 4), (0, 4, 4)):
        for t in (Scalar.of(1), S_LAMBDA):
            sig = AlgebraSignature(n, k, t)
            cw.append(_wide_cw(rng, sig, rng.randint(20, 30), maxdeg) * _wide_cw(rng, sig, rng.randint(20, 30), maxdeg))
    ore = []
    for n, beta, gamma in ((0, 30, 24), (1, 16, 20), (2, 12, 12)):
        ghostly = ore_unit(n) + ore_fermi(n, 1).scale(GAUSSIANS[6]) + ore_lambda(n).scale(Fraction(-2, 3))
        ore.append(ore_e_minus(n) ** beta * ghostly * ore_e_plus(n) ** gamma)
    left = _wide_cw(rng, AlgebraSignature(4, 2, S_LAMBDA), 25, 5)
    tensors = [tensor_of(left, _wide_cw(rng, AlgebraSignature(1, 1), 12, 3)), tensor_of(left, ore[2])]
    return cw, ore, tensors


def test_str_matches_the_reference_writers_on_large_elements():
    cw, ore, tensors = _large_elements()
    assert min(len(e.terms) for e in cw) > 500
    assert all(any(m.lam for m in e.terms) and any(m.cliff == (1 << 2 * e.n + 1) - 1 for m in e.terms) for e in ore)
    for e in cw:
        assert str(e) == ref.cw_text(e)
    for e in ore:
        assert str(e) == ref.ore_text(e)
    for e in tensors:
        assert str(e) == ref.tensor_text(e)


def test_monomials_follow_the_old_sort_keys_on_large_elements():
    cw, ore, _ = _large_elements()
    for e in cw:
        assert [m for m, _ in e.monomials()] == sorted(e.terms, key=_old_cw_key)
    for e in ore:
        assert e.monomials() == sorted(e.terms, key=_old_ore_key)


# sha256 of the to_json of the large elements, written before the writer
# ordered terms by degree buckets
LARGE_JSON_SHA256 = "889b29ec33ed8ebe97b6f3eb0741e32fb94d8781ae96cc7ed4da94e80a756939"


def test_to_json_is_unchanged_on_large_elements():
    data = [e.to_json() for family in _large_elements() for e in family]
    assert hashlib.sha256(json.dumps(data).encode()).hexdigest() == LARGE_JSON_SHA256
