"""Monomials, elements and gradings for mixed fermion/boson symbol algebras.

The underlying vector space is the super-exterior algebra on n anticommuting
generators w1..wn tensored with the polynomial algebra on k commuting pairs
(p1,q1)..(pk,qk).  A monomial is (bitset over w's, p-exponents, q-exponents);
an element is a `sparse.SparseElement` over the signature, a canonical map
monomial -> Scalar (no zero coefficients) whose unit monomial is the empty
word.  The associative star product lives in `starprod`; `a * b` on elements
delegates to it.

Sign bookkeeping convention (single source of truth): Clifford generators are
globally ordered w1 < w2 < ... and every Koszul sign in the package is a
transposition count against this order.
"""

from __future__ import annotations

from collections import namedtuple
from operator import index
from typing import NamedTuple

from .scalars import S_ONE, S_ZERO, Scalar, _coerce_scalar
from .sparse import AlgebraError, SignatureMismatch, SparseElement, json_reader, kernel, sum_terms
from .textform import element_to_text, monomial_order


# The largest Fermi count, Bose generator count (2k), ore rank or carrier size
# the package builds; every size passes `_check_size`.
MAX_ALGEBRA_SIZE = 1000


def _check_size(name, size, bound=MAX_ALGEBRA_SIZE):
    """size, once it is an int in 0..bound; AlgebraError otherwise."""
    if not isinstance(size, int) or size < 0:
        raise AlgebraError("%s must be a non-negative int, got %r" % (name, size))
    if size > bound:
        raise AlgebraError("%s above the size bound of %d" % (name, bound))
    return size


def _check_index(name, i, top, where, space):
    """AlgebraError unless the generator index i is an int in 1..top; where % space names the algebra."""
    if not isinstance(i, int) or not 1 <= i <= top:
        raise AlgebraError("%s%r outside %s" % (name, i, where % (space,)))


class AlgebraSignature(namedtuple("AlgebraSignature", "n_fermi n_bose t_param")):
    """Which algebra an element lives in.

    n_fermi   -- number of anticommuting generators w_i
    n_bose    -- number of commuting pairs (p_i, q_i); the algebra has 2*n_bose
                 polynomial generators
    t_param   -- star-product deformation parameter (a Scalar, default 1);
                 the product at t is the one at t = 1 with each term scaled
                 by t^e, e half the Z-degree it loses, so t = 0 degenerates
                 the star product to the exterior product

    Both counts must be non-negative ints with n_fermi and 2*n_bose at most
    MAX_ALGEBRA_SIZE (AlgebraError otherwise).
    """

    __slots__ = ()

    def __new__(cls, n_fermi, n_bose, t_param=S_ONE):
        n_fermi, n_bose = _check_size("n_fermi", n_fermi), _check_size("n_bose", n_bose, MAX_ALGEBRA_SIZE // 2)
        return super().__new__(cls, n_fermi, n_bose, t_param)

    def __repr__(self):
        if self.t_param == S_ONE:
            return "AlgebraSignature(%d, %d)" % (self.n_fermi, self.n_bose)
        return "AlgebraSignature(%d, %d, t=%s)" % (self.n_fermi, self.n_bose, self.t_param)


class CwMonomial(NamedTuple):
    """Basis monomial w^I p^A q^B.

    cliff  -- bitset of Clifford indices: bit (i-1) set means w_i present
    wp, wq -- exponent tuples of length n_bose
    """

    cliff: int
    wp: tuple
    wq: tuple

    def z_degree(self):
        return self.cliff.bit_count() + sum(self.wp) + sum(self.wq)

    def bose_degree(self):
        return sum(self.wp) + sum(self.wq)

    def bose_parity(self):
        return self.bose_degree() & 1

    def cliff_indices(self):
        """Sorted 1-based list of Clifford generator indices present."""
        return [i + 1 for i in range(self.cliff.bit_length()) if self.cliff >> i & 1]


class BiDegree(NamedTuple):
    """Z2 x Z2 degree (delta1, delta2): total parity and Bose parity."""

    delta1: int
    delta2: int

    def __add__(self, other):
        return BiDegree((self.delta1 + other.delta1) % 2, (self.delta2 + other.delta2) % 2)


def z_degree(m):
    """Total Z-degree of a monomial: popcount(cliff) + |wp| + |wq|."""
    return m.z_degree()


def bidegree(m):
    """(delta1, delta2) of a monomial.

    delta1 is the total parity (Clifford degree + Weyl degree mod 2) and
    delta2 the Bose parity (Weyl degree mod 2); the Fermi generators sit in
    degree (1,0), the Bose generators in (1,1), scalars in (0,0).
    """
    b = m.bose_parity()
    return BiDegree((m.cliff.bit_count() + b) % 2, b)


def element_bidegree(e):
    """BiDegree of a homogeneous element, or None if mixed (or zero)."""
    degs = {bidegree(m) for m in e.terms}
    if len(degs) == 1:
        return degs.pop()
    return None


class CwElement(SparseElement):
    """Element of the algebra: canonical sparse sum of CwMonomial terms.

    The space is the AlgebraSignature (AlgebraError otherwise) and the
    coefficients are Scalars.  `a * b` is the star product of the signature
    (with its t_param); use starprod.wedge for the t=0 exterior product.
    """

    __slots__ = ()
    signature = SparseElement.space  # the space slot under its family name

    _ring = staticmethod(_coerce_scalar)

    def __init__(self, signature, terms=None):
        if not isinstance(signature, AlgebraSignature):
            raise AlgebraError("expected an AlgebraSignature, got %r" % (signature,))
        super().__init__(signature, terms)

    @staticmethod
    def _check_key(sig, m):
        if not isinstance(m, CwMonomial):
            raise TypeError("expected CwMonomial, got %r" % (m,))
        if m.cliff < 0 or m.cliff >> sig.n_fermi:
            raise AlgebraError("Clifford bits outside signature %r: %r" % (sig, m))
        if len(m.wp) != sig.n_bose or len(m.wq) != sig.n_bose:
            raise AlgebraError("Weyl exponent length != %d in %r" % (sig.n_bose, m))
        if any(e < 0 for e in m.wp) or any(e < 0 for e in m.wq):
            raise AlgebraError("negative exponent in %r" % (m,))
        return m

    def unit_key(self):
        return _unit_monomial(self.space.n_bose)

    def _product(self, other):
        # looked up at call time, so a replaced starprod.star takes effect
        return starprod.star(self, other)

    def _bracket(self, other, odd):
        return starprod.bracket(self, other, odd)

    def constant_term(self):
        """Coefficient of the unit monomial (the raw "value at 0")."""
        return self.terms.get(self.unit_key(), S_ZERO)

    def monomials(self):
        """Deterministically ordered list of (monomial, coefficient)."""
        return [(m, self.terms[m]) for m in monomial_order(self.space, self.terms)]

    def map_coefficients(self, fn):
        out = {}
        for m, c in self.terms.items():
            c2 = fn(c)
            if c2:
                out[m] = c2
        return CwElement.raw(self.space, out)

    # -- presentation ----------------------------------------------------------

    def __str__(self):
        return element_to_text(self)

    def __repr__(self):
        return "<CwElement %s | %s>" % (self.signature, str(self))

    @staticmethod
    def key_json(m):
        return {"cliff": m.cliff_indices(), "p": list(m.wp), "q": list(m.wq)}

    @staticmethod
    def key_from_json(rec):
        return CwMonomial(index_mask(rec["cliff"]), tuple(map(index, rec["p"])), tuple(map(index, rec["q"])))

    def to_json(self):
        return [{"coeff": c.to_json(), **self.key_json(m)} for m, c in self.monomials()]

    @staticmethod
    @json_reader
    def from_json(signature, data):
        terms = sum_terms((CwElement.key_from_json(rec), Scalar.from_json(rec["coeff"])) for rec in data)
        return CwElement(signature, terms)


@kernel(None)
def _unit_monomial(n_bose):
    return CwMonomial(0, (0,) * n_bose, (0,) * n_bose)


def index_mask(indices):
    """Bitset of strictly increasing 1-based generator indices (bit i-1 for index i)."""
    if list(indices) != sorted(set(indices)):
        raise AlgebraError("generator indices must strictly increase, got %r" % (indices,))
    return sum(1 << (i - 1) for i in indices)


def canonicalize(e):
    """Re-normalize an element (drop zeros, merge duplicates).  Idempotent.

    Elements produced by the public constructors are already canonical; this
    re-runs the normalization so externally assembled term maps can be
    sanitized.
    """
    if not isinstance(e, CwElement):
        raise AlgebraError("canonicalize needs a CwElement, got %s" % type(e).__name__)
    return CwElement(e.signature, e.terms)


# -- convenient constructors -------------------------------------------------


def zero(signature):
    return CwElement.raw(signature, {})


def unit(signature):
    return scalar_element(signature, S_ONE)


def scalar_element(signature, s):
    return CwElement(signature, {_unit_monomial(signature.n_bose): s})


def monomial_element(signature, m, coeff=S_ONE):
    return CwElement(signature, {m: coeff})


def fermi_gen(signature, i):
    """The generator w_i (1-based)."""
    _check_index("w", i, signature.n_fermi, "signature %r", signature)
    k = signature.n_bose
    return monomial_element(signature, CwMonomial(1 << (i - 1), (0,) * k, (0,) * k))


def bose_p(signature, i):
    """The generator p_i (1-based)."""
    _check_index("p", i, signature.n_bose, "signature %r", signature)
    k = signature.n_bose
    exps = tuple(1 if j == i - 1 else 0 for j in range(k))
    return monomial_element(signature, CwMonomial(0, exps, (0,) * k))


def bose_q(signature, i):
    """The generator q_i (1-based)."""
    _check_index("q", i, signature.n_bose, "signature %r", signature)
    k = signature.n_bose
    exps = tuple(1 if j == i - 1 else 0 for j in range(k))
    return monomial_element(signature, CwMonomial(0, (0,) * k, exps))


def generators(signature):
    """All 1-degree generators: [w1..wn, p1..pk, q1..qk] in this order."""
    gens = [fermi_gen(signature, i) for i in range(1, signature.n_fermi + 1)]
    gens += [bose_p(signature, i) for i in range(1, signature.n_bose + 1)]
    gens += [bose_q(signature, i) for i in range(1, signature.n_bose + 1)]
    return gens


# starprod imports this module's names, so it is bound last, once
from . import starprod  # noqa: E402
