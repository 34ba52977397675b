"""Monomials, elements and gradings for mixed fermion/boson symbol algebras.

The underlying vector space is the super-exterior algebra on n anticommuting
generators w1..wn tensored with the polynomial algebra on k commuting pairs
(p1,q1)..(pk,qk).  A monomial is (bitset over w's, p-exponents, q-exponents);
an element is a sparse map monomial -> Scalar kept in canonical form (no zero
coefficients).  The associative star product lives in `starprod`; `a * b` on
elements delegates to it.

Sign bookkeeping convention (single source of truth): Clifford generators are
globally ordered w1 < w2 < ... and every Koszul sign in the package is a
transposition count against this order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .scalars import GaussianRational, Scalar, S_ONE, _coerce_scalar


class AlgebraError(Exception):
    """Base class for algebra usage errors."""


class SignatureMismatch(AlgebraError):
    """Raised when elements of different algebras are combined."""


class AlgebraSignature(NamedTuple):
    """Which algebra an element lives in.

    n_fermi   -- number of anticommuting generators w_i
    n_bose    -- number of commuting pairs (p_i, q_i); the algebra has 2*n_bose
                 polynomial generators
    t_param   -- star-product deformation parameter (a Scalar, default 1);
                 t = 0 degenerates the star product to the exterior product
    """

    n_fermi: int
    n_bose: int
    t_param: Scalar = S_ONE

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
    b = m.bose_degree() % 2
    return BiDegree((m.cliff.bit_count() + b) % 2, b)


def element_bidegree(e):
    """BiDegree of a homogeneous element, or None if mixed (or zero)."""
    degs = {bidegree(m) for m in e.terms}
    if len(degs) == 1:
        return degs.pop()
    return None


def check_same_signature(a, b):
    if a.signature != b.signature:
        raise SignatureMismatch("%r vs %r" % (a.signature, b.signature))


class CwElement:
    """Element of the algebra: canonical sparse sum of CwMonomial terms.

    Immutable in use: all operations return new elements.  `a * b` is the
    star product of the signature (with its t_param); use starprod.wedge for
    the t=0 exterior product.
    """

    __slots__ = ("signature", "terms")

    def __init__(self, signature, terms=None):
        clean = {}
        if terms:
            for m, c in terms.items():
                c = c if isinstance(c, Scalar) else _coerce_scalar(c)
                if c is NotImplemented:
                    raise TypeError("bad coefficient %r" % (c,))
                if not c:
                    continue
                _check_monomial(signature, m)
                clean[m] = clean.get(m, Scalar()) + c if m in clean else c
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "terms", {m: c for m, c in clean.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("CwElement is immutable")

    # -- vector space -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        check_same_signature(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return _raw_element(self.signature, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return _raw_element(self.signature, {m: -c for m, c in self.terms.items()})

    def scale(self, s):
        s = s if isinstance(s, Scalar) else _coerce_scalar(s)
        if not s:
            return _raw_element(self.signature, {})
        return _raw_element(self.signature, {m: c * s for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar, GaussianRational)):
            return self.scale(other)
        if isinstance(other, CwElement):
            from .starprod import star

            return star(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = unit(self.signature)
        for _ in range(n):
            out = out * self
        return out

    # -- structure ----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.signature == other.signature and self.terms == other.terms

    def __hash__(self):
        # zero and the constants hash like the Scalar (so the number) they equal
        t = self.terms
        if not t:
            return 0
        if len(t) == 1:
            ((m, c),) = t.items()
            if not m.z_degree():
                return hash(c)
        return hash((self.signature, frozenset(t.items())))

    def _coerce(self, other):
        if isinstance(other, CwElement):
            return other
        if isinstance(other, (int, Fraction, Scalar, GaussianRational)):
            s = other if isinstance(other, Scalar) else _coerce_scalar(other)
            return scalar_element(self.signature, s)
        return NotImplemented

    def coefficient(self, m):
        return self.terms.get(m, Scalar())

    def constant_term(self):
        """Coefficient of the unit monomial (the raw "value at 0")."""
        return self.terms.get(CwMonomial(0, (0,) * self.signature.n_bose, (0,) * self.signature.n_bose), Scalar())

    def max_z_degree(self):
        return max((m.z_degree() for m in self.terms), default=0)

    def monomials(self):
        """Deterministically ordered list of (monomial, coefficient)."""
        return [(m, self.terms[m]) for m in sorted(self.terms, key=_monomial_sort_key)]

    def homogeneous_parts(self, key):
        """Split into parts on which `key(monomial)` is constant.

        Returns {key_value: CwElement}; used to extend degree-sensitive
        brackets bilinearly.
        """
        parts = {}
        for m, c in self.terms.items():
            parts.setdefault(key(m), {})[m] = c
        return {k: _raw_element(self.signature, v) for k, v in parts.items()}

    def map_coefficients(self, fn):
        out = {}
        for m, c in self.terms.items():
            c2 = fn(c)
            if c2:
                out[m] = c2
        return _raw_element(self.signature, out)

    # -- presentation ----------------------------------------------------------

    def __str__(self):
        from .textform import element_to_text

        return element_to_text(self)

    def __repr__(self):
        return "<CwElement %s | %s>" % (self.signature, str(self))

    def to_json(self):
        out = []
        for m, c in self.monomials():
            out.append(
                {
                    "coeff": c.to_json(),
                    "cliff": m.cliff_indices(),
                    "p": list(m.wp),
                    "q": list(m.wq),
                }
            )
        return out

    @staticmethod
    def from_json(signature, data):
        terms = {}
        for t in data:
            mask = 0
            for i in t["cliff"]:
                mask |= 1 << (i - 1)
            m = CwMonomial(mask, tuple(t["p"]), tuple(t["q"]))
            terms[m] = terms.get(m, Scalar()) + Scalar.from_json(t["coeff"])
        return CwElement(signature, terms)


def _monomial_sort_key(m):
    return (m.z_degree(), m.cliff, m.wp, m.wq)


def _check_monomial(sig, m):
    if not isinstance(m, CwMonomial):
        raise TypeError("expected CwMonomial, got %r" % (m,))
    if m.cliff < 0 or m.cliff >> sig.n_fermi:
        raise AlgebraError("Clifford bits outside signature %r: %r" % (sig, m))
    if len(m.wp) != sig.n_bose or len(m.wq) != sig.n_bose:
        raise AlgebraError("Weyl exponent length != %d in %r" % (sig.n_bose, m))
    if any(e < 0 for e in m.wp) or any(e < 0 for e in m.wq):
        raise AlgebraError("negative exponent in %r" % (m,))


def _raw_element(signature, clean_terms):
    e = object.__new__(CwElement)
    object.__setattr__(e, "signature", signature)
    object.__setattr__(e, "terms", clean_terms)
    return e


def canonicalize(e):
    """Re-normalize an element (drop zeros, merge duplicates).  Idempotent.

    Elements produced by the public constructors are already canonical; this
    re-runs the normalization so externally assembled term maps can be
    sanitized.
    """
    return CwElement(e.signature, e.terms)


# -- convenient constructors -------------------------------------------------


def zero(signature):
    return _raw_element(signature, {})


def unit(signature):
    return scalar_element(signature, S_ONE)


def scalar_element(signature, s):
    s = s if isinstance(s, Scalar) else _coerce_scalar(s)
    k = signature.n_bose
    m = CwMonomial(0, (0,) * k, (0,) * k)
    return CwElement(signature, {m: s})


def monomial_element(signature, m, coeff=S_ONE):
    return CwElement(signature, {m: coeff})


def fermi_gen(signature, i):
    """The generator w_i (1-based)."""
    if not 1 <= i <= signature.n_fermi:
        raise AlgebraError("w%d outside signature %r" % (i, signature))
    k = signature.n_bose
    return monomial_element(signature, CwMonomial(1 << (i - 1), (0,) * k, (0,) * k))


def bose_p(signature, i):
    """The generator p_i (1-based)."""
    if not 1 <= i <= signature.n_bose:
        raise AlgebraError("p%d outside signature %r" % (i, signature))
    k = signature.n_bose
    exps = tuple(1 if j == i - 1 else 0 for j in range(k))
    return monomial_element(signature, CwMonomial(0, exps, (0,) * k))


def bose_q(signature, i):
    """The generator q_i (1-based)."""
    if not 1 <= i <= signature.n_bose:
        raise AlgebraError("q%d outside signature %r" % (i, signature))
    k = signature.n_bose
    exps = tuple(1 if j == i - 1 else 0 for j in range(k))
    return monomial_element(signature, CwMonomial(0, (0,) * k, exps))


def generators(signature):
    """All 1-degree generators: [w1..wn, p1..pk, q1..qk] in this order."""
    gens = [fermi_gen(signature, i) for i in range(1, signature.n_fermi + 1)]
    gens += [bose_p(signature, i) for i in range(1, signature.n_bose + 1)]
    gens += [bose_q(signature, i) for i in range(1, signature.n_bose + 1)]
    return gens
