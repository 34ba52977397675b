"""The sparse term map shared by every element type in the package.

An element is a canonical finite map key -> nonzero coefficient over a
space: a CwElement maps CwMonomials over an AlgebraSignature, an OreElement
maps OreMonomials over a rank, a GrassPolyVector maps carrier monomials over
(ell, k), a TensorElement maps monomial pairs over a pair of factor spaces,
and a Scalar, the coefficient ring Q(i)[L] of the cw family, maps L
exponents over the one space None.  `SparseElement` holds the map and gives
the vector-space operations, equality, hashing and immutability once.  A
subclass supplies only what differs:

    _ring(x)             x in the coefficient ring, or NotImplemented
    _check_key(space, k) validate a key and return it in canonical form
    unit_key()           the unit monomial of an algebra, None for vectors
                         and tensors; only a class with a unit takes numbers
                         as constants (in +, -, == and hash)
    _product(other)      the product, for the classes that have one

`accumulate` is the one "add, drop the zero" step for building term maps.
`pair_product` is the one loop that accumulates products: `star` at every
t, `wedge`, `ore_product` and `tensor_star` run it with their families'
pair kernels.  It and `scalars.convolve` (`Scalar`'s own ring product)
inline `accumulate`.  A constant raised to a power is the power of its
coefficient, taken by squaring in the ring.

`Checks` is the one recorder of verification cases: every report in the
package, from the suites down to `ore`, `deform`, `osp` and `hochschild`,
counts its cases and writes its failure records through it.
"""

from __future__ import annotations


class AlgebraError(Exception):
    """Base class for algebra usage errors."""


class SignatureMismatch(AlgebraError):
    """Raised when elements of different algebras are combined."""


class Checks:
    """Counts verification cases and records each failure as text.

    A failure record is {"inputs": [str(x), ...], "lhs": str(lhs), "rhs":
    str(rhs)}; `report(suite)` gives {"suite", "cases", "failures"}.
    """

    __slots__ = ("cases", "failures")

    def __init__(self):
        self.cases = 0
        self.failures = []

    def record(self, ok, inputs, lhs, rhs):
        """One case, failed unless ok."""
        self.cases += 1
        if not ok:
            self.failures.append(
                {"inputs": [str(x) for x in inputs], "lhs": str(lhs), "rhs": str(rhs)}
            )

    def check(self, inputs, lhs, rhs):
        """One case, failed unless lhs == rhs."""
        self.record(lhs == rhs, inputs, lhs, rhs)

    def merge(self, report):
        self.cases += report["cases"]
        self.failures.extend(report["failures"])

    def report(self, suite):
        return {"suite": suite, "cases": self.cases, "failures": self.failures}


def accumulate(out, key, c):
    """out[key] += c, removing the key when the sum is zero (c may be zero)."""
    s = out.get(key)
    s = c if s is None else s + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def pair_product(a, b, pair):
    """Sum over term pairs of c1 * c2 * pair(k1, k2), as a canonical term map.

    The coefficients of a and b, and the ones in pair(k1, k2) ->
    ((coefficient, key), ...), are nonzero Gaussian rationals.
    """
    out = {}
    get = out.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            c = c1 * c2
            for coeff, key in pair(k1, k2):
                # accumulate, inlined: this is every product's hot path
                v = c * coeff
                s = get(key)
                if s is None:
                    out[key] = v
                else:
                    s = s + v
                    if s:
                        out[key] = s
                    else:
                        del out[key]
    return out


def lie_bracket(a, b):
    """The commutator a*b - b*a, in the product of the elements' family."""
    return a * b - b * a


def anti_bracket(a, b):
    """The anticommutator a*b + b*a."""
    return a * b + b * a


_new = object.__new__
_set = object.__setattr__


class SparseElement:
    """Immutable canonical map `terms` (key -> nonzero coefficient) over `space`.

    `terms` is a plain dict that callers read but never mutate; every
    operation returns a new element.
    """

    __slots__ = ("space", "terms")

    def __init__(self, space, terms=None):
        clean = {}
        if terms:
            ring, check = self._ring, self._check_key
            for key, c in terms.items():
                coeff = ring(c)
                if coeff is NotImplemented:
                    raise TypeError("bad coefficient %r" % (c,))
                if coeff:
                    clean[check(space, key)] = coeff
        _set(self, "space", space)
        _set(self, "terms", clean)

    @classmethod
    def raw(cls, space, terms):
        """An element from an already canonical term dict, taken as is."""
        e = _new(cls)
        _set(e, "space", space)
        _set(e, "terms", terms)
        return e

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def unit_key(self):
        return None

    def _product(self, other):
        return NotImplemented

    def homogeneous_parts(self, key):
        """{value: the part whose keys k have key(k) == value}, for graded brackets."""
        parts = {}
        for k, c in self.terms.items():
            parts.setdefault(key(k), {})[k] = c
        return {v: self.raw(self.space, p) for v, p in parts.items()}

    def _check_space(self, other):
        if self.space != other.space:
            raise SignatureMismatch("%r vs %r" % (self.space, other.space))

    def _constant(self, other):
        """A number as a constant of this space, or NotImplemented."""
        unit = self.unit_key()
        if unit is None:
            return NotImplemented
        c = self._ring(other)
        if c is NotImplemented:
            return NotImplemented
        return self.raw(self.space, {unit: c} if c else {})

    # -- vector space ------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            other = self._constant(other)
            if other is NotImplemented:
                return NotImplemented
        self._check_space(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(out, key, c)
        return self.raw(self.space, out)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not self.__class__:
            other = self._constant(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._constant(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return self.raw(self.space, {k: -c for k, c in self.terms.items()})

    def scale(self, s):
        s = self._ring(s)
        if s is NotImplemented:
            raise TypeError("cannot scale by a non-number")
        if not s:
            return self.raw(self.space, {})
        return self.raw(self.space, {k: c * s for k, c in self.terms.items()})

    def __mul__(self, other):
        if other.__class__ is self.__class__:
            return self._product(other)
        s = self._ring(other)
        return NotImplemented if s is NotImplemented else self.scale(s)

    def __rmul__(self, other):
        s = self._ring(other)
        return NotImplemented if s is NotImplemented else self.scale(s)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        unit = self.unit_key()
        if unit is None:
            return NotImplemented
        if self.terms.keys() <= {unit}:
            # a constant is the power of its coefficient, by squaring in the ring
            return self._constant(self._ring(self.terms.get(unit, 0)) ** n)
        out = self._constant(1)
        for _ in range(n):
            out = out * self
        return out

    # -- structure -----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            other = self._constant(other)
            if other is NotImplemented:
                return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def __hash__(self):
        # zero and the constants hash like the number they equal
        t = self.terms
        if not t:
            return 0
        if len(t) == 1:
            ((key, c),) = t.items()
            if key == self.unit_key():
                return hash(c)
        return hash((self.space, frozenset(t.items())))
