"""The sparse term map shared by every element type in the package.

An element is a canonical finite map key -> nonzero coefficient over a
space: a CwElement maps CwMonomials over an AlgebraSignature, an OreElement
maps OreMonomials over a rank, a GrassPolyVector maps carrier monomials over
(ell, k), a TensorElement maps monomial pairs over a pair of factor spaces,
a Matrix maps (row, column) to entries over (rows, columns, zero entry),
and the cw family's coefficient ring Q(i)[L] maps L exponents over the
one space None.  `SparseElement` holds the map and gives the vector-space
operations, equality, hashing and immutability once.  A subclass supplies
only what differs:

    _ring(x)             x in the coefficient ring, or NotImplemented
    _check_key(space, k) validate a key and return it in canonical form
    unit_key()           the unit monomial of an algebra, None for vectors
                         and tensors; only a class with a unit takes numbers
                         as constants (in +, -, == and hash)
    _product(other)      the product, for the classes that have one
    _bracket(other, odd) self*other - sigma other*self, sigma = -1 on the
                         term pairs (m1, m2) where odd(m1, m2), likewise

`accumulate` is the one "add, drop the zero" step for building term maps.
`pair_product` is the one loop that accumulates products: `star` at every
t, `wedge`, `poisson`, brackets, `ore_product` and `tensor_star` run it
with their families' pair kernels, in ints, into {bucket: {subkey: value}},
so the cw kernels pass the cached Bose terms as they are, in the bucket
(Fermi mask, L power); `scalars.join_numerators` or `from_numerators`
builds each key once and reduces it by one gcd.  `scalars` imports this
module for `SparseElement`, so this one cannot import `scalars` at module level.
A constant raised to a power is the power of its coefficient, taken by
squaring in the ring.  `graded_bracket` is the one graded bracket, one
`pair_product` pass over a x b with the family's bracket kernel, and
`lie_bracket`, `anti_bracket` and `super_bracket` its gradings for both
families; `triple_bracket_law` is the one check of the orthosymplectic
triple-bracket law over a basis and a form, and `homomorphism_law` the one
check that a transport maps products to products, and back by its inverse.

`kernel(maxsize, fits)` is the one declaration of a cache: a per-monomial
kernel is a bounded `lru_cache`, registered in `KERNELS` under "module.name"
with the underscore dropped (`starprod.cliff_pair`, the benchmark's metric
name), and with `fits` a call past the kernel's size limit is not cached.

`expect_element` is the one argument check of an element's family and
space: a wrong one is a `SignatureMismatch`, which is an `AlgebraError`.
`element_tag` names the algebra of an element, its family and space, for
the cochains' argument checks and the matrices' entry rings.  `json_reader`
wraps every `from_json`, so malformed data raises `AlgebraError`, and
the readers sum the records of one key by `sum_terms`.

`Checks` is the one recorder of verification cases: every report in the
package, from the suites down to `ore`, `deform`, `osp` and `hochschild`,
counts its cases and writes its failure records through it.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache, wraps
from math import lcm


class AlgebraError(Exception):
    """Base class for algebra usage errors."""


class SignatureMismatch(AlgebraError):
    """Raised when elements of different algebras are combined."""


def expect_element(x, cls, space):
    """Raise `SignatureMismatch` unless x is a `cls` over `space`."""
    if not isinstance(x, cls) or x.space != space:
        got = "%s over %r" % (type(x).__name__, getattr(x, "space", None))
        raise SignatureMismatch("expected %s over %r, got %s" % (cls.__name__, space, got))


def element_tag(x):
    """Identify the algebra an element belongs to: its family and its space."""
    if not isinstance(x, SparseElement) or x.unit_key() is None:
        raise AlgebraError("not an algebra element: %r" % (x,))
    return (type(x).__name__, x.space)


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


def json_reader(read):
    """`read` with every Python error on malformed data raised as `AlgebraError`."""

    @wraps(read)
    def guarded(*args):
        try:
            return read(*args)
        except AlgebraError:
            raise
        except (AttributeError, IndexError, KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            raise AlgebraError("malformed JSON for %s: %r" % (read.__qualname__, e)) from e

    return guarded


KERNELS = {}


def kernel(maxsize, fits=None):
    """Declare a kernel in `KERNELS`: the bare `lru_cache` of at most `maxsize`
    entries or, with `fits`, a callable that computes calls failing `fits` uncached."""

    def declare(fn):
        cache = declared = lru_cache(maxsize=maxsize)(fn)
        if fits is not None:
            declared = wraps(fn)(lambda *args: cache(*args) if fits(*args) else fn(*args))
            declared.cache_info, declared.cache_clear = cache.cache_info, cache.cache_clear
        KERNELS["%s.%s" % (fn.__module__.rpartition(".")[2], fn.__name__.lstrip("_"))] = declared
        return declared

    return declare


def sum_terms(pairs):
    """The term map of (key, coefficient) pairs, the coefficients of one key summed."""
    terms = {}
    for key, c in pairs:
        accumulate(terms, key, c)
    return terms


def pair_product(a, b, pair):
    """Sum over term pairs of c1 * c2 * pair(k1, k2), in integers.

    a and b are (key, coefficient) pairs, each coefficient a nonzero
    Gaussian rational read as its ints (re + im*i) / den.  pair(k1, k2) ->
    (den, groups), a group (fr, fi, bucket, ((num, subkey), ...)) meaning
    (fr + fi*i) * num / den times the key the family makes of bucket and
    subkey, over den times c1's and c2's denominators; D is their running
    lcm.  It returns the defaultdict {bucket: {subkey: [re, im, D]}} in the
    order of first contribution: (re + im*i) / D, D as of the last touch.
    """
    out = defaultdict(dict)
    D = 1
    for k1, c1 in a:
        x1, y1, d1 = c1._re, c1._im, c1._den
        for k2, c2 in b:
            den, groups = pair(k1, k2)
            den *= d1 * c2._den
            if D % den:
                D = lcm(D, den)
            f = D // den
            x2, y2 = c2._re, c2._im
            x, y = (x1 * x2 - y1 * y2) * f, (x1 * y2 + y1 * x2) * f
            for fr, fi, bucket, terms in groups:
                if not terms:
                    continue
                re, im = x * fr - y * fi, x * fi + y * fr
                sub = out[bucket]
                for num, key in terms:
                    s = sub.get(key)
                    if s is None:
                        sub[key] = [re * num, im * num, D]
                    elif s[2] == D:
                        s[0] += re * num
                        s[1] += im * num
                    else:  # D grew since the key was last touched
                        g = D // s[2]
                        s[:] = s[0] * g + re * num, s[1] * g + im * num, D
    return out


def lie_bracket(a, b):
    """The commutator a*b - b*a, in the bracket of the elements' family."""
    return a._bracket(b, lambda m1, m2: False)


def anti_bracket(a, b):
    """The anticommutator a*b + b*a."""
    return a._bracket(b, lambda m1, m2: True)


def super_bracket(a, b):
    """a*b - (-1)^{d2(a) d2(b)} b*a on each pair of terms, d2 the Bose parity
    `bose_parity()` of a key.  This grading makes the bracket of two Fermi
    generators a commutator; the anticommutator pairing of the presentation
    is `anti_bracket`."""
    return a._bracket(b, lambda m1, m2: m1.bose_parity() and m2.bose_parity())


def graded_bracket(a, b, degree, odd):
    """The bracket of a and b graded by degree(key), extended bilinearly: on
    each pair of terms of degrees (da, db), the anticommutator when odd(da,
    db) holds and the commutator otherwise."""
    return a._bracket(b, lambda m1, m2: odd(degree(m1), degree(m2)))


def triple_bracket_law(basis, form, bracket):
    """Check [[X,Y],Z] = 2((Y|Z)X - (-1)^(|X||Y|)(X|Z)Y) on every triple of
    basis, in order, as `Checks` labelled by the three labels.

    basis holds (label, element, key, parity) and form maps pairs of keys to
    the pairing, 0 where absent; bracket is the graded bracket.
    """
    checks = Checks()
    for lx, x, kx, px in basis:
        for ly, y, ky, py in basis:
            bxy, sign = bracket(x, y), -1 if px and py else 1
            for lz, z, kz, _ in basis:
                cyz, cxz = form.get((ky, kz), 0), form.get((kx, kz), 0)
                rhs = x.scale(cyz + cyz) - y.scale(cxz + cxz).scale(sign)
                checks.check([lx, ly, lz], bracket(bxy, z), rhs)
    return checks


def homomorphism_law(checks, labels, pairs, forward, product, target_product, inverse=None):
    """Check forward(product(x, y)) = target_product(forward(x), forward(y))
    on each pair (x, y), in order, each followed by inverse(forward(x)) = x
    when an inverse is given, into checks, labelled labels[0] and labels[-1].

    The maps and products are arguments with no defaults, so the bindings
    the caller reads when it calls are the ones that run.
    """
    for x, y in pairs:
        fx, fy = forward(x), forward(y)
        checks.check([labels[0], x, y], forward(product(x, y)), target_product(fx, fy))
        if inverse is not None:
            checks.check([labels[-1], x], inverse(fx), x)
    return checks


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

    def __reduce__(self):
        # pickle and copy rebuild through raw, since __setattr__ refuses the slots
        return type(self).raw, (self.space, self.terms)

    def unit_key(self):
        return None

    def _product(self, other):
        return NotImplemented

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
