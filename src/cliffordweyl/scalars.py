"""Exact scalars: Gaussian rationals and polynomials in the central parameter L.

Every coefficient in this package is either a Gaussian rational (a + b*i with
a, b rational) or a polynomial in a single central formal parameter L with
Gaussian-rational coefficients.  Nothing is ever floated; equality everywhere
in the library and the test suite means exact equality of these objects.

A Gaussian rational is stored as three ints, (re_num + im_num*i) / den, kept
reduced: den > 0 and gcd(re_num, im_num, den) = 1.  The form is unique, so
equality compares the ints and zero is (0, 0, 1).  The `re` and `im`
properties give the parts as `Fraction`s; arithmetic and printing work on the
ints directly.

A polynomial in L is a `Scalar`, a `sparse.SparseElement` whose keys are L
exponents: the sparse core gives it the ring operations, equality, hashing
and immutability, and this module adds only what is about L (constructors,
the L degree and coefficients, specialization, and the text and JSON forms).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

from .sparse import AlgebraError, SparseElement

_HASH_MODULUS = sys.hash_info.modulus


class GaussianRational:
    """a + b*i with exact rational a, b.  Immutable, hashable, a field.

    The parts may be given as ints or Fractions; anything else is a TypeError.
    """

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, re=0, im=0):
        if not isinstance(re, (int, Fraction)) or not isinstance(im, (int, Fraction)):
            raise TypeError(
                "GaussianRational parts must be int or Fraction, got %s and %s"
                % (type(re).__name__, type(im).__name__)
            )
        rd, idn = re.denominator, im.denominator
        if rd == idn:
            self._re, self._im, self._den = re.numerator, im.numerator, rd
        else:
            # both parts are reduced, so over the lcm the triple is reduced too
            den = rd // gcd(rd, idn) * idn
            self._re = re.numerator * (den // rd)
            self._im = im.numerator * (den // idn)
            self._den = den

    @property
    def re(self):
        return Fraction(self._re, self._den)

    @property
    def im(self):
        return Fraction(self._im, self._den)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, f = self._den, other._den
        if d == f:
            re, im = self._re + other._re, self._im + other._im
            if d == 1:
                return _make(re, im, 1)
            return _reduce(re, im, d)
        g = gcd(d, f)
        if g == 1:
            # coprime denominators leave nothing to cancel
            return _make(self._re * f + other._re * d, self._im * f + other._im * d, d * f)
        s, t = d // g, f // g
        re, im = self._re * t + other._re * s, self._im * t + other._im * s
        g2 = gcd(re, im, g)
        if g2 == 1:
            return _make(re, im, s * f)
        return _make(re // g2, im // g2, s * (f // g2))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return _make(-self._re, -self._im, self._den)

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self._re, self._im
        c, e = other._re, other._im
        if b or e:
            return _reduce(a * c - b * e, a * e + b * c, self._den * other._den)
        re, den = a * c, self._den * other._den
        g = gcd(re, den)
        if g == 1:
            return _make(re, 0, den)
        return _make(re // g, 0, den // g)

    __rmul__ = __mul__

    def inverse(self):
        a, b, d = self._re, self._im, self._den
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _reduce(d * a, -d * b, n)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = GR_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._re == other._re and self._im == other._im and self._den == other._den

    def __hash__(self):
        # a real value hashes like the equal Fraction or int, and a complex
        # one like the pair of its parts as Fractions
        re, im, den = self._re, self._im, self._den
        if im:
            return hash((_fraction_hash(re, den), _fraction_hash(im, den)))
        if den == 1:
            return hash(re)
        return _fraction_hash(re, den)

    def __bool__(self):
        return self._re != 0 or self._im != 0

    # -- presentation --------------------------------------------------------

    def __repr__(self):
        return "GaussianRational(%r, %r)" % (
            _ratio_str(self._re, self._den),
            _ratio_str(self._im, self._den),
        )

    def __str__(self):
        re, im, den = self._re, self._im, self._den
        if im == 0:
            return _ratio_str(re, den)
        if re == 0:
            return "%s*i" % _ratio_str(im, den)
        if im > 0:
            return "(%s + %s*i)" % (_ratio_str(re, den), _ratio_str(im, den))
        return "(%s - %s*i)" % (_ratio_str(re, den), _ratio_str(-im, den))

    def to_json(self):
        """[[re_num, re_den], [im_num, im_den]] with ints."""
        return [_ratio_pair(self._re, self._den), _ratio_pair(self._im, self._den)]

    @staticmethod
    def from_json(data):
        (rn, rd), (im_n, im_d) = data
        return GaussianRational(Fraction(rn, rd), Fraction(im_n, im_d))


_new = object.__new__


def _make(re, im, den):
    # internal: a GaussianRational from an already-reduced triple
    g = _new(GaussianRational)
    g._re = re
    g._im = im
    g._den = den
    return g


def _reduce(re, im, den):
    # internal: a GaussianRational from any triple with den > 0
    g = gcd(re, im, den)
    if g == 1:
        return _make(re, im, den)
    return _make(re // g, im // g, den // g)


def gr_ratio(num, den, im=0):
    """The Gaussian rational (num + im*i)/den from ints, den > 0."""
    return _reduce(num, im, den)


def from_numerators(values):
    """The term map {key: (re + im*i) / den} of the nonzero [re, im, den] of
    `sparse.pair_product`, each coefficient reduced by one gcd."""
    out = {}
    for key, (re, im, den) in values.items():
        if re or im:
            g = gcd(re, im, den)
            c = out[key] = _new(GaussianRational)  # _make, inlined
            c._re, c._im, c._den = re // g, im // g, den // g
    return out


def _fraction_hash(num, den):
    """hash(Fraction(num, den)) without building it, den > 0.

    Python hashes a rational as its value modulo a prime, so num/den need
    not be in lowest terms.
    """
    try:
        dinv = pow(den, -1, _HASH_MODULUS)
    except ValueError:
        return hash(Fraction(num, den))
    h = hash(hash(abs(num)) * dinv)
    h = h if num >= 0 else -h
    return -2 if h == -1 else h


def _ratio_pair(num, den):
    g = gcd(num, den)
    return [num // g, den // g]


def _ratio_str(num, den):
    """Text of num/den as `str(Fraction(num, den))` gives it."""
    if den != 1:
        g = gcd(num, den)
        if g != 1:
            num, den = num // g, den // g
        if den != 1:
            return "%d/%d" % (num, den)
    return str(num)


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return NotImplemented


def gaussian(x):
    """x as a GaussianRational; TypeError if x is not a number."""
    g = _coerce(x)
    if g is NotImplemented:
        raise TypeError("expected a number, got %r" % (x,))
    return g


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)
GR_HALF = GaussianRational(Fraction(1, 2))


def i_power(n):
    """i**n as a GaussianRational (n any integer)."""
    return (GR_I ** (n % 4)) if n >= 0 else (GaussianRational(0, -1) ** ((-n) % 4))


class CentralParameterError(AlgebraError, ValueError):
    """A number was asked of a scalar that involves L."""


class Scalar(SparseElement):
    """Sparse polynomial in the central parameter L over Gaussian rationals.

    The terms map each L exponent to its nonzero GaussianRational, over the
    one space None; `coeffs` is that map.  The sparse core gives the ring
    operations, equality, hashing and immutability, and a constant equals
    and hashes like the number it is.  L is written `L` in all text forms.
    """

    __slots__ = ()
    coeffs = SparseElement.terms  # the terms slot under its ring's name

    _ring = staticmethod(_coerce)

    def __init__(self, coeffs=None):
        SparseElement.__init__(self, None, coeffs)

    @staticmethod
    def _check_key(space, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("L exponent must be a non-negative int, got %r" % (k,))
        return k

    def unit_key(self):
        return 0

    def _product(self, other):
        return self.raw(None, convolve(self.terms, other.terms))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_gaussian(g):
        return Scalar({0: g})

    @staticmethod
    def of(re, im=0):
        return Scalar({0: GaussianRational(re, im)})

    @staticmethod
    def lam(power=1, coeff=GR_ONE):
        """coeff * L**power."""
        return Scalar({power: coeff})

    # -- the L structure -------------------------------------------------------

    def inverse(self):
        """Inverse of a nonzero constant; CentralParameterError if L appears."""
        return Scalar.from_gaussian(self.constant().inverse())

    def lam_coefficient(self, power):
        """The GaussianRational coefficient of L**power."""
        return self.terms.get(power, GR_ZERO)

    def lam_degree(self):
        """Largest L exponent present, or -1 for the zero scalar."""
        return max(self.terms) if self.terms else -1

    def constant(self):
        """The Gaussian rational this scalar equals; CentralParameterError if
        L appears.  It is the one way to read a number off a Scalar."""
        for k in self.terms:
            if k != 0:
                raise CentralParameterError(
                    "expected a number free of the central parameter L, got %s" % self
                )
        return self.terms.get(0, GR_ZERO)

    def specialize(self, value):
        """Substitute a GaussianRational for L, returning a GaussianRational."""
        value = gaussian(value)
        return sum((v * value**k for k, v in self.terms.items()), GR_ZERO)

    # -- presentation -----------------------------------------------------------

    def __repr__(self):
        return "Scalar(%r)" % ({k: str(v) for k, v in sorted(self.terms.items())},)

    def __str__(self):
        return " + ".join(format_coefficient(g, k) for k, g in sorted(self.terms.items())) or "0"

    def to_json(self):
        """{"<L power>": [[re_num, re_den], [im_num, im_den]]}, keys sorted."""
        return {str(k): self.terms[k].to_json() for k in sorted(self.terms)}

    @staticmethod
    def from_json(data):
        return Scalar({int(k): GaussianRational.from_json(v) for k, v in data.items()})


def convolve(t1, t2):
    """The product of two L-polynomial term maps, as a term map."""
    out = {}
    for k1, v1 in t1.items():
        for k2, v2 in t2.items():
            k = k1 + k2
            p = v1 * v2
            # sparse.accumulate, inlined: every coefficient product passes here
            s = out.get(k)
            s = p if s is None else s + p
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def split_powers(terms):
    """[((key, L power), Gaussian rational), ...] from a map key -> Scalar."""
    return [((k, l), g) for k, s in terms.items() for l, g in s.terms.items()]


def join_numerators(values):
    """`from_numerators` on (key, L power) keys, joined into the map key -> Scalar."""
    out = {}
    get, raw = out.get, Scalar.raw
    for (k, l), g in from_numerators(values).items():
        s = get(k)
        if s is None:
            out[k] = raw(None, {l: g})
        else:
            s.terms[l] = g  # built just above, so its map is still ours to fill
    return out


def _coerce_scalar(x):
    """x as a Scalar (a number becomes a constant), or NotImplemented."""
    if x.__class__ is Scalar:
        return x
    g = _coerce(x)
    if g is NotImplemented:
        return g
    return Scalar.raw(None, {0: g} if g else {})


def format_coefficient(g, lam_power=0):
    """Canonical text for one coefficient: (a/b + c/d*i) * L^r.

    The parenthesized complex form collapses to a bare rational when the
    imaginary part vanishes, and the L factor is omitted when r = 0.  This is
    exactly the coefficient grammar the expression parser accepts.
    """
    re, im, den = g._re, g._im, g._den
    if im == 0:
        body = _ratio_str(re, den)
    elif re == 0:
        if im == den:
            body = "i"
        elif im == -den:
            body = "-i"
        else:
            body = "%s*i" % _ratio_str(im, den)
    else:
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        istr = "i" if mag == den else "%s*i" % _ratio_str(mag, den)
        body = "(%s %s %s)" % (_ratio_str(re, den), sign, istr)
    if lam_power == 0:
        return body
    lpart = "L" if lam_power == 1 else "L^%d" % lam_power
    if body == "1":
        return lpart
    if body == "-1":
        return "-%s" % lpart
    return "%s*%s" % (body, lpart)


S_ZERO = Scalar()
S_ONE = Scalar.of(1)
S_I = Scalar.of(0, 1)
S_HALF = Scalar.of(Fraction(1, 2))
S_LAMBDA = Scalar.lam(1)
