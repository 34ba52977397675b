"""Reference Gaussian rationals built on `fractions.Fraction`.

This is the library's earlier coefficient class, kept as an independent
oracle for `cliffordweyl.scalars`, which stores the same values as reduced
int triples.  Only `__hash__` differs from that earlier class: a real value
hashes like the equal `Fraction`, as Python's numeric hash contract asks.
"""

from fractions import Fraction


class RefGaussian:
    """a + b*i with exact rational a, b, held as two Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("RefGaussian is immutable")

    def __add__(self, other):
        other = _coerce(other)
        return RefGaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _coerce(other)
        return RefGaussian(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return RefGaussian(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        return RefGaussian(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return RefGaussian(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __pow__(self, n):
        out = RefGaussian(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = _coerce(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return "%s*i" % self.im
        return "(%s + %s*i)" % (self.re, self.im) if self.im > 0 else "(%s - %s*i)" % (self.re, -self.im)

    def to_json(self):
        return [
            [self.re.numerator, self.re.denominator],
            [self.im.numerator, self.im.denominator],
        ]


def _coerce(x):
    return x if isinstance(x, RefGaussian) else RefGaussian(x)


def ref_format_coefficient(g, lam_power=0):
    """The coefficient text form, computed from the Fraction parts."""
    if g.im == 0:
        body = str(g.re)
    elif g.re == 0:
        if g.im == 1:
            body = "i"
        elif g.im == -1:
            body = "-i"
        else:
            body = "%s*i" % g.im
    else:
        sign = "+" if g.im > 0 else "-"
        mag = abs(g.im)
        istr = "i" if mag == 1 else "%s*i" % mag
        body = "(%s %s %s)" % (g.re, sign, istr)
    if lam_power == 0:
        return body
    lpart = "L" if lam_power == 1 else "L^%d" % lam_power
    if body == "1":
        return lpart
    if body == "-1":
        return "-%s" % lpart
    return "%s*%s" % (body, lpart)
