"""Normal-form arithmetic in the deformed algebras with central parameter.

Elements live on the basis  w^I E+^a E-^b L^r  where the w_j are 2n+1
anticommuting involutions, E+/E- generate the deformed Bose pair, and L is
central.  The defining relations are

    w_i w_j + w_j w_i = 2 delta_ij
    E(+-) w_j = -w_j E(+-)
    E+ E- - E- E+ = -1/4 + ghost,    ghost = i^n w_1...w_{2n+1} L

so the ghost anticommutes with E+ and E-, commutes with every w_j, and
squares to L^2.  The product is computed by rewriting: the only nontrivial
kernel is moving a block of E-'s past a block of E+'s, which terminates
because each step lowers the E+ exponent; everything else is sign
bookkeeping and one Clifford pairing.

Coefficients are plain Gaussian rationals -- the central parameter is part
of the monomial, not the coefficient.
"""

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .algebra import AlgebraError
from .scalars import GR_ONE, GaussianRational, Scalar, _coerce, format_coefficient, gr_ratio, i_power
from .starprod import _cliff_pair


class OreMonomial(NamedTuple):
    cliff: int
    e_plus: int
    e_minus: int
    lam: int

    def degree(self):
        """Filtration degree: the central parameter counts twice."""
        return self.cliff.bit_count() + self.e_plus + self.e_minus + 2 * self.lam

    def bose_parity(self):
        return (self.e_plus + self.e_minus) & 1

    def cliff_indices(self):
        return [i + 1 for i in range(self.cliff.bit_length()) if self.cliff >> i & 1]


def _monomial_sort_key(m):
    return (m.degree(), m.lam, m.cliff, m.e_plus, m.e_minus)


class OreElement:
    """Finite Gaussian-rational combination of normal-form monomials."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        clean = {}
        if terms:
            width = 2 * n + 1
            for m, c in terms.items():
                c = c if isinstance(c, GaussianRational) else _coerce(c)
                if not c:
                    continue
                if m.cliff < 0 or m.cliff >> width:
                    raise AlgebraError("Fermi bits outside rank-%d algebra" % n)
                if m.e_plus < 0 or m.e_minus < 0 or m.lam < 0:
                    raise AlgebraError("negative exponent in %r" % (m,))
                clean[m] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("OreElement is immutable")

    def _check_rank(self, other):
        if self.n != other.n:
            raise AlgebraError("rank mismatch: %d vs %d" % (self.n, other.n))

    def __add__(self, other):
        if not isinstance(other, OreElement):
            other = _coerce_ore(self.n, other)
        self._check_rank(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return _raw_ore(self.n, out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, OreElement):
            other = _coerce_ore(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return _coerce_ore(self.n, other) - self

    def __neg__(self):
        return _raw_ore(self.n, {m: -c for m, c in self.terms.items()})

    def scale(self, s):
        s = s if isinstance(s, GaussianRational) else _coerce(s)
        if not s:
            return _raw_ore(self.n, {})
        return _raw_ore(self.n, {m: c * s for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, OreElement):
            return ore_product(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k):
        if k < 0:
            raise AlgebraError("negative power")
        out = ore_unit(self.n)
        for _ in range(k):
            out = ore_product(out, self)
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, OreElement):
            if _coerce(other) is NotImplemented:
                return NotImplemented
            other = _coerce_ore(self.n, other)
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        # zero and the constants hash like the number they equal
        t = self.terms
        if not t:
            return 0
        if len(t) == 1:
            ((m, c),) = t.items()
            if not m.degree():
                return hash(c)
        return hash((self.n, frozenset(t.items())))

    def coefficient(self, m):
        return self.terms.get(m, GaussianRational(Fraction(0), Fraction(0)))

    def max_degree(self):
        return max((m.degree() for m in self.terms), default=0)

    def lam_degree(self):
        return max((m.lam for m in self.terms), default=0)

    def lam_coefficient(self, r):
        """The element multiplying L^r (returned with the L factor removed)."""
        out = {}
        for m, c in self.terms.items():
            if m.lam == r:
                out[OreMonomial(m.cliff, m.e_plus, m.e_minus, 0)] = c
        return _raw_ore(self.n, out)

    def bose_parity_parts(self):
        even, odd = {}, {}
        for m, c in self.terms.items():
            (odd if m.bose_parity() else even)[m] = c
        return _raw_ore(self.n, even), _raw_ore(self.n, odd)

    def monomials(self):
        return sorted(self.terms, key=_monomial_sort_key)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in self.monomials():
            c = self.terms[m]
            factors = ["w%d" % i for i in m.cliff_indices()]
            if m.e_plus:
                factors.append("E+" if m.e_plus == 1 else "E+^%d" % m.e_plus)
            if m.e_minus:
                factors.append("E-" if m.e_minus == 1 else "E-^%d" % m.e_minus)
            body = " ".join(factors)
            coeff = format_coefficient(c, m.lam)
            if not body:
                bits.append(coeff)
            elif coeff == "1":
                bits.append(body)
            elif coeff == "-1":
                bits.append("-%s" % body)
            else:
                bits.append("%s * %s" % (coeff, body))
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out

    def __repr__(self):
        return "<OreElement n=%d | %s>" % (self.n, self)

    def to_json(self):
        out = []
        for m in self.monomials():
            out.append(
                {
                    "coeff": self.terms[m].to_json(),
                    "cliff": m.cliff_indices(),
                    "e+": m.e_plus,
                    "e-": m.e_minus,
                    "L": m.lam,
                }
            )
        return out

    @staticmethod
    def from_json(n, data):
        terms = {}
        for rec in data:
            mask = 0
            for i in rec["cliff"]:
                mask |= 1 << (i - 1)
            m = OreMonomial(mask, rec["e+"], rec["e-"], rec["L"])
            terms[m] = GaussianRational.from_json(rec["coeff"])
        return OreElement(n, terms)


def _raw_ore(n, clean):
    e = object.__new__(OreElement)
    object.__setattr__(e, "n", n)
    object.__setattr__(e, "terms", clean)
    return e


def _coerce_ore(n, x):
    c = _coerce(x)
    return OreElement(n, {OreMonomial(0, 0, 0, 0): c})


# -- constructors -----------------------------------------------------------------


def ore_zero(n):
    return OreElement(n)


def ore_unit(n):
    return _coerce_ore(n, 1)


def ore_scalar(n, c):
    return _coerce_ore(n, c)


def ore_fermi(n, i):
    if not 1 <= i <= 2 * n + 1:
        raise AlgebraError("w%d outside rank-%d algebra" % (i, n))
    return OreElement(n, {OreMonomial(1 << (i - 1), 0, 0, 0): GR_ONE})


def ore_e_plus(n):
    return OreElement(n, {OreMonomial(0, 1, 0, 0): GR_ONE})


def ore_e_minus(n):
    return OreElement(n, {OreMonomial(0, 0, 1, 0): GR_ONE})


def ore_lambda(n, power=1):
    return OreElement(n, {OreMonomial(0, 0, 0, power): GR_ONE})


def ghost_theta(n):
    """i^n w_1...w_{2n+1} L: anticommutes with E+/E-, squares to L^2."""
    full = (1 << (2 * n + 1)) - 1
    return OreElement(n, {OreMonomial(full, 0, 0, 1): i_power(n)})


def ore_generators(n):
    """[w_1, ..., w_{2n+1}, E+, E-] (the central L is not included)."""
    return [ore_fermi(n, i) for i in range(1, 2 * n + 2)] + [
        ore_e_plus(n),
        ore_e_minus(n),
    ]


# -- the product ------------------------------------------------------------------


@lru_cache(maxsize=None)
def _lower_past_powers(beta, gamma):
    """Normal form of E-^beta E+^gamma.

    Terms are (q, a, eps, b, extra) meaning q * E+^a ghost^eps E-^b L^extra
    with eps in {0,1} and q a real GaussianRational; the ghost is kept
    abstract here so the kernel is independent of the rank.
    """
    if beta == 0:
        return ((GR_ONE, gamma, 0, 0, 0),)
    acc = {}

    def add(key, q):
        s = acc.get(key)
        s = q if s is None else s + q
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)

    for q, a, eps, b, extra in _lower_past_powers(beta - 1, gamma):
        # E- E+^a = E+^a E- + (a/4) E+^{a-1} - [a odd] E+^{a-1} ghost,
        # then E- ghost = -ghost E- and ghost^2 = L^2
        add((a, eps, b + 1, extra), -q if eps else q)
        if a:
            add((a - 1, eps, b, extra), q * gr_ratio(a, 4))
            if a & 1:
                if eps:
                    add((a - 1, 0, b, extra + 2), -q)
                else:
                    add((a - 1, 1, b, extra), -q)
    return tuple((q, a, e, b, x) for (a, e, b, x), q in sorted(acc.items()))


def ore_product(x, y):
    x._check_rank(y)
    n = x.n
    full = (1 << (2 * n + 1)) - 1
    ghost_coeff = i_power(n)
    out = {}
    for m1, c1 in x.terms.items():
        eblock1 = (m1.e_plus + m1.e_minus) & 1
        for m2, c2 in y.terms.items():
            base = c1 * c2
            # w^J of the right factor passes the E-block of the left factor
            if eblock1 and m2.cliff.bit_count() & 1:
                base = -base
            csign, tcount, mask = _cliff_pair(m1.cliff, m2.cliff)
            if (csign < 0) ^ (tcount & 1):
                base = -base
            lam = m1.lam + m2.lam
            ghost = None
            for q, a, eps, b, extra in _lower_past_powers(m1.e_minus, m2.e_plus):
                e_plus = m1.e_plus + a
                if eps:
                    # ghost = i^n w_full L sits after E+^{e_plus}: it
                    # anticommutes with each E+ on its way to the front,
                    # commutes with every w, then pairs into the Fermi word.
                    # All of that but the sign (-1)^a is fixed per pair.
                    if ghost is None:
                        gsign, gtc, gmask = _cliff_pair(mask, full)
                        g = base * ghost_coeff
                        if (gsign < 0) ^ (gtc & 1) ^ (m1.e_plus & 1):
                            g = -g
                        ghost = (g, -g)
                    coeff = ghost[a & 1] * q
                    key = OreMonomial(gmask, e_plus, b + m2.e_minus, lam + extra + 1)
                else:
                    coeff = base * q
                    key = OreMonomial(mask, e_plus, b + m2.e_minus, lam + extra)
                s = out.get(key)
                s = coeff if s is None else s + coeff
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return _raw_ore(n, out)


# -- brackets and specialization ---------------------------------------------------


def ore_lie_bracket(x, y):
    return ore_product(x, y) - ore_product(y, x)


def ore_anti_bracket(x, y):
    return ore_product(x, y) + ore_product(y, x)


def ore_super_bracket(x, y):
    """Bracket graded by the parity of the E-block."""
    xe, xo = x.bose_parity_parts()
    ye, yo = y.bose_parity_parts()
    out = ore_anti_bracket(xo, yo)
    for a, b in ((xe, ye), (xe, yo), (xo, ye)):
        out = out + ore_lie_bracket(a, b)
    return out


def specialize(x, lam_value):
    """Substitute the central parameter by a Gaussian rational."""
    lam_value = lam_value if isinstance(lam_value, GaussianRational) else _coerce(lam_value)
    out = {}
    for m, c in x.terms.items():
        v = c
        for _ in range(m.lam):
            v = v * lam_value
        if not v:
            continue
        key = OreMonomial(m.cliff, m.e_plus, m.e_minus, 0)
        s = out.get(key)
        s = v if s is None else s + v
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return _raw_ore(x.n, out)


def specialized_product(x, y, lam_value):
    """Product in the quotient at a fixed parameter value.

    Multiplying two parameter-free representatives can re-create the
    central parameter through the ghost, so the quotient product is the
    full product followed by substitution.
    """
    return specialize(ore_product(x, y), lam_value)


def ore_relations_report(n):
    """Exact check of the defining relations on the rank-n generators."""
    ws = [ore_fermi(n, i) for i in range(1, 2 * n + 2)]
    ep, em = ore_e_plus(n), ore_e_minus(n)
    lam = ore_lambda(n)
    failures = []
    cases = 0

    def check(name, lhs, rhs):
        nonlocal cases
        cases += 1
        if lhs != rhs:
            failures.append({"inputs": [name], "lhs": str(lhs), "rhs": str(rhs)})

    two = ore_scalar(n, 2)
    for i, wi in enumerate(ws):
        for j, wj in enumerate(ws):
            check(
                "w%d w%d + w%d w%d" % (i + 1, j + 1, j + 1, i + 1),
                ore_anti_bracket(wi, wj),
                two if i == j else ore_zero(n),
            )
        check("E+ w%d + w%d E+" % (i + 1, i + 1), ore_anti_bracket(ep, wi), ore_zero(n))
        check("E- w%d + w%d E-" % (i + 1, i + 1), ore_anti_bracket(em, wi), ore_zero(n))
        check("[L, w%d]" % (i + 1), ore_lie_bracket(lam, wi), ore_zero(n))
    check(
        "[E+, E-]",
        ore_lie_bracket(ep, em),
        ghost_theta(n) - ore_scalar(n, Fraction(1, 4)),
    )
    check("[L, E+]", ore_lie_bracket(lam, ep), ore_zero(n))
    check("[L, E-]", ore_lie_bracket(lam, em), ore_zero(n))
    return {"suite": "ore-relations", "cases": cases, "failures": failures}
