"""Normal-form arithmetic in the deformed algebras with central parameter.

Elements live on the basis  w^I E+^a E-^b L^r  where the w_j are 2n+1
anticommuting involutions, E+/E- generate the deformed Bose pair, and L is
central.  The defining relations are

    w_i w_j + w_j w_i = 2 delta_ij
    E(+-) w_j = -w_j E(+-)
    E+ E- - E- E+ = -1/4 + ghost,    ghost = i^n w_1...w_{2n+1} L

so the ghost anticommutes with E+ and E-, commutes with every w_j, and
squares to L^2.  The product is computed by rewriting: the only nontrivial
kernel is the normal form of E-^beta E+^gamma.  It is a loop that
multiplies in the shorter block one generator at a time, so it runs
min(beta, gamma) steps, with int numerators over the common denominator
4^steps.  `pair_kernel` adds the signs and one Clifford pairing per monomial
pair, and `sparse.pair_product` sums its terms.

An element is a `sparse.SparseElement` over the rank n: a canonical map
OreMonomial -> Gaussian rational whose unit monomial is OreMonomial(0, 0, 0,
0).  Coefficients are plain Gaussian rationals -- the central parameter is
part of the monomial, not the coefficient.
"""

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .algebra import AlgebraError, index_mask
from .scalars import GR_I, GR_ONE, GaussianRational, _coerce, format_coefficient, gaussian, gr_ratio
from .scalars import i_power
from .sparse import Checks, SparseElement, accumulate, pair_product
from .sparse import anti_bracket as ore_anti_bracket, lie_bracket as ore_lie_bracket
from .starprod import _LOWER_PAST_POWERS_CACHE, _cliff_pair
from .textform import join_signed, signed_term

_tuple_new = tuple.__new__  # an OreMonomial without the NamedTuple's Python __new__


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


class OreElement(SparseElement):
    """Finite Gaussian-rational combination of normal-form monomials.

    The space is the rank n; the unit monomial is OreMonomial(0, 0, 0, 0).
    """

    __slots__ = ()
    n = SparseElement.space  # the space slot under its family name

    _ring = staticmethod(_coerce)

    @staticmethod
    def _check_key(n, m):
        if m.cliff < 0 or m.cliff >> (2 * n + 1):
            raise AlgebraError("Fermi bits outside rank-%d algebra" % n)
        if m.e_plus < 0 or m.e_minus < 0 or m.lam < 0:
            raise AlgebraError("negative exponent in %r" % (m,))
        return m

    def unit_key(self):
        return _ORE_ONE

    def _product(self, other):
        return ore_product(self, other)

    def lam_coefficient(self, r):
        """The element multiplying L^r (returned with the L factor removed)."""
        out = {m._replace(lam=0): c for m, c in self.terms.items() if m.lam == r}
        return OreElement.raw(self.n, out)

    def monomials(self):
        return sorted(self.terms, key=_monomial_sort_key)

    def __str__(self):
        bits = []
        for m in self.monomials():
            factors = ["w%d" % i for i in m.cliff_indices()]
            if m.e_plus:
                factors.append("E+" if m.e_plus == 1 else "E+^%d" % m.e_plus)
            if m.e_minus:
                factors.append("E-" if m.e_minus == 1 else "E-^%d" % m.e_minus)
            bits.append(signed_term(format_coefficient(self.terms[m], m.lam), " ".join(factors)))
        return join_signed(bits)

    def __repr__(self):
        return "<OreElement n=%d | %s>" % (self.n, self)

    @staticmethod
    def key_json(m):
        return {"cliff": m.cliff_indices(), "e+": m.e_plus, "e-": m.e_minus, "L": m.lam}

    @staticmethod
    def key_from_json(rec):
        return OreMonomial(index_mask(rec["cliff"]), rec["e+"], rec["e-"], rec["L"])

    def to_json(self):
        return [{"coeff": self.terms[m].to_json(), **self.key_json(m)} for m in self.monomials()]

    @staticmethod
    def from_json(n, data):
        terms = {OreElement.key_from_json(rec): GaussianRational.from_json(rec["coeff"]) for rec in data}
        return OreElement(n, terms)


_ORE_ONE = OreMonomial(0, 0, 0, 0)


# -- constructors -----------------------------------------------------------------


def ore_zero(n):
    return OreElement.raw(n, {})


def ore_unit(n):
    return ore_scalar(n, 1)


def ore_scalar(n, c):
    return OreElement(n, {_ORE_ONE: c})


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


@lru_cache(maxsize=_LOWER_PAST_POWERS_CACHE)
def _lower_past_powers(beta, gamma):
    """Normal form of E-^beta E+^gamma.

    Terms are (q, a, eps, b, extra) meaning q * E+^a ghost^eps E-^b L^extra
    with eps in {0,1} and q a real GaussianRational, sorted by (a, eps, b,
    extra); the ghost is kept abstract here so the kernel is independent of
    the rank.

    The shorter block is multiplied in one generator at a time.  For
    beta <= gamma each step puts one E- in front of E+^gamma,

        E- E+^a = E+^a E- + (a/4) E+^{a-1} - [a odd] E+^{a-1} ghost,

    and otherwise each step puts one E+ after E-^beta,

        E-^b E+ = E+ E-^b + (b/4) E-^{b-1} - [b odd] ghost E-^{b-1};

    the new generator passes the ghost with a sign, and ghost^2 = L^2.  The
    two rules are mirror images: with k the exponent being lowered and j the
    other one, both send (k, j) to (k, j + 1) and (k - 1, j), so one loop
    serves both.  k - j drops by one per step, so j is left out of the state
    and recovered at the end.  Coefficients stay int numerators over the
    common denominator 4^steps (each step divides by 4 at most once) and
    become GaussianRationals only in the returned tuple.
    """
    steps, top = min(beta, gamma), max(beta, gamma)
    state = {(top, 0, 0): 1}  # (k, eps, extra) -> numerator over 4^step
    for _ in range(steps):
        nxt = defaultdict(int)
        for key, num in state.items():
            k, eps, extra = key
            four = num << 2
            nxt[key] += -four if eps else four
            if k:
                nxt[k - 1, eps, extra] += k * num
                if k & 1:
                    nxt[(k - 1, 0, extra + 2) if eps else (k - 1, 1, extra)] -= four
        state = {key: num for key, num in nxt.items() if num}
    den = 4**steps
    shift = top - steps
    out = []
    for (k, eps, extra), num in sorted(state.items()):
        q = gr_ratio(num, den)
        if beta <= gamma:
            out.append((q, k, eps, k - shift, extra))
        else:
            out.append((q, k - shift, eps, k, extra))
    return tuple(out)


def pair_kernel(n):
    """The rank-n pair kernel: (m1, m2) -> ((coefficient, OreMonomial), ...)."""
    full = (1 << (2 * n + 1)) - 1
    # the ghost's coefficient i^n is (-1)^(n // 2), times i for odd n
    ghost_neg, ghost_i = (n >> 1) & 1, n & 1

    def pair(m1, m2):
        csign, tcount, mask = _cliff_pair(m1.cliff, m2.cliff)
        neg = (csign < 0) ^ (tcount & 1) ^ ((m1.e_plus + m1.e_minus) & m2.cliff.bit_count() & 1)
        e_plus, e_minus, lam = m1.e_plus, m2.e_minus, m1.lam + m2.lam
        out, gmask = [], None
        for q, a, eps, b, extra in _lower_past_powers(m1.e_minus, m2.e_plus):
            if not eps:
                key = _tuple_new(OreMonomial, (mask, e_plus + a, b + e_minus, lam + extra))
                out.append((-q if neg else q, key))
                continue
            # ghost = i^n w_full L anticommutes with each E+ on its way to the
            # front, then pairs into the Fermi word: only (-1)^a varies
            if gmask is None:
                gsign, gtc, gmask = _cliff_pair(mask, full)
                gneg = neg ^ (gsign < 0) ^ (gtc & 1) ^ (e_plus & 1) ^ ghost_neg
            c = -q if gneg ^ (a & 1) else q
            if ghost_i:
                c = c * GR_I
            out.append((c, _tuple_new(OreMonomial, (gmask, e_plus + a, b + e_minus, lam + extra + 1))))
        return out

    return pair


def ore_product(x, y):
    x._check_space(y)
    return OreElement.raw(x.n, pair_product(x.terms, y.terms, pair_kernel(x.n)))


# -- brackets and specialization ---------------------------------------------------


def ore_super_bracket(x, y):
    """Bracket graded by the parity of the E-block."""

    def even_odd(e):
        p = e.homogeneous_parts(OreMonomial.bose_parity)
        return p.get(0, ore_zero(e.n)), p.get(1, ore_zero(e.n))

    (xe, xo), (ye, yo) = even_odd(x), even_odd(y)
    out = ore_anti_bracket(xo, yo)
    for a, b in ((xe, ye), (xe, yo), (xo, ye)):
        out = out + ore_lie_bracket(a, b)
    return out


def specialize(x, lam_value):
    """Substitute the central parameter by a Gaussian rational."""
    lam_value = gaussian(lam_value)
    out = {}
    for m, c in x.terms.items():
        accumulate(out, m._replace(lam=0), c * lam_value**m.lam)
    return OreElement.raw(x.n, out)


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
    checks = Checks()
    two = ore_scalar(n, 2)
    for i, wi in enumerate(ws):
        for j, wj in enumerate(ws):
            checks.check(
                ["w%d w%d + w%d w%d" % (i + 1, j + 1, j + 1, i + 1)],
                ore_anti_bracket(wi, wj),
                two if i == j else ore_zero(n),
            )
        checks.check(["E+ w%d + w%d E+" % (i + 1, i + 1)], ore_anti_bracket(ep, wi), ore_zero(n))
        checks.check(["E- w%d + w%d E-" % (i + 1, i + 1)], ore_anti_bracket(em, wi), ore_zero(n))
        checks.check(["[L, w%d]" % (i + 1)], ore_lie_bracket(lam, wi), ore_zero(n))
    checks.check(
        ["[E+, E-]"],
        ore_lie_bracket(ep, em),
        ghost_theta(n) - ore_scalar(n, Fraction(1, 4)),
    )
    checks.check(["[L, E+]"], ore_lie_bracket(lam, ep), ore_zero(n))
    checks.check(["[L, E-]"], ore_lie_bracket(lam, em), ore_zero(n))
    return checks.report("ore-relations")
