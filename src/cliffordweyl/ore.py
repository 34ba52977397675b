"""Normal-form arithmetic in the deformed algebras with central parameter.

Elements live on the basis  w^I E+^a E-^b L^r  where the w_j are 2n+1
anticommuting involutions, E+/E- generate the deformed Bose pair, and L is
central.  The defining relations are

    w_i w_j + w_j w_i = 2 delta_ij
    E(+-) w_j = -w_j E(+-)
    E+ E- - E- E+ = -1/4 + ghost,    ghost = i^n w_1...w_{2n+1} L

so the ghost anticommutes with E+ and E-, commutes with every w_j, and
squares to L^2.  The product is computed by rewriting: the only nontrivial
kernel is the normal form of E-^beta E+^gamma.  It multiplies in the
shorter block one generator at a time, min(beta, gamma) steps, and keeps
each state (lowered exponent, ghost or not) as one int that packs the
numerators of L^0, L^2, L^4, ... into fixed-width slots (Kronecker
substitution), so a step is a few big-int additions, shifts and small-int
products per state and all of it stays exact.  Its numerators are ints
over 4^min(beta, gamma).  `pair_kernel` adds the signs, one Clifford
pairing per monomial pair and the ghost's i^n as a Gaussian-integer
factor, and `sparse.pair_product` sums its terms in integers; for a
bracket, `bracket_kernel` gives a pair's two orders over one denominator.

An element is a `sparse.SparseElement` over the rank n: a canonical map
OreMonomial -> Gaussian rational whose unit monomial is OreMonomial(0, 0, 0,
0).  Coefficients are plain Gaussian rationals -- the central parameter is
part of the monomial, not the coefficient.
"""

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .algebra import AlgebraError, _check_size, index_mask
from .scalars import GR_ONE, GaussianRational, _coerce, from_numerators, gaussian
from .scalars import i_power
from .sparse import Checks, SparseElement, accumulate, pair_product
from .sparse import anti_bracket as ore_anti_bracket, lie_bracket as ore_lie_bracket
from .sparse import super_bracket as ore_super_bracket
from .starprod import _cliff_pair
from .textform import element_to_text

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

    The space is the rank n, a non-negative int (AlgebraError otherwise);
    the unit monomial is OreMonomial(0, 0, 0, 0).
    """

    __slots__ = ()
    n = SparseElement.space  # the space slot under its family name

    def __init__(self, n, terms=None):
        super().__init__(_check_size("rank", n), terms)

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

    def _bracket(self, other, odd):
        return _product(self, other, bracket_kernel(self.n, odd))

    def lam_coefficient(self, r):
        """The element multiplying L^r (returned with the L factor removed)."""
        out = {m._replace(lam=0): c for m, c in self.terms.items() if m.lam == r}
        return OreElement.raw(self.n, out)

    def monomials(self):
        return sorted(self.terms, key=_monomial_sort_key)

    def __str__(self):
        return element_to_text(self)

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
    return OreElement(n)


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
    full = (1 << (2 * _check_size("rank", n) + 1)) - 1
    return OreElement.raw(n, {OreMonomial(full, 0, 0, 1): i_power(n)})


def ore_generators(n):
    """[w_1, ..., w_{2n+1}, E+, E-] (the central L is not included)."""
    bose = [ore_e_plus(n), ore_e_minus(n)]  # built first, so the rank is checked first
    return [ore_fermi(n, i) for i in range(1, 2 * n + 2)] + bose


# -- the product ------------------------------------------------------------------


# An entry of `_lower_past_powers` holds the whole normal form of
# E-^beta E+^gamma; the benchmark's deform workload needs about 21 of them,
# the largest at (60, 60).  Its size grows with min(beta, gamma) squared, so
# only pairs with min(beta, gamma) <= `_LOWER_PAST_POWERS_STEPS` are cached:
# the largest such entry retains 0.2 MB (tracemalloc, at (64, 100000); 0.7 MB
# at (120, 120)), so the cache holds at most about 52 MB.
_LOWER_PAST_POWERS_CACHE = 256
_LOWER_PAST_POWERS_STEPS = 64


@lru_cache(maxsize=_LOWER_PAST_POWERS_CACHE)
def _lower_past_powers(beta, gamma):
    """Normal form of E-^beta E+^gamma as (den, plain, ghost), den =
    4^min(beta, gamma): (num, a, b, extra) in plain is (num/den) E+^a E-^b
    L^extra, and in ghost (num/den) E+^a ghost E-^b L^extra, each sorted by
    (a, b, extra); the ghost is kept abstract so the kernel is independent
    of the rank.

    The shorter block is multiplied in one generator at a time.  For
    beta <= gamma each step puts one E- in front of E+^gamma,

        E- E+^a = E+^a E- + (a/4) E+^{a-1} - [a odd] E+^{a-1} ghost,

    and otherwise each step puts one E+ after E-^beta,

        E-^b E+ = E+ E-^b + (b/4) E-^{b-1} - [b odd] ghost E-^{b-1};

    the new generator passes the ghost with a sign, and ghost^2 = L^2.  The
    two rules are mirror images: with k the exponent being lowered and j the
    other one, both send (k, j) to (k, j + 1) and (k - 1, j), so one loop
    serves both.  k - j drops by one per step, so j is left out of the state
    and recovered at the end.

    Let steps = min(beta, gamma) and top = max(beta, gamma).  A step sends a
    term at k to at most three: it stays (sign -1 if it carries the ghost),
    it moves to k - 1 with weight k/4, or it moves to k - 1 through the
    ghost with weight -1, which toggles eps and, from eps = 1, raises extra
    by 2.  A term at (k, eps, extra) has made extra + eps ghost moves, so
    top - k - extra - eps of its moves were the k/4 kind: its coefficient
    is an int numerator over 4^(top - k - extra - eps), and on numerators
    the three moves have weights +-1, k and -1, so no step divides.

    A state (k, eps) is a polynomial in L^2, stored as one int that packs
    the numerators of L^0, L^2, L^4, ... into W-bit signed slots: the int
    is P(2^W) for the polynomial P.  Every move is linear with integer
    weights, so it is the same move on the packed ints: adding states is
    adding ints, the weight k is a small-int product, and ghost^2 = L^2 is
    a shift by one slot.  The states live in two lists indexed by k, one
    per eps, updated in place in increasing k (state k reads the old states
    k and k + 1).  Step s touches only the s + 1 states k >= top - s, so
    the kernel makes O(steps^2) <= O(steps * top) big-int additions, shifts
    and small-int products in all, on ints of O(steps^2 log top) bits.

    Width.  Evaluation at 2^W is a ring map, so the packed ints are exact
    whatever the slots hold on the way; only the final slots must be
    readable.  A new numerator is a sum of at most three old ones with
    weights 1, k + 1 <= top and 1, so the largest grows by a factor at most
    top + 2 per step and ends at most (top + 2)^steps, which is below
    2^(steps * bitlen(top + 2)) once steps >= 1.  W is that exponent plus 1,
    rounded up to whole bytes (so W >= 8), and every final slot lies
    strictly inside (-2^(W-1), 2^(W-1)).  A packed int whose top nonzero
    slot is t then has more than 2^(W*t - 1) and less than 2^(W*(t+1) - 1)
    in absolute value, so its bitlen // W + 1 lowest slots hold it.  Adding
    2^(W-1) to each of them makes every slot an unsigned W-bit field, and
    one `to_bytes` gives them all.  A slot's numerator is over
    4^(top - k - extra - eps), so it goes over 4^steps by a left shift.
    """
    steps, top = min(beta, gamma), max(beta, gamma)
    width = -(-(steps * (top + 2).bit_length() + 1) // 8)  # bytes per slot
    w = 8 * width
    half = 1 << (w - 1)
    even, odd = [0] * (top + 1), [0] * (top + 1)  # eps = 0 and eps = 1, by k
    even[top] = 1
    for low in range(top - 1, top - steps - 1, -1):
        for k in range(low, top):
            up = k + 1
            e, o = even[up], odd[up]
            if up & 1:
                even[k], odd[k] = even[k] + up * e - (o << w), up * o - odd[k] - e
            else:
                even[k], odd[k] = even[k] + up * e, up * o - odd[k]
        odd[top] = -odd[top]
    # 2^(W-1) in each slot; extra <= steps, so steps // 2 + 1 slots hold a state
    slots = steps // 2 + 1
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    shift = top - steps
    plain, ghost = [], []
    for k in range(shift, top + 1):
        a, b = (k, k - shift) if beta <= gamma else (k - shift, k)
        for eps, packed, out in ((0, even[k], plain), (1, odd[k], ghost)):
            if not packed:
                continue
            n = packed.bit_length() // w + 1  # the slots it reaches
            fields = (packed + (bias >> (w * (slots - n)))).to_bytes(n * width, "little")
            lift = 2 * (steps - top + k + eps)  # from 4^(top - k - eps) to 4^steps
            for slot in range(n):
                num = int.from_bytes(fields[slot * width : (slot + 1) * width], "little") - half
                if num:
                    out.append((num << lift, a, b, 2 * slot))
                lift += 4
    return 1 << (2 * steps), tuple(plain), tuple(ghost)


_lower_uncached = _lower_past_powers.__wrapped__


def pair_kernel(n):
    """The rank-n pair kernel of `sparse.pair_product`: (m1, m2) -> (den,
    groups), one group without the ghost and one with it and its i^n."""
    full = (1 << (2 * n + 1)) - 1
    # the ghost's coefficient i^n is (-1)^(n // 2), times i for odd n
    ghost_neg, ghost_i = (n >> 1) & 1, n & 1

    def pair(m1, m2):
        par, mask = _cliff_pair(m1.cliff, m2.cliff)
        neg = par ^ ((m1.e_plus + m1.e_minus) & m2.cliff.bit_count() & 1)
        e_plus, e_minus, lam = m1.e_plus, m2.e_minus, m1.lam + m2.lam
        beta, gamma = m1.e_minus, m2.e_plus
        lower = _lower_past_powers if min(beta, gamma) <= _LOWER_PAST_POWERS_STEPS else _lower_uncached
        den, plain, ghost = lower(beta, gamma)
        keys = [
            (num, _tuple_new(OreMonomial, (mask, e_plus + a, b + e_minus, lam + extra)))
            for num, a, b, extra in plain
        ]
        groups = [(-1 if neg else 1, 0, keys)]
        if ghost:
            # ghost = i^n w_full L anticommutes with each E+ on its way to the
            # front, then pairs into the Fermi word: only (-1)^a varies
            gpar, gmask = _cliff_pair(mask, full)
            g = -1 if neg ^ gpar ^ (e_plus & 1) ^ ghost_neg else 1
            keys = [
                (-u if a & 1 else u, _tuple_new(OreMonomial, (gmask, e_plus + a, b + e_minus, lam + extra + 1)))
                for u, a, b, extra in ghost
            ]
            groups.append((0, g, keys) if ghost_i else (g, 0, keys))
        return den, groups

    return pair


def bracket_kernel(n, odd):
    """The kernel of m1*m2 - sigma m2*m1, sigma = -1 where odd(m1, m2): both
    orders' groups over the lcm of their denominators, the second's times -sigma."""
    plain = pair_kernel(n)

    def pair(m1, m2):
        (d1, g1), (d2, g2) = plain(m1, m2), plain(m2, m1)
        den = max(d1, d2)  # their lcm: both are powers of 4
        f1, f2 = den // d1, den // d2 if odd(m1, m2) else -den // d2
        return den, [(fr * f1, fi * f1, t) for fr, fi, t in g1] + [(fr * f2, fi * f2, t) for fr, fi, t in g2]

    return pair


def _product(x, y, pair):
    x._check_space(y)
    return OreElement.raw(x.n, from_numerators(pair_product(x.terms.items(), y.terms.items(), pair)))


def ore_product(x, y):
    return _product(x, y, pair_kernel(x.n))


# -- specialization ----------------------------------------------------------------


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
