"""Star products, Poisson brackets, graded brackets and trace functionals.

All products are computed per monomial pair by closed-form terminating
kernels (the bidifferential series collapses to finite sums of falling
factorials on monomials), so every result is exact.

The Fermi-generator order is w1 < w2 < ... , and the Fermi kernel is an
inversion count against it:

    w^I * w^J  =  (-1)^N t^{|I & J|} w^{I xor J},

with N the number of pairs i in I, j in J with i > j: each w_j of J moves
left past the larger generators of I, and w_j * w_j = t.  Crossing a Bose
symbol past a Fermi symbol costs a sign: combining (X (x) F) with
(Y (x) G) carries (-1)^{deg F * deg Y}.

The Bose-factor kernel, with t the signature's deformation parameter:

    p^A q^B * p^C q^D  =  sum over r,s >= 0 of
        (t/2)^{|r|+|s|} (-1)^{|s|} / (r! s!)
        * fall(A,r) fall(B,s) fall(D,r) fall(C,s)
        * p^{A-r+C-s} q^{B-s+D-r}

Each power of t in either kernel lowers the Z-degree by 2: a Bose term of
order |r|+|s| takes 2(|r|+|s|) from it and brings (t/2)^{|r|+|s|}, and the
Fermi kernel takes 2|I & J| and brings t^{|I & J|}.  So
f * g = sum over e of t^e B_e(f, g), with B_e lowering the degree by 2e;
B_0 is the super-exterior product and B_1 half the Poisson bracket.  So
the pair kernel at t is the one at t = 1 with each term m scaled by t^e,
e = |I & J| + |r| + |s|; `star` at every t runs `sparse.pair_product` with
it, and `wedge` and `poisson` with its e = 0 terms and its e = 1 terms,
doubled.  At t = 1 a pair gives one `sparse.pair_product` group: the cached
Bose kernel's own terms (num, (P, Q)), all or some orders', in the bucket
(Fermi mask, L power); `_monomial` builds each output CwMonomial once.

Swapping the factors signs the terms: for m1 = w^I p^A q^B and m2 = w^J
p^C q^D, a term of m2 * m1 is the one of m1 * m2 times rho (-1)^r, r its
Bose order (as in the Moyal bracket) and rho = (-1)^(|J||A+B| + |I||C+D| +
|I||J| - |I & J|).  So m1*m2 - sigma m2*m1 is the terms with sigma rho
(-1)^r = -1, doubled: `bracket` is one pass of that parity filter.

The pairs (p_j, q_j) commute with each other, so the Weyl algebra on k
pairs is the k-fold tensor power of the one-mode algebra A_1, and every
factor of the Bose kernel above factors per mode.  `_mode_pair` caches the
one-mode kernel p^a q^b * p^c q^d as integer numerators over M! 2^M, free
of t; `_weyl_pair` takes the product of the k one-mode lists at t = 1 and
keeps it in a bounded cache.  One mode's monomial is also a short sum of
q-before-p products,

    p^a q^b  =  sum over r of (t/2)^r C(b,r) perm(a,r) (q^{b-r} * p^{a-r}),

which `_mode_words` gives in closed form; `reps.act` reads a module action
off it one mode at a time.
"""

from __future__ import annotations

import math
from itertools import product as iproduct

from .algebra import AlgebraError, CwElement, CwMonomial
from .scalars import S_ONE, join_numerators, split_powers
from .sparse import anti_bracket, kernel, lie_bracket, pair_product, super_bracket


def _parity_below(mask, i):
    """Number of set bits of `mask` strictly below bit i, mod 2."""
    return (mask & ((1 << i) - 1)).bit_count() & 1


def _shuffle_parity(left, right):
    """Parity of the pairs (a in left, b in right) with a > b."""
    par = 0
    m = right
    while m:
        b = (m & -m).bit_length() - 1
        par ^= (left >> (b + 1)).bit_count() & 1
        m &= m - 1
    return par


# The kernel caches, and `_mode_words`' dict, hold 4,096 entries each.  A
# run's working set is the set of its distinct monomial pairs: the
# benchmark's warm cw suites reuse 2,106 Bose and 173 Fermi pairs, and six
# cold products on cw:4,4, cw:2,6 and cw:0,8 need 3,666 Bose pairs, 4.69 MB
# by tracemalloc (3.88 MB with the earlier (order, num, P, Q) terms), about
# 1.3 KB an entry; past a bound an entry is rebuilt from the one-mode
# kernel.  `_mode_pair` and `_mode_words` are keyed by one mode's
# exponents, so they grow with the largest exponent in use.
_WEYL_WORD_CACHE = 4096


@kernel(4096)
def _cliff_pair(I, J):
    """Fermi kernel at t = 1: w^I * w^J = (-1)^parity w^mask, as (parity, mask)."""
    return _shuffle_parity(I, J), I ^ J


@kernel(4096)
def _mode_pair(a, b, c, d):
    """One-mode Bose kernel p^a q^b * p^c q^d at t = 1 as (den, ((order, num,
    P, Q), ...)): the terms (num/den) p^P q^Q, which scale by t^order.

    den is M! 2^M, M = min(a, d) + min(b, c) the highest order.  The (r, s)
    terms of one order m = r + s all give p^(a+c-m) q^(b+d-m), so they are
    summed; orders whose sum cancels (pq * pq at m = 1, say) are left out.
    """
    top = min(a, d) + min(b, c)
    den = math.factorial(top) << top
    out = []
    for m in range(top + 1):
        num = 0
        for r in range(max(0, m - min(b, c)), min(m, a, d) + 1):
            s = m - r
            term = math.comb(m, r) * math.perm(a, r) * math.perm(d, r)
            term *= math.perm(b, s) * math.perm(c, s)
            num += -term if s & 1 else term
        if num:
            out.append((m, num * (den // (math.factorial(m) << m)), a + c - m, b + d - m))
    return den, tuple(out)


@kernel(4096)
def _weyl_pair(A, B, C, D):
    """Bose kernel at t = 1 as (den, ((num, (P, Q)), ...), (order, ...)), terms
    (num/den) p^P q^Q scaling by t^order, the product over modes of
    `_mode_pair`.  den and a term's numerator are the products
    of the modes', its order the sum, and its exponents theirs side by side;
    the one-mode orders fix the exponents, so no two terms share a monomial.
    """
    if not A:
        return 1, ((1, ((), ())),), (0,)
    dens, modes = zip(*map(_mode_pair, A, B, C, D))
    terms, orders = [], []
    for mode_terms in iproduct(*modes):
        order, nums, P, Q = zip(*mode_terms)
        terms.append((math.prod(nums), (P, Q)))
        orders.append(sum(order))
    return math.prod(dens), tuple(terms), tuple(orders)


_tuple_new = tuple.__new__  # a CwMonomial without the NamedTuple's Python __new__


def _monomial(mask, PQ):
    """The CwMonomial of the subkey (P, Q) in a bucket with Fermi mask `mask`."""
    return _tuple_new(CwMonomial, (mask, *PQ))


def _order_kernel(order, weight):
    """The pair kernel at t = 1 times weight: the `_weyl_pair` entry's terms,
    or with `order` those with e = order, as one group in the bucket (Fermi
    mask, L power), signed by the Fermi kernel and the Bose-Fermi crossing."""

    def pair(k1, k2):
        (m1, l1), (m2, l2) = k1, k2
        par, cmask = _cliff_pair(m1.cliff, m2.cliff)
        den, terms, orders = _weyl_pair(m1.wp, m1.wq, m2.wp, m2.wq)
        if order is not None:
            bose = order - (m1.cliff & m2.cliff).bit_count()
            terms = [term for term, r in zip(terms, orders) if r == bose]
        s = -weight if par ^ (m2.cliff.bit_count() & 1 and m1.bose_degree() & 1) else weight
        return den, ((s, 0, (cmask, l1 + l2), terms),)

    return pair


_at_one = _order_kernel(None, 1)


def _bracket_kernel(odd):
    """The kernel at t = 1 of m1*m2 - sigma m2*m1, sigma = -1 where odd(m1,
    m2): the terms of m1*m2 with sigma rho (-1)^r = -1, doubled."""

    def pair(k1, k2):
        (m1, l1), (m2, l2) = k1, k2
        (I, J), bi = (m1.cliff, m2.cliff), m1.bose_degree()
        par, cmask = _cliff_pair(I, J)
        den, terms, orders = _weyl_pair(m1.wp, m1.wq, m2.wp, m2.wq)
        # the kept r is rho's exponent + 1 + [sigma = -1], mod 2
        rho = J.bit_count() * bi + I.bit_count() * (m2.bose_degree() + J.bit_count()) + (I & J).bit_count()
        keep = (rho if odd(m1, m2) else rho + 1) & 1
        s = -2 if par ^ (J.bit_count() & bi & 1) else 2
        kept = [term for term, r in zip(terms, orders) if r & 1 == keep]
        return den, ((s, 0, (cmask, l1 + l2), kept),)

    return pair


def pair_kernel(t, at_one=_at_one):
    """The pair kernel at t from `at_one` at t = 1: each term at t = 1 takes
    t^e, spread over its L powers, one group per term and L power.  With t =
    T/dt, T a Gaussian-integer L-polynomial, a pair of degree d is over den *
    dt^top, top = d >> 1, and a term of degree deg takes T^e dt^h, h = top - e."""
    if t is S_ONE or t == S_ONE:
        return at_one
    dt = math.lcm(*[g._den for g in t.terms.values()])
    powers = [S_ONE]  # T^e

    def pair(k1, k2):
        den, ((s, _, (mask, l), terms),) = at_one(k1, k2)
        top = (k1[0].z_degree() + k2[0].z_degree()) >> 1
        while len(powers) <= top:
            powers.append(powers[-1] * t.scale(dt))
        groups, fermi = [], mask.bit_count()
        for term in terms:
            h = (fermi + sum(term[1][0]) + sum(term[1][1])) >> 1
            for j, g in powers[top - h].terms.items():
                groups.append((s * g._re * dt**h, s * g._im * dt**h, (mask, l + j), (term,)))
        return den * dt**top, groups

    return pair


def _product(a, b, pair):
    a._check_space(b)
    terms = pair_product(split_powers(a.terms), split_powers(b.terms), pair)
    return CwElement.raw(a.signature, join_numerators(terms, _monomial))


def star(a, b):
    """Associative star product at the signature's deformation parameter."""
    return _product(a, b, pair_kernel(a.signature.t_param))


def wedge(a, b):
    """Super-exterior product: the product at t = 0, the terms of order 0."""
    return _product(a, b, _order_kernel(0, 1))


def poisson(a, b):
    """Graded Poisson bracket of symbols: twice B_1, the order-one terms of
    the product, independent of the signature's deformation parameter."""
    return _product(a, b, _order_kernel(1, 2))


def bracket(a, b, odd):
    """a*b - sigma b*a over the term pairs (m1, m2), sigma = -1 where odd(m1, m2)."""
    return _product(a, b, pair_kernel(a.signature.t_param, _bracket_kernel(odd)))


def supertrace_weyl(a):
    """Supertrace of a purely bosonic element: its value at 0."""
    if not isinstance(a, CwElement) or a.signature.n_fermi != 0:
        raise AlgebraError("supertrace_weyl needs a CwElement with no Fermi generators")
    return a.constant_term()


def trace_clifford(a):
    """Normalized trace on a purely fermionic algebra with 2m generators."""
    if not isinstance(a, CwElement) or a.signature.n_bose != 0 or a.signature.n_fermi % 2 != 0:
        raise AlgebraError("trace_clifford needs a CwElement with no Bose and evenly many Fermi generators")
    return a.constant_term() * 2 ** (a.signature.n_fermi // 2)


# -- one mode's normal ordering -----------------------------------------------
#
# The closed form of p^a q^b as q-before-p products, which `reps.act` and
# `deform.iso_cw_to_a0` read term by term; its dict is not a `sparse.kernel`
# because the benchmark reads and empties `_weyl_word_cache` by name.

_weyl_word_cache = {}


def _mode_words(a, b):
    """One mode's p^a q^b in closed form, free of t.

    p^a q^b = sum over r of (t/2)^r C(b, r) perm(a, r) (q^(b-r) * p^(a-r)),
    returned as a tuple of (r, C(b, r) perm(a, r), b - r, a - r) and cached
    in `_weyl_word_cache` under (a, b); past `_WEYL_WORD_CACHE` entries the
    oldest is dropped.
    """
    key = (a, b)
    words = _weyl_word_cache.get(key)
    if words is None:
        words = tuple(
            (r, math.comb(b, r) * math.perm(a, r), b - r, a - r) for r in range(min(a, b) + 1)
        )
        if len(_weyl_word_cache) >= _WEYL_WORD_CACHE:
            del _weyl_word_cache[next(iter(_weyl_word_cache))]
        _weyl_word_cache[key] = words
    return words
