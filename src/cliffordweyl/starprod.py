"""Star products, Poisson brackets, graded brackets and trace functionals.

All products are computed per monomial pair by closed-form terminating
kernels (the bidifferential series collapses to finite sums of falling
factorials on monomials), so every result is exact.

Sign conventions (fixed once, here):

* Fermi-generator order w1 < w2 < ... ; every Koszul sign is an inversion
  count against this order.
* The pair-contraction operator on the Fermi factor is a graded operator
  tensor: applying (d_i (x) d_i) to X (x) Y picks up (-1)^{deg X} before the
  two odd derivations act, and d_i itself contributes (-1)^{#{j in X : j < i}}.
  This normalization is pinned by w_i * w_i = 1.
* Crossing a Bose symbol past a Fermi symbol costs a sign: combining
  (X (x) F) with (Y (x) G) carries (-1)^{deg F * deg Y}.

The Bose-factor kernel, with t the signature's deformation parameter:

    p^A q^B * p^C q^D  =  sum over r,s >= 0 of
        (t/2)^{|r|+|s|} (-1)^{|s|} / (r! s!)
        * fall(A,r) fall(B,s) fall(D,r) fall(C,s)
        * p^{A-r+C-s} q^{B-s+D-r}

and the Fermi-factor kernel contracts exactly the common index set T = I & J
(any smaller contraction leaves a repeated generator, killed by the exterior
product), giving a single term sign * (-t)^{|T|} * w^{I xor J}.

When t is free of L, the Bose kernel carries each term's full coefficient
rational * (t/2)^{|r|+|s|} as one Gaussian rational, and `star` applies the
Fermi factor sign * (-t)^{|T|} once per monomial pair.

The pairs (p_j, q_j) commute with each other, so the Weyl algebra on k
pairs is the k-fold tensor power of the one-mode algebra A_1, and every
factor of the Bose kernel above factors per mode.  `_mode_pair` caches the
one-mode kernel p^a q^b * p^c q^d with integer numerators and
denominators, free of t; `_weyl_pair` takes the product of the k one-mode
lists and keeps the combined terms in a bounded cache.  Star words factor
the same way: in one mode

    p^a q^b  =  sum over r of (t/2)^r C(b,r) perm(a,r) (q^{b-r} * p^{a-r}),

and a k-mode monomial's words are the products of its modes' words.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache
from itertools import product as iproduct
from operator import itemgetter

from .algebra import AlgebraError, CwElement, CwMonomial, check_same_signature
from .scalars import GR_HALF, GR_ONE, GaussianRational, Scalar, S_ONE, S_HALF, convolve, gr_ratio
from .sparse import accumulate


class ProductKind(enum.Enum):
    WEDGE = "wedge"  # t = 0 super-exterior product
    STAR = "star"  # t = signature.t_param


def _parity_below(mask, i):
    """Number of set bits of `mask` strictly below bit i, mod 2."""
    return (mask & ((1 << i) - 1)).bit_count() & 1


def _shuffle_parity(left, right):
    """Parity of the permutation merging w^left then w^right into w^(left|right).

    Assumes the bitsets are disjoint; counts pairs (a in left, b in right)
    with a > b.
    """
    par = 0
    m = right
    while m:
        b = (m & -m).bit_length() - 1
        par ^= (left >> (b + 1)).bit_count() & 1
        m &= m - 1
    return par


# Bounds of the kernel caches, in entries.  A run's working set is the set
# of its distinct monomial pairs: the benchmark's warm cw suites reuse 2,106
# Bose and 173 Fermi pairs, and six cold products on cw:4,4, cw:2,6 and
# cw:0,8 need 3,666 Bose pairs.  A combined Bose entry takes about 3 KB;
# past a bound it is rebuilt from the one-mode kernel.  An entry of
# `ore._lower_past_powers` holds the whole normal form of E-^beta E+^gamma;
# the benchmark's deform workload needs about 21 of them.  `_mode_pair` and
# the one-mode star words are keyed by one mode's exponents, so they grow
# with the largest exponent in use.
_WEYL_PAIR_CACHE = 4096
_MODE_PAIR_CACHE = 4096
_WEYL_WORD_CACHE = 4096
_CLIFF_PAIR_CACHE = 4096
_LOWER_PAST_POWERS_CACHE = 256


@lru_cache(maxsize=_CLIFF_PAIR_CACHE)
def _cliff_pair(I, J):
    """Fermi kernel: w^I * w^J = sign * (-t)^tcount * w^mask.

    Returns (sign, tcount, mask); sign is +-1 and tcount = |I & J|.
    """
    KL, KR = I, J
    par = 0
    m = I & J
    while m:
        i = (m & -m).bit_length() - 1
        par ^= KL.bit_count() & 1  # graded operator tensor
        par ^= _parity_below(KL, i)  # d_i on the left factor
        KL ^= 1 << i
        par ^= _parity_below(KR, i)  # d_i on the right factor
        KR ^= 1 << i
        m &= m - 1
    par ^= _shuffle_parity(KL, KR)
    return (-1 if par else 1), (I & J).bit_count(), KL | KR


@lru_cache(maxsize=_MODE_PAIR_CACHE)
def _mode_pair(a, b, c, d):
    """One-mode Bose kernel p^a q^b * p^c q^d, free of t.

    A tuple of (order, num, den, P, Q): the term (t/2)^order (num/den) p^P q^Q.
    The (r, s) terms of one order m = r + s all give p^(a+c-m) q^(b+d-m), so
    they are summed over the common denominator m!; orders whose sum
    cancels (pq * pq at m = 1, say) are left out.
    """
    out = []
    for m in range(min(a, d) + min(b, c) + 1):
        num = 0
        for r in range(max(0, m - min(b, c)), min(m, a, d) + 1):
            s = m - r
            term = math.comb(m, r) * math.perm(a, r) * math.perm(d, r)
            term *= math.perm(b, s) * math.perm(c, s)
            num += -term if s & 1 else term
        if num:
            den = math.factorial(m)
            g = math.gcd(num, den)
            out.append((m, num // g, den // g, a + c - m, b + d - m))
    return tuple(out)


@lru_cache(maxsize=64, typed=True)
def _half_t_powers(t):
    """The lazily extended table of (t/2)^n, for a GaussianRational or a Scalar t.

    typed, because a constant Scalar equals and hashes like its Gaussian
    rational, and the two tables hold different types.
    """
    if isinstance(t, Scalar):
        return _Powers(t * S_HALF)
    return _Powers(t * GR_HALF, GR_ONE)


@lru_cache(maxsize=_WEYL_PAIR_CACHE)
def _weyl_pair(A, B, C, D, t):
    """Bose kernel at an L-free t as a tuple of (order, coeff, P, Q) quadruples.

    The canonical pairs (p_j, q_j) commute with each other, so the Weyl
    algebra on k pairs is the k-fold tensor power of the one-mode algebra,
    and the kernel is the product over modes of `_mode_pair`: a term picks
    one term per mode, its order, numerator and denominator are the sum and
    the products of theirs, and its exponents are theirs side by side.
    order is |r|+|s| and coeff is the full Gaussian-rational coefficient
    rational * (t/2)^order of p^P q^Q.  At t = 2 the factor (t/2)^order is 1,
    so coeff is the bare rational.  Terms with a zero coefficient (t = 0,
    order > 0) are left out.  The one-mode orders fix the exponents, so no
    two terms share a monomial.
    """
    if not A:
        return ((0, GR_ONE, (), ()),)
    half_t = _half_t_powers(t)
    out = []
    for terms in iproduct(*map(_mode_pair, A, B, C, D)):
        orders, nums, dens, P, Q = zip(*terms)
        order = sum(orders)
        coeff = half_t[order] * gr_ratio(math.prod(nums), math.prod(dens))
        if coeff:
            out.append((order, coeff, P, Q))
    return tuple(out)


_GR_TWO = GaussianRational(2)


class _Powers:
    """Lazily extended power table for a Scalar or GaussianRational base."""

    def __init__(self, base, one=S_ONE):
        self.base = base
        self.table = [one]

    def __getitem__(self, n):
        while len(self.table) <= n:
            self.table.append(self.table[-1] * self.base)
        return self.table[n]


def star(a, b):
    """Associative star product at the signature's deformation parameter."""
    check_same_signature(a, b)
    t = a.signature.t_param
    if t.lam_degree() > 0:
        return _star_lambda(a, b, t)
    tg = t.lam_coefficient(0)
    neg_t = _Powers(-tg, GR_ONE)
    out = {}
    for m1, c1 in a.terms.items():
        bose1 = m1.bose_degree() & 1
        for m2, c2 in b.terms.items():
            csign, tcount, cmask = _cliff_pair(m1.cliff, m2.cliff)
            if bose1 and m2.cliff.bit_count() & 1:
                csign = -csign
            fermi = neg_t[tcount]
            if not fermi:
                continue
            if csign < 0:
                fermi = -fermi
            # c1 * c2 on the term maps, without a Scalar per pair
            base = [(k, v * fermi) for k, v in convolve(c1.terms, c2.terms).items()]
            # out maps a monomial to the {L power: coefficient} map of its Scalar
            for _, coeff, P, Q in _weyl_pair(m1.wp, m1.wq, m2.wp, m2.wq, tg):
                key = CwMonomial(cmask, P, Q)
                acc = out.get(key)
                if acc is None:
                    out[key] = {k: v * coeff for k, v in base}
                    continue
                # sparse.accumulate, inlined: this loop is the product's hot path
                for k, v in base:
                    c = v * coeff
                    s = acc.get(k)
                    if s is None:
                        acc[k] = c
                    else:
                        s = s + c
                        if s:
                            acc[k] = s
                        else:
                            del acc[k]
                if not acc:
                    del out[key]
    raw = Scalar.raw
    return CwElement.raw(a.signature, {m: raw(None, c) for m, c in out.items()})


def _star_lambda(a, b, t):
    """star at a t that involves L: the Bose kernel's rationals times Scalar powers."""
    half_t = _half_t_powers(t)
    neg_t = _Powers(-t)
    out = {}
    for m1, c1 in a.terms.items():
        bose1 = m1.bose_degree() & 1
        for m2, c2 in b.terms.items():
            csign, tcount, cmask = _cliff_pair(m1.cliff, m2.cliff)
            if bose1 and m2.cliff.bit_count() & 1:
                csign = -csign
            base = c1 * c2 * neg_t[tcount]
            if csign < 0:
                base = -base
            for order, frac, P, Q in _weyl_pair(m1.wp, m1.wq, m2.wp, m2.wq, _GR_TWO):
                accumulate(out, CwMonomial(cmask, P, Q), base * half_t[order] * frac)
    return CwElement.raw(a.signature, out)


def wedge(a, b):
    """Super-exterior product (the t = 0 degeneration of star)."""
    check_same_signature(a, b)
    out = {}
    for m1, c1 in a.terms.items():
        bose1 = m1.bose_degree() & 1
        for m2, c2 in b.terms.items():
            if m1.cliff & m2.cliff:
                continue
            par = _shuffle_parity(m1.cliff, m2.cliff)
            if bose1 and m2.cliff.bit_count() & 1:
                par ^= 1
            coeff = c1 * c2
            if par:
                coeff = -coeff
            key = CwMonomial(
                m1.cliff | m2.cliff,
                tuple(x + y for x, y in zip(m1.wp, m2.wp)),
                tuple(x + y for x, y in zip(m1.wq, m2.wq)),
            )
            accumulate(out, key, coeff)
    return CwElement.raw(a.signature, out)


def product(kind, a, b):
    if kind is ProductKind.WEDGE:
        return wedge(a, b)
    if kind is ProductKind.STAR:
        return star(a, b)
    raise ValueError("unknown product kind %r" % (kind,))


def poisson(a, b):
    """Graded Poisson bracket of symbols.

    On monomial pairs (w^I F) x (w^J G) it is

        (-1)^{deg F * deg w^J} ( {w^I, w^J} F G  +  (w^I ^ w^J) {F, G} )

    with the Fermi part {X, Y} = 2 (-1)^{deg X + 1} sum_i d_i X ^ d_i Y and
    the Bose part {F, G} = sum_j (dF/dp_j dG/dq_j - dF/dq_j dG/dp_j).
    General elements are expanded bilinearly over monomials, which realizes
    the homogeneous-split convention.
    """
    check_same_signature(a, b)
    k = a.signature.n_bose
    out = {}

    for m1, c1 in a.terms.items():
        I = m1.cliff
        degI = I.bit_count()
        bose1 = m1.bose_degree() & 1
        for m2, c2 in b.terms.items():
            J = m2.cliff
            coeff = c1 * c2
            if bose1 and J.bit_count() & 1:
                coeff = -coeff
            # Fermi bracket term: contracts one common index.
            common = I & J
            if common:
                fsign = 2 if degI & 1 else -2
                m = common
                while m:
                    i = (m & -m).bit_length() - 1
                    m &= m - 1
                    Ii, Ji = I ^ (1 << i), J ^ (1 << i)
                    if Ii & Ji:
                        continue
                    par = _parity_below(I, i) ^ _parity_below(J, i)
                    par ^= _shuffle_parity(Ii, Ji)
                    c = coeff * (fsign if not par else -fsign)
                    P = tuple(x + y for x, y in zip(m1.wp, m2.wp))
                    Q = tuple(x + y for x, y in zip(m1.wq, m2.wq))
                    accumulate(out, CwMonomial(Ii | Ji, P, Q), c)
            # Bose bracket term: needs the Fermi parts to wedge.
            if not (I & J):
                par = _shuffle_parity(I, J)
                base = -coeff if par else coeff
                for j in range(k):
                    f = m1.wp[j] * m2.wq[j] - m1.wq[j] * m2.wp[j]
                    if not f:
                        continue
                    P = tuple(
                        m1.wp[x] + m2.wp[x] - (1 if x == j else 0) for x in range(k)
                    )
                    Q = tuple(
                        m1.wq[x] + m2.wq[x] - (1 if x == j else 0) for x in range(k)
                    )
                    accumulate(out, CwMonomial(I | J, P, Q), base * f)
    return CwElement.raw(a.signature, out)


def lie_bracket(a, b):
    """Plain star commutator a*b - b*a."""
    return star(a, b) - star(b, a)


def anti_bracket(a, b):
    """Star anticommutator a*b + b*a (the degree-(1,0) presentation pairing)."""
    return star(a, b) + star(b, a)


def super_bracket(a, b):
    """Bracket graded by the Bose parity (second Z2 degree).

    On homogeneous arguments: a*b - (-1)^{d2(a) d2(b)} b*a; general arguments
    are split into Bose-parity-homogeneous parts and combined bilinearly.
    Note this grading makes the bracket of two Fermi generators a commutator;
    the anticommutator pairing of the presentation is `anti_bracket`.
    """
    check_same_signature(a, b)
    pa = a.homogeneous_parts(lambda m: m.bose_degree() & 1)
    pb = b.homogeneous_parts(lambda m: m.bose_degree() & 1)
    out = None
    for da, xa in pa.items():
        for db, xb in pb.items():
            term = anti_bracket(xa, xb) if da and db else star(xa, xb) - star(xb, xa)
            out = term if out is None else out + term
    if out is None:
        from .algebra import zero

        return zero(a.signature)
    return out


def supertrace_weyl(a):
    """Supertrace of a purely bosonic element: its value at 0."""
    if a.signature.n_fermi != 0:
        raise AlgebraError("supertrace_weyl needs a signature with no Fermi generators")
    return a.constant_term()


def trace_clifford(a):
    """Normalized trace on a purely fermionic algebra with 2m generators."""
    sig = a.signature
    if sig.n_bose != 0 or sig.n_fermi % 2 != 0:
        raise AlgebraError("trace_clifford needs a Bose-free signature with evenly many Fermi generators")
    return a.constant_term() * Scalar.of(2 ** (sig.n_fermi // 2))


# -- ordered star words -------------------------------------------------------
#
# Every basis monomial can be rewritten as an exact combination of star
# products of generators; this is what lets symbols act through
# representations and transport through homomorphisms defined on generators.
# Tokens are ('w', i) / ('p', j) / ('q', j), 1-based.

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


def _weyl_words(A, B, t):
    """p^A q^B as [(Scalar, word)] with word a tuple of ('p'/'q', j) tokens.

    The modes commute, so the word list is the product over modes of the
    one-mode closed form in `_mode_words`: one term per choice of r_j, with
    coefficient (t/2)^|r| * prod_j C(B_j, r_j) perm(A_j, r_j) and word
    q_1^(B_1-r_1) ... q_k^(B_k-r_k) p_1^(A_1-r_1) ... p_k^(A_k-r_k).  Distinct
    choices give distinct words, and the list is sorted by word.  At t = 0
    only the r = 0 term is left.
    """
    if not A:
        return [(S_ONE, ())]
    half_t = _half_t_powers(t)
    qs = [("q", j + 1) for j in range(len(A))]
    ps = [("p", j + 1) for j in range(len(A))]
    out = []
    for terms in iproduct(*map(_mode_words, A, B)):
        orders, nums, nq, np_ = zip(*terms)
        c = half_t[sum(orders)]
        if not c:
            continue
        n = math.prod(nums)
        if n != 1:
            c = c * Scalar.of(n)
        word = ()
        for tok, e in zip(qs, nq):
            word += (tok,) * e
        for tok, e in zip(ps, np_):
            word += (tok,) * e
        out.append((c, word))
    out.sort(key=itemgetter(1))
    return out


def to_star_words(signature, m):
    """Rewrite the monomial as [(Scalar, token word)] under the star product.

    The Fermi prefix is already a star word (ascending distinct generators
    multiply without contraction); the Bose tail is `_weyl_words` at the
    signature's deformation parameter.
    """
    prefix = tuple(("w", i) for i in m.cliff_indices())
    return [
        (c, prefix + w) for c, w in _weyl_words(m.wp, m.wq, signature.t_param)
    ]


def element_star_words(e):
    """Whole element as [(Scalar, word)], duplicate words merged."""
    acc = {}
    for m, c in e.terms.items():
        for c2, w in to_star_words(e.signature, m):
            accumulate(acc, w, c * c2)
    return [(c, w) for w, c in sorted(acc.items())]


def generator_element(signature, token):
    """The CwElement for one star-word token."""
    from .algebra import bose_p, bose_q, fermi_gen

    kind, idx = token
    if kind == "w":
        return fermi_gen(signature, idx)
    if kind == "p":
        return bose_p(signature, idx)
    if kind == "q":
        return bose_q(signature, idx)
    raise ValueError("unknown token %r" % (token,))


def eval_star_word(signature, word):
    """Star-multiply the generators named by a token word."""
    from .algebra import unit

    out = unit(signature)
    for tok in word:
        out = star(out, generator_element(signature, tok))
    return out
