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
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache
from itertools import product as iproduct

from .algebra import AlgebraError, CwElement, CwMonomial, check_same_signature
from .scalars import GR_HALF, GR_ONE, GaussianRational, Scalar, S_ONE, S_HALF, _raw_scalar, gr_ratio
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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _weyl_pair(A, B, C, D, t):
    """Bose kernel at an L-free t as a tuple of (order, coeff, P, Q) quadruples.

    order is |r|+|s| and coeff is the full Gaussian-rational coefficient
    rational * (t/2)^order of p^P q^Q.  At t = 2 the factor (t/2)^order is 1,
    so coeff is the bare rational.  Terms with a zero coefficient (t = 0,
    order > 0) are left out.
    """
    half_t = _Powers(t * GR_HALF, GR_ONE)
    out = []
    k = len(A)
    r_ranges = [range(min(A[i], D[i]) + 1) for i in range(k)]
    s_ranges = [range(min(B[i], C[i]) + 1) for i in range(k)]
    for r in iproduct(*r_ranges):
        num_r, den_r = 1, 1
        for i in range(k):
            num_r *= math.perm(A[i], r[i]) * math.perm(D[i], r[i])
            den_r *= math.factorial(r[i])
        for s in iproduct(*s_ranges):
            num = num_r if sum(s) % 2 == 0 else -num_r
            den = den_r
            for i in range(k):
                num *= math.perm(B[i], s[i]) * math.perm(C[i], s[i])
                den *= math.factorial(s[i])
            order = sum(r) + sum(s)
            coeff = half_t[order] * gr_ratio(num, den)
            if not coeff:
                continue
            P = tuple(A[i] - r[i] + C[i] - s[i] for i in range(k))
            Q = tuple(B[i] - s[i] + D[i] - r[i] for i in range(k))
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
            base = [(k, v * fermi) for k, v in (c1 * c2).coeffs.items()]
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
    return CwElement.raw(a.signature, {m: _raw_scalar(c) for m, c in out.items()})


def _star_lambda(a, b, t):
    """star at a t that involves L: the Bose kernel's rationals times Scalar powers."""
    half_t = _Powers(t * S_HALF)
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


def _weyl_words(A, B, t):
    """p^A q^B as [(Scalar, word)] with word a tuple of ('p'/'q', j) tokens.

    Strips q factors from the left: q_j F = q_j * F + (t/2) dF/dp_j, and a
    pure p monomial is already the star word of its factors.  The stripping
    runs on an explicit stack rather than by recursion, so q_j^1500 needs no
    deep call chain; a monomial is finished only once the monomials it
    needs are cached, so the cache fills in depth-first order.
    """
    root = (A, B, t)
    stack = [root]
    while stack:
        key = stack[-1]
        if key in _weyl_word_cache:
            stack.pop()
            continue
        A, B, _ = key
        if not any(B):
            word = []
            for j, e in enumerate(A):
                word.extend([("p", j + 1)] * e)
            _weyl_word_cache[key] = [(S_ONE, tuple(word))]
            stack.pop()
            continue
        j = next(i for i, e in enumerate(B) if e)
        B1 = tuple(e - (1 if x == j else 0) for x, e in enumerate(B))
        needs = [(A, B1, t)]
        if A[j]:
            A1 = tuple(e - (1 if x == j else 0) for x, e in enumerate(A))
            needs.append((A1, B1, t))
        missing = next((k for k in needs if k not in _weyl_word_cache), None)
        if missing is not None:
            stack.append(missing)
            continue
        res_map = {}
        for c, w in _weyl_word_cache[needs[0]]:
            res_map[(("q", j + 1),) + w] = c
        if A[j]:
            corr = t * S_HALF * Scalar.of(A[j])
            for c, w in _weyl_word_cache[needs[1]]:
                accumulate(res_map, w, c * corr)
        res = sorted(res_map.items(), key=lambda kv: kv[0])
        _weyl_word_cache[key] = [(c, w) for w, c in res]
        stack.pop()
    return _weyl_word_cache[root]


def to_star_words(signature, m):
    """Rewrite the monomial as [(Scalar, token word)] under the star product.

    The Fermi prefix is already a star word (ascending distinct generators
    multiply without contraction); the Bose tail uses the q-stripping
    recursion at the signature's deformation parameter.
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
