"""Reference Bose kernel, star words and products over whole k-mode tuples.

These are the library's earlier `_weyl_pair`, `_weyl_words` and `wedge`,
kept as independent oracles for `cliffordweyl.starprod`, which factors the
kernel and the words per mode and gets every t from the product at t = 1 by
the degree grading.  The kernel sums over every (r, s) pair of exponent
tuples at the given t, and the words strip one q factor at a time on an
explicit stack, caching every intermediate whole-tuple monomial, so they are
only for small exponents.  `star` multiplies term by term at the
signature's t: the whole-tuple kernel at t, and the Fermi word reduced
generator by generator with w_i w_i = t.  `wedge` is the shuffle loop of the
super-exterior product, and `poisson` the hand-written graded Poisson
bracket, which the library now reads off the pair kernel's order-one terms.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct

from cliffordweyl.algebra import CwElement, CwMonomial
from cliffordweyl.scalars import S_HALF, S_ONE, Scalar, gr_ratio
from cliffordweyl.sparse import accumulate
from cliffordweyl.starprod import _parity_below, _shuffle_parity


# typed, because a constant Scalar equals and hashes like its Gaussian
# rational, and the two give coefficients of different types
@lru_cache(maxsize=None, typed=True)
def _weyl_pair(A, B, C, D, t):
    """Bose kernel at t (a GaussianRational or a Scalar) as (order, coeff, P, Q) quadruples.

    order is |r|+|s| and coeff is the full coefficient rational * (t/2)^order
    of p^P q^Q.  Terms with a zero coefficient (t = 0, order > 0) are left
    out.
    """
    half_t = t * Fraction(1, 2)
    powers = {}
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
            if order not in powers:
                powers[order] = half_t**order
            coeff = powers[order] * gr_ratio(num, den)
            if not coeff:
                continue
            P = tuple(A[i] - r[i] + C[i] - s[i] for i in range(k))
            Q = tuple(B[i] - s[i] + D[i] - r[i] for i in range(k))
            out.append((order, coeff, P, Q))
    return tuple(out)


def _fermi_word(I, J):
    """w^I w^J as (sign, contractions, mask) with w_i w_j = -w_j w_i and w_i w_i = t.

    The word of I's generators then J's, each ascending, is sorted by
    adjacent swaps, and each adjacent equal pair is replaced by t.
    """
    word = [i for i in range(I.bit_length()) if I >> i & 1]
    word += [j for j in range(J.bit_length()) if J >> j & 1]
    sign, contractions = 1, 0
    x = 0
    while x < len(word) - 1:
        if word[x] == word[x + 1]:
            del word[x : x + 2]
            contractions += 1
            x = max(x - 1, 0)
        elif word[x] > word[x + 1]:
            word[x], word[x + 1] = word[x + 1], word[x]
            sign = -sign
            x = max(x - 1, 0)
        else:
            x += 1
    return sign, contractions, sum(1 << i for i in word)


def star(a, b):
    """a * b at the signature's t, one monomial pair and one kernel term at a time."""
    t = a.signature.t_param
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            sign, contractions, mask = _fermi_word(m1.cliff, m2.cliff)
            # crossing a Bose symbol of odd degree past an odd Fermi word
            if m1.bose_degree() & 1 and m2.cliff.bit_count() & 1:
                sign = -sign
            base = c1 * c2 * t**contractions * sign
            for _, coeff, P, Q in _weyl_pair(m1.wp, m1.wq, m2.wp, m2.wq, t):
                accumulate(out, CwMonomial(mask, P, Q), base * coeff)
    return CwElement(a.signature, out)


def wedge(a, b):
    """Super-exterior product (the t = 0 degeneration of star)."""
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
    return CwElement(a.signature, out)


def poisson(a, b):
    """Graded Poisson bracket of symbols.

    On monomial pairs (w^I F) x (w^J G) it is

        (-1)^{deg F * deg w^J} ( {w^I, w^J} F G  +  (w^I ^ w^J) {F, G} )

    with the Fermi part {X, Y} = 2 (-1)^{deg X + 1} sum_i d_i X ^ d_i Y and
    the Bose part {F, G} = sum_j (dF/dp_j dG/dq_j - dF/dq_j dG/dp_j).
    General elements are expanded bilinearly over monomials, which realizes
    the homogeneous-split convention.
    """
    a._check_space(b)
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
            P = tuple(x + y for x, y in zip(m1.wp, m2.wp))
            Q = tuple(x + y for x, y in zip(m1.wq, m2.wq))
            # Fermi bracket term: contracts one common index.
            common = I & J
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
                accumulate(out, CwMonomial(Ii | Ji, P, Q), c)
            # Bose bracket term: needs the Fermi parts to wedge.
            if not common:
                par = _shuffle_parity(I, J)
                base = -coeff if par else coeff
                for j in range(k):
                    f = m1.wp[j] * m2.wq[j] - m1.wq[j] * m2.wp[j]
                    if f:
                        Pj = P[:j] + (P[j] - 1,) + P[j + 1 :]
                        Qj = Q[:j] + (Q[j] - 1,) + Q[j + 1 :]
                        accumulate(out, CwMonomial(I | J, Pj, Qj), base * f)
    return CwElement.raw(a.signature, out)


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
