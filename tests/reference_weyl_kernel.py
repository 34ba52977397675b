"""Reference Bose kernel and star words over whole k-mode exponent tuples.

These are the library's earlier `_weyl_pair` and `_weyl_words`, kept as
independent oracles for `cliffordweyl.starprod`, which now factors both per
mode.  The kernel sums over every (r, s) pair of exponent tuples, and the
words strip one q factor at a time on an explicit stack, caching every
intermediate whole-tuple monomial, so they are only for small exponents.
"""

import math
from functools import lru_cache
from itertools import product as iproduct

from cliffordweyl.scalars import GR_HALF, GR_ONE, S_HALF, S_ONE, Scalar, gr_ratio
from cliffordweyl.sparse import accumulate
from cliffordweyl.starprod import _Powers


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
