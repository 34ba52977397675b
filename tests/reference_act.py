"""Reference module action: the library's earlier token-by-token `act`.

A monomial is rewritten as star words of generators: the Fermi prefix is
already a word (ascending distinct generators multiply without
contraction), and the Bose tail comes from the whole-tuple
`reference_weyl_kernel._weyl_words`.  A word acts by applying one generator
at a time, right to left, each building a new vector.  The library's
`reps.act` instead sends each carrier monomial to its one-term image in
closed form; `test_reps.py` checks that the two agree exactly.  The words
also drive the reference transport maps, and `eval_star_word` multiplies a
word back out with the library's `star`, which `test_starprod.py` uses to
check the words.
"""

import reference_weyl_kernel as ref
from cliffordweyl.algebra import AlgebraError, bose_p, bose_q, fermi_gen, unit
from cliffordweyl.reps import _MINUS_KINDS, _ODD_KINDS, GrassPolyVector
from cliffordweyl.scalars import Scalar
from cliffordweyl.sparse import accumulate
from cliffordweyl.starprod import _parity_below, star

# Tokens are ('w', i) / ('p', j) / ('q', j), 1-based.
_GENERATORS = {"w": fermi_gen, "p": bose_p, "q": bose_q}


def to_star_words(signature, m):
    """The monomial as [(Scalar, token word)] under the star product."""
    prefix = tuple(("w", i) for i in m.cliff_indices())
    return [(c, prefix + w) for c, w in ref._weyl_words(m.wp, m.wq, signature.t_param)]


def element_star_words(e):
    """Whole element as [(Scalar, word)], duplicate words merged."""
    acc = {}
    for m, c in e.terms.items():
        for c2, w in to_star_words(e.signature, m):
            accumulate(acc, w, c * c2)
    return [(c, w) for w, c in sorted(acc.items())]


def eval_star_word(signature, word):
    """Star-multiply the generators named by a token word."""
    out = unit(signature)
    for kind, idx in word:
        out = star(out, _GENERATORS[kind](signature, idx))
    return out


def _gen_action(desc, token, v):
    """Action of one generator token on a vector."""
    kind, idx = token
    out = {}
    if kind == "w":
        odd_index = 2 * desc.ell + 1
        if desc.kind in _ODD_KINDS and idx == odd_index:
            flip = desc.kind in _MINUS_KINDS
            for (g, e), c in v.terms.items():
                neg = ((g.bit_count() + sum(e)) & 1) ^ flip
                accumulate(out, (g, e), -c if neg else c)
            return GrassPolyVector.raw(v.space, out)
        j = (idx + 1) // 2  # ladder pair index, 1-based
        bit = 1 << (j - 1)
        even = idx % 2 == 0
        for (g, e), c in v.terms.items():
            cc = -c if _parity_below(g, j - 1) else c
            if g & bit:  # P_j contributes
                accumulate(out, (g ^ bit, e), cc * Scalar.of(0, -1) if even else cc)
            else:  # Q_j contributes
                accumulate(out, (g | bit, e), cc * Scalar.of(0, 1) if even else cc)
        return GrassPolyVector.raw(v.space, out)

    j = idx - 1
    if kind == "p":
        for (g, e), c in v.terms.items():
            if not e[j]:
                continue
            cc = c * Scalar.of(e[j])
            if g.bit_count() & 1:
                cc = -cc
            e2 = tuple(x - 1 if t == j else x for t, x in enumerate(e))
            accumulate(out, (g, e2), cc)
        return GrassPolyVector.raw(v.space, out)
    if kind == "q":
        for (g, e), c in v.terms.items():
            cc = -c if g.bit_count() & 1 else c
            e2 = tuple(x + 1 if t == j else x for t, x in enumerate(e))
            accumulate(out, (g, e2), cc)
        return GrassPolyVector.raw(v.space, out)
    raise ValueError("unknown token %r" % (token,))


def act(desc, a, v):
    """Apply a to v: each star word acts by composing generator actions right to left."""
    if a.signature != desc.signature():
        raise AlgebraError(
            "element signature %r does not match representation %r" % (a.signature, desc)
        )
    if v.space != (desc.ell, desc.k):
        raise AlgebraError("vector carrier mismatch for %r" % (desc,))
    total = GrassPolyVector.raw(v.space, {})
    for c, word in element_star_words(a):
        cur = v
        for tok in reversed(word):
            cur = _gen_action(desc, tok, cur)
            if not cur:
                break
        total = total + cur.scale(c)
    return total
