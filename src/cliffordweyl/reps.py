"""Concrete faithful representations on Grassmann/polynomial vectors.

The carrier is the span of monomials xi^G x^E (G a Grassmann bitset of
length ell, E a polynomial multi-exponent of length k).  Generator actions:

    Fermi ladder pairs   Q_j = xi_j ^ .   P_j = d/dxi_j
    with w_{2j-1} = Q_j + P_j  and  w_{2j} = i (Q_j - P_j);
    an unpaired last generator w_{2l+1} acts as +- the parity operator
    (-1)^{total degree} (the sign picks the plus/minus module variant).

    Bose generators      p_j = (-1)^{|G|} d/dx_j   q_j = (-1)^{|G|} x_j .

The (-1)^{|G|} factor on the Bose actions makes the Fermi and Bose
generators anticommute as operators, matching the product's sign rule.
A general element acts through its star-word decomposition, so
act(a * b, v) = act(a, act(b, v)) holds exactly --- which is the independent
cross-check of the product kernels.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .algebra import AlgebraError, AlgebraSignature, fermi_gen, unit, zero
from .linalg import Matrix
from .scalars import S_HALF, S_ONE, Scalar, _coerce_scalar, scalar_i_power
from .sparse import SparseElement, accumulate
from .starprod import _parity_below, _shuffle_parity, element_star_words, star


class RepKind(enum.Enum):
    SPIN = "spin"
    SPIN_PLUS = "spin+"
    SPIN_MINUS = "spin-"
    METAPLECTIC = "metaplectic"
    SPIN_METAPLECTIC = "spin-metaplectic"
    SPIN_METAPLECTIC_PLUS = "spin-metaplectic+"
    SPIN_METAPLECTIC_MINUS = "spin-metaplectic-"


_ODD_KINDS = {RepKind.SPIN_PLUS, RepKind.SPIN_MINUS,
              RepKind.SPIN_METAPLECTIC_PLUS, RepKind.SPIN_METAPLECTIC_MINUS}
_MINUS_KINDS = {RepKind.SPIN_MINUS, RepKind.SPIN_METAPLECTIC_MINUS}
_FINITE_KINDS = {RepKind.SPIN, RepKind.SPIN_PLUS, RepKind.SPIN_MINUS}


class RepDescriptor(NamedTuple):
    kind: RepKind
    ell: int  # Grassmann variables in the carrier
    k: int  # polynomial variables in the carrier

    def signature(self):
        n = 2 * self.ell + (1 if self.kind in _ODD_KINDS else 0)
        return AlgebraSignature(n, self.k)

    def finite_dimension(self):
        if self.kind not in _FINITE_KINDS:
            raise AlgebraError("carrier of %s is infinite-dimensional" % (self.kind,))
        return 1 << self.ell


def spin(ell):
    return RepDescriptor(RepKind.SPIN, ell, 0)


def spin_plus(ell):
    return RepDescriptor(RepKind.SPIN_PLUS, ell, 0)


def spin_minus(ell):
    return RepDescriptor(RepKind.SPIN_MINUS, ell, 0)


def metaplectic(k):
    return RepDescriptor(RepKind.METAPLECTIC, 0, k)


def spin_metaplectic(ell, k):
    return RepDescriptor(RepKind.SPIN_METAPLECTIC, ell, k)


def spin_metaplectic_plus(ell, k):
    return RepDescriptor(RepKind.SPIN_METAPLECTIC_PLUS, ell, k)


def spin_metaplectic_minus(ell, k):
    return RepDescriptor(RepKind.SPIN_METAPLECTIC_MINUS, ell, k)


class GrassPolyVector(SparseElement):
    """Sparse exact vector: finite map (grass bitset, poly exps) -> Scalar.

    The space is the carrier shape (ell, k).
    """

    __slots__ = ()
    ell = property(lambda self: self.space[0])
    k = property(lambda self: self.space[1])

    _ring = staticmethod(_coerce_scalar)

    def __init__(self, ell, k, terms=None):
        super().__init__((ell, k), terms)

    @staticmethod
    def _check_key(space, key):
        ell, k = space
        g, e = key
        if g < 0 or g >> ell:
            raise AlgebraError("Grassmann bits outside carrier")
        if len(e) != k or any(x < 0 for x in e):
            raise AlgebraError("bad polynomial exponents %r" % (e,))
        return (g, tuple(e))

    @staticmethod
    def basis(ell, k, g=0, e=None):
        e = (0,) * k if e is None else tuple(e)
        return GrassPolyVector(ell, k, {(g, e): S_ONE})

    def __repr__(self):
        if not self.terms:
            return "<vec 0>"
        bits = []
        for (g, e), c in sorted(self.terms.items()):
            facs = ["xi%d" % (i + 1) for i in range(self.ell) if g >> i & 1]
            facs += ["x%d^%d" % (i + 1, n) for i, n in enumerate(e) if n]
            bits.append("%s*%s" % (c, " ".join(facs) if facs else "1"))
        return "<vec %s>" % " + ".join(bits)


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
    """Apply the element a to the vector v through the representation.

    The element is rewritten as star words of generators; a word acts by
    composing generator actions right to left.
    """
    if a.signature != desc.signature():
        raise AlgebraError(
            "element signature %r does not match representation %r"
            % (a.signature, desc)
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


# -- matrices ------------------------------------------------------------------


def rep_matrix(desc, a):
    """Matrix of act(a, .) in the binary-ordered Grassmann monomial basis.

    Basis vector number g is xi^g (bit i set = xi_{i+1} present), so for
    ell = 1 the basis is {1, xi1}.  Column j holds the image of basis j.
    """
    dim = desc.finite_dimension()
    entries = {}
    for g in range(dim):
        img = act(desc, a, GrassPolyVector.basis(desc.ell, desc.k, g))
        for (gm, _e), c in img.terms.items():
            entries[gm, g] = c
    return Matrix.from_entries((dim, dim), entries)


# -- operator -> symbol on the Fermi side ---------------------------------------


def ladder_raise(signature, j):
    """(w_{2j-1} - i w_{2j})/2: acts as wedge-by-xi_j (raises Grassmann degree)."""
    e = fermi_gen(signature, 2 * j - 1) - fermi_gen(signature, 2 * j).scale(Scalar.of(0, 1))
    return e.scale(S_HALF)


def ladder_lower(signature, j):
    """(w_{2j-1} + i w_{2j})/2: acts as d/dxi_j (lowers Grassmann degree)."""
    e = fermi_gen(signature, 2 * j - 1) + fermi_gen(signature, 2 * j).scale(Scalar.of(0, 1))
    return e.scale(S_HALF)


def clifford_op_to_symbol(n, T):
    """Element of the 2n-generator Fermi algebra whose spin action is T.

    Expands T against the wedge/contract normal form: for every index set I
    the coproduct splits xi^I across the two tensor slots (graded signs), the
    antipode weights the right slot, T acts on the left slot, and the
    surviving wedge monomial xi^M determines the normal-ordered word
    Q_{M} * P_{I} whose coefficients are read off exactly.  Inverse of
    rep_matrix for the even spin representation.
    """
    dim = 1 << n
    if T.shape != (dim, dim):
        raise AlgebraError("operator must be %dx%d, got %r" % (dim, dim, T.shape))
    sig = AlgebraSignature(2 * n, 0)
    Q = [ladder_raise(sig, j) for j in range(1, n + 1)]
    P = [ladder_lower(sig, j) for j in range(1, n + 1)]
    total = zero(sig)
    for imask in range(dim):
        r = imask.bit_count()
        sign_i = -1 if (r * (r - 1) // 2) & 1 else 1
        # graded coproduct of xi^imask: {(J,K): +-1}
        split = {(0, 0): 1}
        m = imask
        while m:
            bit = m & -m
            m ^= bit
            nxt = {}
            for (J, K), c in split.items():
                cL = -c if K.bit_count() & 1 else c
                nxt[(J | bit, K)] = nxt.get((J | bit, K), 0) + cL
                nxt[(J, K | bit)] = nxt.get((J, K | bit), 0) + c
            split = nxt
        for (J, K), csplit in split.items():
            if not csplit:
                continue
            # antipode of the right slot: graded anti-homomorphism sending
            # each generator to its negative, so xi^K picks up (-1)^{|K|}
            sK = -1 if K.bit_count() & 1 else 1
            for M in range(dim):
                tMJ = T[(M, J)]
                if not tMJ:
                    continue
                if M & K:
                    continue
                sh = -1 if _shuffle_parity(M, K) else 1
                coeff = tMJ * Scalar.of(csplit * sK * sh * sign_i)
                if not coeff:
                    continue
                word = unit(sig)
                qm = M | K
                for j in range(n):
                    if qm >> j & 1:
                        word = star(word, Q[j])
                for j in range(n):
                    if imask >> j & 1:
                        word = star(word, P[j])
                total = total + word.scale(coeff)
    return total


def spin_rep_odd_sign_check(n):
    """How the full Fermi volume word acts on the two odd-case modules.

    Returns a report dict; ok means the plus module sees +i^n times the
    identity and the minus module the opposite sign.
    """
    sig = AlgebraSignature(2 * n + 1, 0)
    vol = unit(sig)
    for i in range(1, 2 * n + 2):
        vol = star(vol, fermi_gen(sig, i))
    want = scalar_i_power(n)
    dim = 1 << n
    ident = Matrix.identity(dim)
    plus = rep_matrix(spin_plus(n), vol)
    minus = rep_matrix(spin_minus(n), vol)
    return {
        "n": n,
        "plus_ok": plus == ident.scale(want),
        "minus_ok": minus == ident.scale(-want),
        "ok": plus == ident.scale(want) and minus == ident.scale(-want),
    }
