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
A monomial acts in closed form, mode by mode, sending each carrier
monomial to a multiple of one carrier monomial (`act`); no product is
involved, so act(a * b, v) = act(a, act(b, v)) is the independent
cross-check of the product kernels.  `clifford_op_to_symbol` inverts the
even spin representation by the trace formula, with no product either.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .algebra import AlgebraError, AlgebraSignature, CwElement, CwMonomial, _check_size, fermi_gen
from .algebra import monomial_element, unit
from .linalg import Matrix, MatrixError
from .scalars import S_ONE, S_ZERO, Scalar, _coerce_scalar, gr_ratio, i_power
from .sparse import SparseElement, accumulate, expect_element
from .starprod import _mode_words, _parity_below, star


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


class RepDescriptor(namedtuple("RepDescriptor", "kind ell k")):
    """A representation: its kind, the Grassmann variables (ell) and the
    polynomial variables (k) of its carrier, both non-negative ints."""

    __slots__ = ()

    def __new__(cls, kind, ell, k):
        return super().__new__(cls, kind, _check_size("ell", ell), _check_size("k", k))

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


def act(desc, a, v):
    """Apply the element a to the vector v through the representation.

    The modes commute, so at t = 1 a monomial w^I p^A q^B sends a carrier
    monomial xi^G x^E to a multiple of one carrier monomial.  In mode j,
    p^a q^b is the sum over r of 2^-r C(b, r) perm(a, r) q^(b-r) * p^(a-r)
    (`starprod._mode_words`), so x^e goes to x^(e-a+b) times the sum over r
    of 2^-r C(b, r) perm(a, r) perm(e, a-r).  The Bose generators passing
    xi^G give (-1)^(|G| (|A| + |B|)), and then the w_i act, last index
    first.  The factor is i^quarter * num / 2^shift, with the signs counted
    as two quarters.
    """
    expect_element(a, CwElement, desc.signature(), AlgebraError)
    expect_element(v, GrassPolyVector, (desc.ell, desc.k), AlgebraError)
    odd = 2 * desc.ell + 1 if desc.kind in _ODD_KINDS else 0
    flip = desc.kind in _MINUS_KINDS
    out = {}
    for m, cm in a.terms.items():
        modes = tuple(map(_mode_words, m.wp, m.wq))
        fermi = m.cliff_indices()[::-1]
        for (g, e), cv in v.terms.items():
            num, shift, image = 1, 0, []
            for words, x in zip(modes, e):
                top = len(words) - 1  # the largest r
                n = sum(c * math.perm(x, pa) << (top - r) for r, c, _, pa in words)
                if not n:
                    break
                num, shift = num * n, shift + top
                _, _, qb, pa = words[0]
                image.append(x - pa + qb)
            else:
                quarter, h = 2 * m.bose_degree() * g.bit_count(), g
                for i in fermi:
                    if i == odd:  # +-(-1)^(total degree)
                        quarter += 2 * (h.bit_count() + sum(image) + flip)
                        continue
                    # ladder pair j: w_i is Q_j + P_j, or i (Q_j - P_j) for even i
                    j = (i - 1) >> 1
                    quarter += 2 * _parity_below(h, j)
                    if not i & 1:
                        quarter += 3 if h >> j & 1 else 1
                    h ^= 1 << j
                factor = i_power(quarter) * gr_ratio(num, 1 << shift)
                accumulate(out, (h, tuple(image)), (cm * cv).scale(factor))
    return GrassPolyVector.raw(v.space, out)


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


def clifford_op_to_symbol(n, T):
    """Element of the 2n-generator Fermi algebra whose spin action is T.

    The inverse of rep_matrix for the even spin representation, by the trace
    formula (Lawson & Michelsohn, Spin Geometry, 1989): w^I w^I is
    (-1)^(|I|(|I|-1)/2) and act(w^I) has trace 0 for every nonempty I, so
    the coefficient of w^I is (-1)^(|I|(|I|-1)/2) tr(act(w^I) T) / 2^n.
    """
    dim = 1 << _check_size("n", n)
    if not isinstance(T, Matrix):
        raise MatrixError("operator must be a Matrix, got %s" % type(T).__name__)
    if T.shape != (dim, dim):
        raise AlgebraError("operator must be %dx%d, got %r" % (dim, dim, T.shape))
    if not isinstance(T[0, 0], Scalar):
        raise MatrixError("operator entries must be scalars, got %s" % type(T[0, 0]).__name__)
    desc, sig = spin(n), AlgebraSignature(2 * n, 0)
    terms = {}
    for mask in range(dim * dim):
        mono = CwMonomial(mask, (), ())
        # one entry per column of act(w^I): the trace reads T at the transposed places
        rho = rep_matrix(desc, monomial_element(sig, mono))
        trace = sum((x * T[j, i] for (i, j), x in rho.items()), S_ZERO)
        if trace:
            r = mask.bit_count()
            terms[mono] = trace.scale(gr_ratio(-1 if r * (r - 1) >> 1 & 1 else 1, dim))
    return CwElement.raw(sig, terms)


def spin_rep_odd_sign_check(n):
    """How the full Fermi volume word acts on the two odd-case modules.

    Returns a report dict; ok means the plus module sees +i^n times the
    identity and the minus module the opposite sign.
    """
    sig = AlgebraSignature(2 * n + 1, 0)
    vol = unit(sig)
    for i in range(1, 2 * n + 2):
        vol = star(vol, fermi_gen(sig, i))
    want = i_power(n)
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
