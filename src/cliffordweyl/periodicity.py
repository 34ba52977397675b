"""Tensor products, periodicity isomorphisms, and matrix realizations.

`TensorElement` is one sparse element type over any two factor algebras: the
cw (x) cw tensors of the dimension shift below, and the C(2n) (x) A_L tensors
through which `deform.periodicity2_forward` factors the deformed algebras.
The tensor product implemented here is the plain one,

    (a (x) b) (a' (x) b') = (a * a') (x) (b * b'),

with no crossing sign.  The twist that turns the dimension-shift maps into
algebra homomorphisms is carried entirely by the volume involution z of the
even Fermi factor, which anticommutes with each of that factor's generators.
A crossing sign graded by Bose parity would agree with this product on every
tensor algebra built in this module, because left factors never carry Bose
generators.

Layout of the dimension-shift maps (2m even generators split off the front):

    forward:  w_j        -> w_j (x) 1            (j <= 2m)
              w_{2m+j}   -> z (x) w'_j           z = i^m w_1 * ... * w_{2m}
              p_j, q_j   -> z (x) p_j, z (x) q_j
    inverse:  left w_j   -> w_j
              right gen  -> z~ * (shifted gen)   z~ the same word upstairs

Both directions extend from generators through the exact star-word
decomposition of an element, so round-trips are literal identities.
"""

from . import ore, starprod
from .algebra import (
    AlgebraError,
    AlgebraSignature,
    CwElement,
    CwMonomial,
    SignatureMismatch,
    bose_p,
    bose_q,
    fermi_gen,
    monomial_element,
    unit,
    zero,
)
from .linalg import Matrix
from .ore import OreElement
from .reps import rep_matrix, spin
from .scalars import GR_ONE, S_HALF, S_ONE, Scalar, _coerce_scalar, scalar_i_power
from .scalars import join_powers, split_powers
from .sparse import SparseElement, pair_product
from .starprod import element_star_words, star
from .textform import coefficient_text, join_signed, signed_term


# -- tensor elements over two factor algebras --------------------------------------

def _ore_pairs(n):
    pair = ore.pair_kernel(n)
    return lambda k1, k2: [(c, (m, k1[1] + k2[1])) for c, m in pair(k1[0], k2[0])]


# the algebra a factor space names: its element class and coefficient 1, the
# module and name of its product, and its pair kernel on (monomial, L power)
_FACTORS = {
    AlgebraSignature: (CwElement, S_ONE, starprod, "star", lambda sig: starprod.pair_kernel(sig.t_param)),
    int: (OreElement, GR_ONE, ore, "ore_product", _ore_pairs),
}


def _factor(space):
    try:
        return _FACTORS[type(space)]
    except KeyError:
        raise AlgebraError("not the space of a factor algebra: %r" % (space,)) from None


class TensorElement(SparseElement):
    """Sparse sum of pure tensors m_left (x) m_right with Scalar coefficients.

    The space is the pair of factor spaces, and each names its algebra: an
    AlgebraSignature a Clifford-Weyl algebra, an int n the rank-n deformed
    algebra.  Each slot multiplies in its own algebra; a Gaussian-rational
    factor coefficient enters as a constant Scalar.
    """

    __slots__ = ()
    left_signature = property(lambda self: self.space[0])
    right_signature = property(lambda self: self.space[1])

    _ring = staticmethod(_coerce_scalar)

    def __init__(self, left_signature, right_signature, terms=None):
        super().__init__((left_signature, right_signature), terms)

    @staticmethod
    def _check_key(space, key):
        (ls, rs), (ml, mr) = space, key
        _factor(ls)[0]._check_key(ls, ml)
        _factor(rs)[0]._check_key(rs, mr)
        return key

    def _product(self, other):
        return tensor_star(self, other)

    def __str__(self):
        ls, rs = self.space
        (lf, lone), (rf, rone) = _factor(ls)[:2], _factor(rs)[:2]
        bits = []
        for ml, mr in sorted(self.terms):
            body = "%s (x) %s" % (lf.raw(ls, {ml: lone}), rf.raw(rs, {mr: rone}))
            bits.append(signed_term(coefficient_text(self.terms[ml, mr]), body))
        return join_signed(bits)

    def __repr__(self):
        return "<TensorElement %r (x) %r | %d terms>" % (*self.space, len(self.terms))

    def to_json(self):
        ls, rs = self.space
        lf, rf = _factor(ls)[0], _factor(rs)[0]
        return [
            {"coeff": c.to_json(), "left": lf.key_json(ml), "right": rf.key_json(mr)}
            for (ml, mr), c in sorted(self.terms.items())
        ]

    @staticmethod
    def from_json(left_signature, right_signature, data):
        lf, rf = _factor(left_signature)[0], _factor(right_signature)[0]
        terms = {
            (lf.key_from_json(rec["left"]), rf.key_from_json(rec["right"])): Scalar.from_json(rec["coeff"])
            for rec in data
        }
        return TensorElement(left_signature, right_signature, terms)


def tensor_zero(left_signature, right_signature):
    return TensorElement(left_signature, right_signature)


def tensor_unit(left_signature, right_signature):
    return tensor_of(unit(left_signature), unit(right_signature))


def tensor_of(a, b):
    """Outer product: the tensor with terms a_m (x) b_m' for every term pair."""
    terms = {(ml, mr): cl * cr for ml, cl in a.terms.items() for mr, cr in b.terms.items()}
    return TensorElement(a.space, b.space, terms)


def _slot_pairs(space):
    """A factor's pair kernel on (monomial, L power) keys.

    While the factor's product is replaced in its module (`bench/` does so to
    trace it or to inject a fault), one-term elements multiply through the
    replacement instead, so that it sees every slot product.
    """
    cls, one, module, name, kernel = _factor(space)
    if getattr(module, name).__module__ == module.__name__:
        return kernel(space)

    def pair(k1, k2):
        p, l = cls.raw(space, {k1[0]: one}) * cls.raw(space, {k2[0]: one}), k1[1] + k2[1]
        return [(g, (m, l + j)) for m, c in p.terms.items() for j, g in _coerce_scalar(c).terms.items()]

    return pair


def tensor_star(x, y):
    """Slotwise product of tensor elements (no crossing sign; see module doc).

    The kernel of a pair of terms is the product of the two slots' kernel
    lists, the left slot carrying the pair's L power, and
    `sparse.pair_product` sums it with the coefficients split into L powers.
    """
    x._check_space(y)
    left, right = map(_slot_pairs, x.space)

    def pair(k1, k2):
        ((al, ar), l1), ((bl, br), l2) = k1, k2
        lt, rt = left((al, l1 + l2), (bl, 0)), right((ar, 0), (br, 0))
        return [(cl * cr, ((ml, mr), jl + jr)) for cl, (ml, jl) in lt for cr, (mr, jr) in rt]

    terms = pair_product(split_powers(x.terms), split_powers(y.terms), pair)
    return TensorElement.raw(x.space, join_powers(terms))


# -- the even-factor volume involution -------------------------------------------


def volume_involution(signature, m):
    """z = i^m w_1 * ... * w_{2m}: squares to 1, anticommutes with w_1..w_{2m}."""
    if 2 * m > signature.n_fermi:
        raise AlgebraError("volume word needs %d Fermi generators" % (2 * m))
    k = signature.n_bose
    mono = CwMonomial((1 << (2 * m)) - 1, (0,) * k, (0,) * k)
    return monomial_element(signature, mono, scalar_i_power(m))


# -- dimension shift: split 2m even generators off the front ---------------------


def periodicity1_forward(m, n, k, x):
    """Homomorphism from the (2m+n, k)-signature algebra to the tensor algebra."""
    src = AlgebraSignature(2 * m + n, k)
    if x.signature != src:
        raise SignatureMismatch("expected element of %r, got %r" % (src, x.signature))
    left = AlgebraSignature(2 * m, 0)
    right = AlgebraSignature(n, k)
    z = volume_involution(left, m)
    one_l, one_r = unit(left), unit(right)
    images = {}
    for j in range(1, 2 * m + 1):
        images[("w", j)] = tensor_of(fermi_gen(left, j), one_r)
    for j in range(1, n + 1):
        images[("w", 2 * m + j)] = tensor_of(z, fermi_gen(right, j))
    for j in range(1, k + 1):
        images[("p", j)] = tensor_of(z, bose_p(right, j))
        images[("q", j)] = tensor_of(z, bose_q(right, j))
    out = tensor_zero(left, right)
    for c, word in element_star_words(x):
        cur = tensor_unit(left, right)
        for tok in word:
            cur = tensor_star(cur, images[tok])
        out = out + cur.scale(c)
    return out


def periodicity1_inverse(m, n, k, X):
    """Inverse homomorphism, defined through the upstairs volume word."""
    left = AlgebraSignature(2 * m, 0)
    right = AlgebraSignature(n, k)
    if X.left_signature != left or X.right_signature != right:
        raise SignatureMismatch(
            "expected tensor over %r (x) %r" % (left, right)
        )
    tgt = AlgebraSignature(2 * m + n, k)
    z = volume_involution(tgt, m)
    images = {}
    for j in range(1, n + 1):
        images[("w", j)] = star(z, fermi_gen(tgt, 2 * m + j))
    for j in range(1, k + 1):
        images[("p", j)] = star(z, bose_p(tgt, j))
        images[("q", j)] = star(z, bose_q(tgt, j))
    out = zero(tgt)
    for (ml, mr), c in X.terms.items():
        # the left factor is pure Fermi: its monomial is already the star
        # word of its generators in ascending order
        acc = monomial_element(tgt, CwMonomial(ml.cliff, (0,) * k, (0,) * k))
        for cr, word in element_star_words(monomial_element(right, mr)):
            cur = acc.scale(cr)
            for tok in word:
                cur = star(cur, images[tok])
            out = out + cur.scale(c)
    return out


# -- odd Fermi count: split into two even-sized components -----------------------


def odd_projections(n):
    """The central idempotents (1 +/- i^n w_1*...*w_{2n+1})/2 upstairs."""
    sig = AlgebraSignature(2 * n + 1, 0)
    u = monomial_element(sig, CwMonomial((1 << (2 * n + 1)) - 1, (), ()), scalar_i_power(n))
    one = unit(sig)
    return (one + u).scale(S_HALF), (one - u).scale(S_HALF)


def odd_split(n, x):
    """Components of x in the two even-sized quotients (pair of elements).

    The last generator maps to +/- i^n w_1*...*w_{2n} respectively; the pair
    map is an algebra isomorphism onto the product of the two quotients.
    """
    src = AlgebraSignature(2 * n + 1, 0)
    if x.signature != src:
        raise SignatureMismatch("expected element of %r, got %r" % (src, x.signature))
    tgt = AlgebraSignature(2 * n, 0)
    vol = monomial_element(tgt, CwMonomial((1 << (2 * n)) - 1, (), ()), scalar_i_power(n))
    top = 1 << (2 * n)
    plus, minus = zero(tgt), zero(tgt)
    for mono, c in x.terms.items():
        body = monomial_element(tgt, CwMonomial(mono.cliff & (top - 1), (), ()), c)
        if mono.cliff & top:
            # ascending star word ends with the last generator
            plus = plus + star(body, vol)
            minus = minus - star(body, vol)
        else:
            plus = plus + body
            minus = minus + body
    return plus, minus


def odd_join(n, c_plus, c_minus):
    """Inverse of odd_split: assemble from the two components."""
    tgt = AlgebraSignature(2 * n, 0)
    if c_plus.signature != tgt or c_minus.signature != tgt:
        raise SignatureMismatch("expected pair of elements of %r" % (tgt,))
    src = AlgebraSignature(2 * n + 1, 0)
    zp, zm = odd_projections(n)
    return star(zp, include_element(c_plus, src)) + star(zm, include_element(c_minus, src))


def include_element(x, bigger_signature):
    """Reinterpret x inside a signature with at least as many Fermi generators."""
    sig = x.signature
    if (
        bigger_signature.n_fermi < sig.n_fermi
        or bigger_signature.n_bose != sig.n_bose
        or bigger_signature.t_param != sig.t_param
    ):
        raise SignatureMismatch("cannot include %r into %r" % (sig, bigger_signature))
    return CwElement(bigger_signature, dict(x.terms))


# -- matrices over an entry algebra ----------------------------------------------


def matrix_star(A, B):
    """Matrix product with entrywise algebra product."""
    return A * B


def module_transport(action, r):
    """Lift a module action of the entry algebra to r-vectors over the matrix algebra.

    action(a, v) must apply an entry-algebra element to a carrier vector; the
    returned callable applies an r x r Matrix over that algebra to a list of r
    carrier vectors.
    """

    def act_matrix(M, vectors):
        if M.shape != (r, r) or len(vectors) != r:
            raise AlgebraError("transport expects size %d" % r)
        out = []
        for i in range(r):
            acc = None
            for j in range(r):
                w = action(M[i, j], vectors[j])
                acc = w if acc is None else acc + w
            out.append(acc)
        return out

    return act_matrix


# -- full even reduction to a matrix algebra --------------------------------------


def cw_to_matrix(n, k, x):
    """Matrix of size 2^n over the pure Bose algebra realizing x.

    Splits all 2n Fermi generators off the front in one dimension-shift step,
    then replaces the Fermi factor by its matrix in the even carrier.
    """
    src = AlgebraSignature(2 * n, k)
    if x.signature != src:
        raise SignatureMismatch("expected element of %r, got %r" % (src, x.signature))
    X = periodicity1_forward(n, 0, k, x)
    left = X.left_signature
    right = X.right_signature
    desc = spin(n)
    dim = 1 << n
    entries = [[zero(right) for _ in range(dim)] for _ in range(dim)]
    mat_cache = {}
    for (ml, mr), c in X.terms.items():
        M = mat_cache.get(ml.cliff)
        if M is None:
            M = rep_matrix(desc, monomial_element(left, ml))
            mat_cache[ml.cliff] = M
        body = monomial_element(right, mr, c)
        for i in range(dim):
            for j in range(dim):
                if M[i, j]:
                    entries[i][j] = entries[i][j] + body.scale(M[i, j])
    return Matrix(entries)
