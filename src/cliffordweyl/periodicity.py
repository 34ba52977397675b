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

Each direction sends a basis monomial to one term, in closed form: z^2 = 1,
z~ commutes with the shifted generators, and every star word of p^A q^B has
length |A| + |B| mod 2, so the image carries the volume word exactly when
the monomial has an odd number of right-factor generators.  `_times_volume`
is that one Fermi product, shared with the rank reduction in `deform`; it
takes the phase i^m of a volume word on 2m or 2m + 1 generators from the
word's width.

The odd split reads it too: w^I w_{2n+1}^e goes to (w^I v^e, (-1)^e w^I v^e),
v = i^n w_1...w_{2n}, and its join is (c+ + c-)/2 + (c+ - c-) u/2, u the
central volume word i^n w_1...w_{2n+1} upstairs.  No map here calls `star`.

`_realize_left` is the one spin realization of both families, read by
`cw_to_matrix` and `deform.ore_to_matrix`; it writes each word's spin
matrix from `reps._ladder`, the ladder rule of `reps.act`.
"""

from . import ore, starprod
from .algebra import (
    AlgebraError,
    AlgebraSignature,
    CwElement,
    CwMonomial,
    monomial_element,
    unit,
    zero,
)
from .linalg import Matrix
from .ore import OreElement
from .reps import _ladder
from .scalars import GR_HALF, Scalar, _coerce_scalar, i_power
from .scalars import join_numerators, split_powers
from .sparse import SparseElement, accumulate, expect_element, json_reader, pair_product, sum_terms
from .starprod import _cliff_pair
from .textform import element_to_text


# -- tensor elements over two factor algebras --------------------------------------

def _ore_pairs(n):
    pair = ore.pair_kernel(n)

    def with_powers(k1, k2):
        den, groups = pair(k1[0], k2[0])
        return den, [(fr, fi, (None, k1[1] + k2[1]), terms) for fr, fi, _, terms in groups]

    return with_powers


# the algebra a factor space names: its element class, and its pair kernel on
# (monomial, L power) with the monomial of a bucket head and a subkey
_FACTORS = {
    AlgebraSignature: (CwElement, lambda sig: (starprod.pair_kernel(sig.t_param), starprod._monomial)),
    int: (OreElement, lambda n: (_ore_pairs(n), lambda _, m: m)),
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
        return element_to_text(self)

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
    @json_reader
    def from_json(left_signature, right_signature, data):
        lf, rf = _factor(left_signature)[0], _factor(right_signature)[0]
        terms = sum_terms(
            ((lf.key_from_json(rec["left"]), rf.key_from_json(rec["right"])), Scalar.from_json(rec["coeff"]))
            for rec in data
        )
        return TensorElement(left_signature, right_signature, terms)


def tensor_of(a, b):
    """Outer product: the tensor with terms a_m (x) b_m' for every term pair."""
    terms = {(ml, mr): cl * cr for ml, cl in a.terms.items() for mr, cr in b.terms.items()}
    return TensorElement(a.space, b.space, terms)


def tensor_star(x, y):
    """Slotwise product of tensor elements (no crossing sign; see module doc).

    The kernel of a pair of terms is the product of the two slots' kernels,
    a group for each pair of theirs, the left slot carrying the pair's L
    power; `sparse.pair_product` sums it with the coefficients split into L
    powers, and each key is built once, from the slots' buckets and subkeys.
    """
    expect_element(y, TensorElement, x.space)
    (left, lkey), (right, rkey) = (_factor(space)[1](space) for space in x.space)

    def pair(k1, k2):
        ((al, ar), l1), ((bl, br), l2) = k1, k2
        (dl, gl), (dr, gr) = left((al, l1 + l2), (bl, 0)), right((ar, 0), (br, 0))
        groups = []
        for fl, il, (hl, jl), tl in gl:
            for fr, ir, (hr, jr), tr in gr:
                terms = [(ul * ur, (sl, sr)) for ul, sl in tl for ur, sr in tr]
                groups.append((fl * fr - il * ir, fl * ir + il * fr, ((hl, hr), jl + jr), terms))
        return dl * dr, groups

    terms = pair_product(split_powers(x.terms), split_powers(y.terms), pair)
    return TensorElement.raw(x.space, join_numerators(terms, lambda h, sk: (lkey(h[0], sk[0]), rkey(h[1], sk[1]))))


# -- the even-factor volume involution -------------------------------------------


def volume_involution(signature, m):
    """z = i^m w_1 * ... * w_{2m}: squares to 1, anticommutes with w_1..w_{2m}."""
    if 2 * m > signature.n_fermi:
        raise AlgebraError("volume word needs %d Fermi generators" % (2 * m))
    k = signature.n_bose
    mono = CwMonomial((1 << (2 * m)) - 1, (0,) * k, (0,) * k)
    return monomial_element(signature, mono, i_power(m))


def _times_volume(mask, width):
    """w^mask * i^(width // 2) w_1...w_width at t = 1, as (Gaussian rational, mask)."""
    par, out = _cliff_pair(mask, (1 << width) - 1)
    return i_power(width // 2 + 2 * par), out


# -- dimension shift: split 2m even generators off the front ---------------------


def periodicity1_forward(m, n, k, x):
    """Homomorphism from the (2m+n, k)-signature algebra to the tensor algebra."""
    expect_element(x, CwElement, AlgebraSignature(2 * m + n, k))
    left, right = AlgebraSignature(2 * m, 0), AlgebraSignature(n, k)
    low = (1 << (2 * m)) - 1
    # w^I p^A q^B -> (w^{I_L} z^e) (x) w'^{I_R} p^A q^B, e = |I_R| + |A| + |B| mod 2:
    # z^2 = 1, z commutes with the right factor's generators, and star words of
    # p^A q^B have length |A| + |B| mod 2 (the right factor has the source's t = 1)
    terms = {}
    for mono, c in x.terms.items():
        mask, rest = mono.cliff & low, mono.cliff >> (2 * m)
        if (rest.bit_count() + mono.bose_degree()) & 1:
            g, mask = _times_volume(mask, 2 * m)
            c = c * g
        terms[CwMonomial(mask, (), ()), CwMonomial(rest, mono.wp, mono.wq)] = c
    return TensorElement.raw((left, right), terms)


def periodicity1_inverse(m, n, k, X):
    """Inverse homomorphism, defined through the upstairs volume word."""
    expect_element(X, TensorElement, (AlgebraSignature(2 * m, 0), AlgebraSignature(n, k)))
    # w^L (x) w'^J p^A q^B -> (w^L z~^e) w^{2m+J} p^A q^B, e = |J| + |A| + |B| mod 2:
    # z~^2 = 1, z~ commutes with the shifted generators, and star words of p^A q^B
    # have length |A| + |B| mod 2 (the target has the right factor's t = 1)
    terms = {}
    for (ml, mr), c in X.terms.items():
        mask = ml.cliff
        if (mr.cliff.bit_count() + mr.bose_degree()) & 1:
            g, mask = _times_volume(mask, 2 * m)
            c = c * g
        terms[CwMonomial(mask | mr.cliff << (2 * m), mr.wp, mr.wq)] = c
    return CwElement.raw(AlgebraSignature(2 * m + n, k), terms)


# -- odd Fermi count: split into two even-sized components -----------------------


def odd_projections(n):
    """The central idempotents (1 +/- i^n w_1*...*w_{2n+1})/2 upstairs."""
    sig = AlgebraSignature(2 * n + 1, 0)
    u = monomial_element(sig, CwMonomial((1 << (2 * n + 1)) - 1, (), ()), i_power(n))
    one = unit(sig)
    return (one + u).scale(GR_HALF), (one - u).scale(GR_HALF)


def odd_split(n, x):
    """Components of x in the two even-sized quotients (pair of elements).

    The last generator maps to +/- i^n w_1*...*w_{2n} respectively; the pair
    map is an algebra isomorphism onto the product of the two quotients.
    """
    expect_element(x, CwElement, AlgebraSignature(2 * n + 1, 0))
    low = (1 << (2 * n)) - 1
    # w^I w_{2n+1}^e -> (w^I v^e, (-1)^e w^I v^e), v = i^n w_1...w_{2n}: the
    # ascending word ends with the last generator
    plus, minus = {}, {}
    for mono, c in x.terms.items():
        mask, last = mono.cliff & low, mono.cliff >> (2 * n)
        if last:
            g, mask = _times_volume(mask, 2 * n)
            c = c * g
        key = CwMonomial(mask, (), ())
        accumulate(plus, key, c)
        accumulate(minus, key, -c if last else c)
    tgt = AlgebraSignature(2 * n, 0)
    return CwElement.raw(tgt, plus), CwElement.raw(tgt, minus)


def odd_join(n, c_plus, c_minus):
    """Inverse of odd_split: assemble from the two components."""
    tgt = AlgebraSignature(2 * n, 0)
    expect_element(c_plus, CwElement, tgt)
    expect_element(c_minus, CwElement, tgt)
    # the projections (1 +/- u)/2 times the components, u = i^n w_1...w_{2n+1} central:
    # x = (c+ + c-)/2 + (c+ - c-) u/2, and only the second part's words hold w_{2n+1}
    out = dict((c_plus + c_minus).scale(GR_HALF).terms)
    for mono, c in (c_plus - c_minus).terms.items():
        g, mask = _times_volume(mono.cliff, 2 * n + 1)
        out[CwMonomial(mask, (), ())] = c * (g * GR_HALF)
    return CwElement.raw(AlgebraSignature(2 * n + 1, 0), out)


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


# The largest dimension of a realization (2^n) or a quotient (2^n(4h+1)): each of
# cw_to_matrix(12, 0, unit) and finite_irrep_pi_h(0, 2047/2, "+") takes 0.1 s
MAX_QUOTIENT_DIMENSION = 4_096


def _check_dimension(what, dim):
    if dim > MAX_QUOTIENT_DIMENSION:
        raise AlgebraError("%s dimension %d above the bound of %d" % (what, dim, MAX_QUOTIENT_DIMENSION))


def _realize_left(n, X, entry, zero):
    """The 2^n-square matrix over B of X in C(2n) (x) B: the spin action of a
    left word w^I sends xi^col to i^quarter xi^row, both from `reps._ladder`,
    so a term c w^I (x) m adds entry(m, c i^quarter) at (row, col), row by
    row."""
    entries = {}
    for (ml, mr), c in X.terms.items():
        fermi = ml.cliff_indices()[::-1]
        flips = _ladder(fermi, 0)[0]
        for row in range(1 << n):
            col = row ^ flips
            accumulate(entries, (row, col), entry(mr, c * i_power(_ladder(fermi, col)[1])))
    return Matrix.from_entries((1 << n, 1 << n), entries, zero)


def cw_to_matrix(n, k, x):
    """Matrix of size 2^n over the pure Bose algebra realizing x.

    Refuses 2^n above MAX_QUOTIENT_DIMENSION, then splits all 2n Fermi
    generators off the front and replaces that factor by its spin matrix.
    """
    expect_element(x, CwElement, AlgebraSignature(2 * n, k))
    _check_dimension("realization", 1 << n)
    X = periodicity1_forward(n, 0, k, x)
    right = X.right_signature
    return _realize_left(n, X, lambda m, c: CwElement.raw(right, {m: c}), zero(right))
