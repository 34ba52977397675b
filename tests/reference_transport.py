"""Reference transport maps: the library's earlier product-built versions.

Most maps name the images of the generators and extend to an element
through its exact star-word decomposition (`reference_act.element_star_words`),
multiplying the images one token at a time with `tensor_star`, `star` or
`ore_product`.  The identification of the specialization at 0 with
C(2n+1, 2), the odd split and its join multiply monomial images or central
idempotents with `star`, and the operator-to-symbol map expands a matrix
against the wedge/contract normal form of the ladder operators.  The
library's maps instead send each basis monomial to its image in closed
form; `test_transport.py` checks that the two agree.  `include_element`,
`tensor_zero` and `tensor_unit` left the library when only tests used them.
"""

from fractions import Fraction

from cliffordweyl.algebra import (
    AlgebraError,
    AlgebraSignature,
    CwElement,
    CwMonomial,
    bose_p,
    bose_q,
    fermi_gen,
    monomial_element,
    unit,
    zero,
)
from cliffordweyl.deform import cw_odd_signature
from cliffordweyl.ore import (
    OreElement,
    OreMonomial,
    ore_e_minus,
    ore_e_plus,
    ore_fermi,
    ore_product,
    ore_scalar,
    ore_zero,
    specialize,
)
from cliffordweyl.linalg import Matrix, MatrixError
from cliffordweyl.periodicity import (
    TensorElement,
    odd_projections,
    tensor_of,
    tensor_star,
    volume_involution,
)
from cliffordweyl.scalars import GR_ONE, GR_ZERO, S_HALF, GaussianRational, Scalar, i_power
from cliffordweyl.sparse import expect_element
from cliffordweyl.starprod import _shuffle_parity, star
from reference_act import element_star_words

_P0 = OreMonomial(1, 0, 0, 0)


def ore_tensor(n, mask, m, coeff=GR_ONE):
    """The pure tensor coeff * w^mask (x) m in C(2n) (x) A_L."""
    return TensorElement(AlgebraSignature(2 * n, 0), 0, {(CwMonomial(mask, (), ()), m): coeff})


def ref_periodicity1_forward(m, n, k, x):
    """w_j -> w_j (x) 1 (j <= 2m), w_{2m+j} -> z (x) w'_j, p_j, q_j -> z (x) p_j, z (x) q_j."""
    left, right = AlgebraSignature(2 * m, 0), AlgebraSignature(n, k)
    z = volume_involution(left, m)
    one_r = unit(right)
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


def ref_periodicity1_inverse(m, n, k, X):
    """Left w_j -> w_j; a right generator g -> z~ * (shifted g), z~ the volume word upstairs."""
    right = AlgebraSignature(n, k)
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


def ref_periodicity2_forward(n, x):
    """w_j -> w_j (x) P (j <= 2n), w_{2n+1} -> i^n w_1...w_{2n} (x) P, E+- -> 1 (x) E+-."""
    full = (1 << (2 * n)) - 1
    images = {("w", i): ore_tensor(n, 1 << (i - 1), _P0) for i in range(1, 2 * n + 1)}
    images["w", 2 * n + 1] = ore_tensor(n, full, _P0, i_power(n))
    e_plus, e_minus = ore_tensor(n, 0, OreMonomial(0, 1, 0, 0)), ore_tensor(n, 0, OreMonomial(0, 0, 1, 0))
    out = TensorElement(AlgebraSignature(2 * n, 0), 0)
    for m, c in x.terms.items():
        acc = ore_tensor(n, 0, OreMonomial(0, 0, 0, m.lam))
        for i in m.cliff_indices():
            acc = tensor_star(acc, images["w", i])
        for _ in range(m.e_plus):
            acc = tensor_star(acc, e_plus)
        for _ in range(m.e_minus):
            acc = tensor_star(acc, e_minus)
        out = out + acc.scale(c)
    return out


def ref_periodicity2_inverse(n, x):
    """w_j (x) 1 -> w_j vol and 1 (x) P -> vol, vol = i^n w_1...w_{2n+1}."""
    full = (1 << (2 * n + 1)) - 1
    vol = OreElement(n, {OreMonomial(full, 0, 0, 0): i_power(n)})
    out = ore_zero(n)
    for (ml, m), c in x.terms.items():
        body = OreElement(n, {OreMonomial(ml.cliff, 0, 0, 0): c.constant()})
        if (ml.cliff.bit_count() + m.cliff) & 1:
            body = ore_product(body, vol)
        body = ore_product(body, OreElement(n, {OreMonomial(0, m.e_plus, m.e_minus, m.lam): GR_ONE}))
        out = out + body
    return out


def ref_iso_cw_to_a0(n, x):
    """p -> 2E-, q -> 2E+, w_j fixed, then the value at L = 0."""
    if x.signature != cw_odd_signature(n):
        raise AlgebraError("expected an element of C(%d, 2)" % (2 * n + 1,))
    out = ore_zero(n)
    for coeff, word in element_star_words(x):
        if coeff.lam_degree() > 0:
            raise AlgebraError("central parameter in coefficients: %s" % coeff)
        g = ore_scalar(n, coeff.constant())
        for kind, idx in word:
            if kind == "w":
                f = ore_fermi(n, idx)
            elif kind == "p":
                f = ore_e_minus(n).scale(2)
            else:
                f = ore_e_plus(n).scale(2)
            g = ore_product(g, f)
        out = out + g
    return specialize(out, GR_ZERO)


def ref_iso_a0_to_cw(n, a):
    """E+ -> q/2, E- -> p/2, w_j fixed: w^I E+^a E-^b is w^I q^a times p^b."""
    sig = cw_odd_signature(n)
    out = zero(sig)
    for m, c in a.terms.items():
        if m.lam:
            raise AlgebraError("central parameter present: %r" % (m,))
        img = monomial_element(sig, CwMonomial(m.cliff, (0,), (m.e_plus,)))
        if m.e_minus:
            img = star(img, monomial_element(sig, CwMonomial(0, (m.e_minus,), (0,))))
        half = GaussianRational(Fraction(1, 2 ** (m.e_plus + m.e_minus)))
        out = out + img.scale(Scalar.from_gaussian(c * half))
    return out


def ref_odd_split(n, x):
    """w_{2n+1} -> +/- i^n w_1...w_{2n}, each monomial's image a star product."""
    tgt = AlgebraSignature(2 * n, 0)
    vol = monomial_element(tgt, CwMonomial((1 << (2 * n)) - 1, (), ()), i_power(n))
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


def include_element(x, bigger_signature):
    """Reinterpret x inside a signature with at least as many Fermi generators."""
    # x's own Fermi count, capped by the bigger one's: any other count, Bose
    # count or t is a mismatch
    n_fermi = min(x.space.n_fermi, bigger_signature.n_fermi) if isinstance(x, CwElement) else 0
    expect_element(x, CwElement, bigger_signature._replace(n_fermi=n_fermi))
    return CwElement.raw(bigger_signature, x.terms)


def tensor_zero(left_signature, right_signature):
    return TensorElement(left_signature, right_signature)


def tensor_unit(left_signature, right_signature):
    return tensor_of(unit(left_signature), unit(right_signature))


def ref_odd_join(n, c_plus, c_minus):
    """The central idempotents times the included components."""
    src = AlgebraSignature(2 * n + 1, 0)
    zp, zm = odd_projections(n)
    return star(zp, include_element(c_plus, src)) + star(zm, include_element(c_minus, src))


def ladder_raise(signature, j):
    """(w_{2j-1} - i w_{2j})/2: acts as wedge-by-xi_j (raises Grassmann degree)."""
    e = fermi_gen(signature, 2 * j - 1) - fermi_gen(signature, 2 * j).scale(Scalar.of(0, 1))
    return e.scale(S_HALF)


def ladder_lower(signature, j):
    """(w_{2j-1} + i w_{2j})/2: acts as d/dxi_j (lowers Grassmann degree)."""
    e = fermi_gen(signature, 2 * j - 1) + fermi_gen(signature, 2 * j).scale(Scalar.of(0, 1))
    return e.scale(S_HALF)


def ref_clifford_op_to_symbol(n, T):
    """Expand T against the wedge/contract normal form of the ladder operators.

    For every index set I the coproduct splits xi^I across the two tensor
    slots (graded signs), the antipode weights the right slot, T acts on the
    left slot, and the surviving wedge monomial xi^M determines the
    normal-ordered word Q_{M} * P_{I} whose coefficients are read off
    exactly.
    """
    dim = 1 << n
    if not isinstance(T, Matrix):
        raise MatrixError("operator must be a Matrix, got %s" % type(T).__name__)
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
