"""Reference transport maps: the library's earlier generator-image extensions.

Each map names the images of the generators and extends to an element
through its exact star-word decomposition (`reference_act.element_star_words`),
multiplying the images one token at a time with `tensor_star`, `star` or
`ore_product`.  The library's maps instead send each basis monomial to its
one-term image in closed form; `test_transport.py` checks that the two agree.
"""

from cliffordweyl.algebra import (
    AlgebraError,
    AlgebraSignature,
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
from cliffordweyl.periodicity import (
    TensorElement,
    tensor_of,
    tensor_star,
    tensor_unit,
    tensor_zero,
    volume_involution,
)
from cliffordweyl.scalars import GR_ONE, GR_ZERO, i_power
from cliffordweyl.starprod import star
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
