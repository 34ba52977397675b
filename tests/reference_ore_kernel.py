"""Reference normal form of E-^beta E+^gamma, and product, in the deformed algebras.

`ref_lower_past_powers` is the library's earlier recursive kernel, kept as
an independent oracle for `cliffordweyl.ore._lower_past_powers`, which now
iterates with integer numerators.  It peels one E- at a time and recurses
once per E- power, so it is only for moderate beta.

`ref_ore_product` is the library's earlier product loop, which applied the
signs and the ghost pairing to each term and accumulated it in place; the
library now gets a pair's terms from `ore.pair_kernel` and sums them in
`sparse.pair_product`.  Here the Fermi words are reduced by the reference
`_fermi_word` and E-^beta E+^gamma by `ref_lower_past_powers`, so no
library kernel is involved.
"""

from functools import lru_cache

from reference_weyl_kernel import _fermi_word

from cliffordweyl.ore import OreElement, OreMonomial
from cliffordweyl.scalars import GR_ONE, gr_ratio, i_power
from cliffordweyl.sparse import accumulate


@lru_cache(maxsize=None)
def ref_lower_past_powers(beta, gamma):
    """Normal form of E-^beta E+^gamma.

    Terms are (q, a, eps, b, extra) meaning q * E+^a ghost^eps E-^b L^extra
    with eps in {0,1} and q a real GaussianRational, sorted by (a, eps, b, extra).
    """
    if beta == 0:
        return ((GR_ONE, gamma, 0, 0, 0),)
    acc = {}
    for q, a, eps, b, extra in ref_lower_past_powers(beta - 1, gamma):
        # E- E+^a = E+^a E- + (a/4) E+^{a-1} - [a odd] E+^{a-1} ghost,
        # then E- ghost = -ghost E- and ghost^2 = L^2
        accumulate(acc, (a, eps, b + 1, extra), -q if eps else q)
        if a:
            accumulate(acc, (a - 1, eps, b, extra), q * gr_ratio(a, 4))
            if a & 1:
                if eps:
                    accumulate(acc, (a - 1, 0, b, extra + 2), -q)
                else:
                    accumulate(acc, (a - 1, 1, b, extra), -q)
    return tuple((q, a, e, b, x) for (a, e, b, x), q in sorted(acc.items()))


def ref_ore_product(x, y):
    """x * y, one monomial pair and one normal-form term at a time."""
    n = x.n
    full = (1 << (2 * n + 1)) - 1
    ghost_coeff = i_power(n)
    out = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            # w^J of the right factor passes the E-block of the left factor
            sign, _, mask = _fermi_word(m1.cliff, m2.cliff)
            if (m1.e_plus + m1.e_minus) & 1 and m2.cliff.bit_count() & 1:
                sign = -sign
            base = c1 * c2 * sign
            lam = m1.lam + m2.lam
            for q, a, eps, b, extra in ref_lower_past_powers(m1.e_minus, m2.e_plus):
                e_plus = m1.e_plus + a
                if eps:
                    # ghost = i^n w_full L passes E+^e_plus, then pairs into the Fermi word
                    gsign, _, gmask = _fermi_word(mask, full)
                    g = base * ghost_coeff * (-gsign if e_plus & 1 else gsign)
                    accumulate(out, OreMonomial(gmask, e_plus, b + m2.e_minus, lam + extra + 1), g * q)
                else:
                    accumulate(out, OreMonomial(mask, e_plus, b + m2.e_minus, lam + extra), base * q)
    return OreElement(n, out)
