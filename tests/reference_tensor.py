"""Reference tensor product: the library's earlier slot-by-slot loop.

For each pair of terms it multiplies one-term elements in each slot, through
the reference products `reference_weyl_kernel.star` (a Clifford-Weyl slot)
and `reference_ore_kernel.ref_ore_product` (a deformed slot), and multiplies
the two results out term by term.  `periodicity.tensor_star` instead takes
the product of the two factors' pair-kernel lists and sums it in
`sparse.pair_product`.
"""

from reference_ore_kernel import ref_ore_product
from reference_weyl_kernel import star as ref_star

from cliffordweyl.algebra import CwElement
from cliffordweyl.ore import OreElement
from cliffordweyl.periodicity import TensorElement
from cliffordweyl.sparse import accumulate


def _slot_product(space, m1, m2):
    if isinstance(space, int):
        return ref_ore_product(OreElement(space, {m1: 1}), OreElement(space, {m2: 1}))
    return ref_star(CwElement(space, {m1: 1}), CwElement(space, {m2: 1}))


def ref_tensor_star(x, y):
    """(a (x) b)(a' (x) b') = (a * a') (x) (b * b'), with no crossing sign."""
    ls, rs = x.space
    out = {}
    for (al, ar), c1 in x.terms.items():
        for (bl, br), c2 in y.terms.items():
            left, right = _slot_product(ls, al, bl), _slot_product(rs, ar, br)
            base = c1 * c2
            for ml, cl in left.terms.items():
                for mr, cr in right.terms.items():
                    accumulate(out, (ml, mr), base * cl * cr)
    return TensorElement(ls, rs, out)
