"""Reference normal form of E-^beta E+^gamma in the deformed algebras.

This is the library's earlier recursive kernel, kept as an independent
oracle for `cliffordweyl.ore._lower_past_powers`, which now iterates with
integer numerators.  It peels one E- at a time and recurses once per E-
power, so it is only for moderate beta.
"""

from functools import lru_cache

from cliffordweyl.scalars import GR_ONE, gr_ratio


@lru_cache(maxsize=None)
def ref_lower_past_powers(beta, gamma):
    """Normal form of E-^beta E+^gamma.

    Terms are (q, a, eps, b, extra) meaning q * E+^a ghost^eps E-^b L^extra
    with eps in {0,1} and q a real GaussianRational, sorted by (a, eps, b, extra).
    """
    if beta == 0:
        return ((GR_ONE, gamma, 0, 0, 0),)
    acc = {}

    def add(key, q):
        s = acc.get(key)
        s = q if s is None else s + q
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)

    for q, a, eps, b, extra in ref_lower_past_powers(beta - 1, gamma):
        # E- E+^a = E+^a E- + (a/4) E+^{a-1} - [a odd] E+^{a-1} ghost,
        # then E- ghost = -ghost E- and ghost^2 = L^2
        add((a, eps, b + 1, extra), -q if eps else q)
        if a:
            add((a - 1, eps, b, extra), q * gr_ratio(a, 4))
            if a & 1:
                if eps:
                    add((a - 1, 0, b, extra + 2), -q)
                else:
                    add((a - 1, 1, b, extra), -q)
    return tuple((q, a, e, b, x) for (a, e, b, x), q in sorted(acc.items()))
