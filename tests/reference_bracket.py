"""The graded bracket by splitting and summing, an oracle for the one-pass bracket.

`ref_graded_bracket` is the library's earlier bracket: it splits both
arguments into parts homogeneous under `degree` and, for each pair of
parts (da, db), adds the anticommutator x*y + y*x when odd(da, db) holds
and the commutator x*y - y*x otherwise, each through two full products
(`*`, so `star` or `ore_product`).  The library now reads the bracket off
one pass of the family's bracket kernel.

`GRADINGS` names the (degree, odd) pairs the package brackets by, and the
total degree mod 2, for both families.
"""

from cliffordweyl.algebra import bidegree
from cliffordweyl.ore import OreMonomial


def homogeneous_parts(x, degree):
    """{value: the part of x whose keys k have degree(k) == value}."""
    parts = {}
    for k, c in x.terms.items():
        parts.setdefault(degree(k), {})[k] = c
    return {v: x.raw(x.space, p) for v, p in parts.items()}


def ref_graded_bracket(a, b, degree, odd):
    a._check_space(b)
    out = a.raw(a.space, {})
    for da, xa in homogeneous_parts(a, degree).items():
        for db, xb in homogeneous_parts(b, degree).items():
            ab, ba = xa * xb, xb * xa
            out = out + (ab + ba if odd(da, db) else ab - ba)
    return out


def _no_degree(m):
    return 0


# name -> (cw degree, ore degree, odd); "lie" and "anti" do not split
GRADINGS = {
    "lie": (_no_degree, _no_degree, lambda da, db: False),
    "anti": (_no_degree, _no_degree, lambda da, db: True),
    "super": (lambda m: m.bose_degree() & 1, OreMonomial.bose_parity, lambda da, db: da and db),
    "twisted-adjoint": (bidegree, None, lambda da, db: (da.delta2 * db.delta2 + da.delta1) & 1),
    "total": (lambda m: m.z_degree() & 1, lambda m: m.degree() & 1, lambda da, db: da and db),
}
