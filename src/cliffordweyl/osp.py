"""The orthosymplectic subalgebra generated by the degree-one symbols.

V is the span of the generators, graded by Bose parity into V0 (the w_i)
and V1 (the p_a, q_a).  Under the parity-graded bracket, g = V + [V, V]
closes into a Lie superalgebra of dimension

    n(n+1)/2 + 2(n+1)k + k(2k+1),

and C + V carries an invariant bilinear form with (1|1) = -2, (1|V) = 0 and
(X|Y) = {X,Y} on V.  The twisted adjoint action differs from the graded
bracket by an extra total-parity sign on the acting element, which is what
keeps C + V stable.
"""

from itertools import combinations, combinations_with_replacement

from .algebra import (
    AlgebraError,
    bidegree,
    element_bidegree,
    generators,
    unit,
    z_degree,
    zero,
)
from .linalg import add_row
from .scalars import split_powers
from .sparse import Checks, accumulate, graded_bracket, super_bracket, triple_bracket_law
from .starprod import poisson


class OspContext:
    """Degree-one generators of one algebra, split by Bose parity, and the
    invariant form on C + V as {(monomial, monomial): nonzero Gaussian rational}."""

    __slots__ = ("signature", "v0_basis", "v1_basis", "form_table")

    def __init__(self, signature):
        gens, n = generators(signature), signature.n_fermi
        v0, v1 = gens[:n], gens[n:]
        for name, value in (("signature", signature), ("v0_basis", v0), ("v1_basis", v1)):
            object.__setattr__(self, name, value)
        # (X|Y) is the value at 0 of {X,Y} on a pair of generators, each one
        # monomial; (1|1) = -2, and a pair the table leaves out, such as (1|V), is 0
        gens, one = self.v_basis(), unit(signature).unit_key()
        table = {(one, one): -2}
        for x in gens:
            for y in gens:
                accumulate(table, (*x.terms, *y.terms), poisson(x, y).constant_term().constant())
        object.__setattr__(self, "form_table", table)

    def __setattr__(self, name, value):
        raise AttributeError("OspContext is immutable")

    def v_basis(self):
        return self.v0_basis + self.v1_basis

    def h_basis(self):
        """Basis of C + V: the unit first, then the generators."""
        return [unit(self.signature)] + self.v_basis()


def split_constant_and_v(x):
    """Decompose an element of C + V; reject anything of symbol degree > 1."""
    v_part = {}
    for m, c in x.terms.items():
        d = z_degree(m)
        if d > 1:
            raise AlgebraError("element leaves C + V: degree-%d monomial %r" % (d, m))
        if d == 1:
            v_part[m] = c
    return x.constant_term(), x.raw(x.signature, v_part)


def form(ctx, x, y):
    """The invariant bilinear form on C + V, a coefficient of the algebra."""
    split_constant_and_v(x), split_constant_and_v(y)  # reject anything outside C + V
    return _form(ctx.form_table, x, y)


def _form(table, x, y):
    """The form on two elements of C + V, read bilinearly off the table; the
    sum starts at the zero coefficient, the constant term of zero."""
    pairs = ((mx, cx, my, cy) for mx, cx in x.terms.items() for my, cy in y.terms.items())
    start = zero(x.signature).constant_term()
    return sum((cx * cy * table[mx, my] for mx, cx, my, cy in pairs if (mx, my) in table), start)


def twisted_adjoint(a, b):
    """a * b - (-1)^(d2(a)d2(b) + d1(a)) b * a, extended bilinearly.

    The sign is read per pair of terms, so non-homogeneous inputs are
    handled by linearity rather than rejected.
    """
    return graded_bracket(a, b, bidegree, lambda da, db: (da.delta2 * db.delta2 + da.delta1) & 1)


# -- the subalgebra g = V + [V, V] ------------------------------------------------


def element_row(x):
    """Flatten an element to a sparse row keyed by (monomial, L-power)."""
    return dict(split_powers(x.terms))


def build_g(ctx):
    """Linear basis of V + [V, V] with its component dimensions.

    Candidates are generated deterministically (V first, then the three
    bracket blocks) and reduced by Gaussian elimination pivoting on the
    smallest monomial, so the returned basis is reproducible.
    """
    v0, v1 = ctx.v0_basis, ctx.v1_basis
    blocks = [
        ("v0", v0),
        ("v1", v1),
        ("v0v0", [super_bracket(x, y) for x, y in combinations(v0, 2)]),
        ("v1v1", [super_bracket(x, y) for x, y in combinations_with_replacement(v1, 2)]),
        ("v0v1", [super_bracket(x, y) for x in v0 for y in v1]),
    ]
    basis, dims, pivots = [], {}, {}
    for name, cands in blocks:
        new = [x for x in cands if add_row(pivots, element_row(x))]
        basis += new
        dims[name] = len(new)
    dims["even"] = dims["v0"] + dims["v0v0"] + dims["v1v1"]
    dims["odd"] = dims["v1"] + dims["v0v1"]
    dims["total"] = len(basis)
    return basis, len(basis), dims


def expected_dimension(n, k):
    """n(n+1)/2 + 2(n+1)k + k(2k+1), the target for build_g's total."""
    return n * (n + 1) // 2 + 2 * (n + 1) * k + k * (2 * k + 1)


# -- verification reports ----------------------------------------------------------


def verify_ps(ctx):
    """Check [[X,Y],Z] = 2({Y,Z}X - (-1)^(d2 d2){X,Z}Y) on all generator triples."""
    # each generator is its own label, keyed by its one monomial
    basis = [(g, g, *g.terms, element_bidegree(g).delta2) for g in ctx.v_basis()]
    return triple_bracket_law(basis, ctx.form_table, super_bracket).report("parastatistics")


def _form_rows(table, x):
    """x's two rows of the form, read off the table by monomial m of V or
    the unit: {m: (x|m)} and {m: (m|x)}, with no entry where it is 0."""
    left, right = {}, {}
    for (u, v), f in table.items():
        if u in x.terms:
            accumulate(left, v, x.terms[u] * f)
        if v in x.terms:
            accumulate(right, u, f * x.terms[v])
    return left, right


def verify_invariance(ctx):
    """Stability of C + V under the twisted action of g, and skew-invariance.

    For each a of `build_g`'s basis and each z of C + V's basis (the unit and
    the generators, one monomial each), one case that ad'(a) z lies in C + V;
    then for each pair (z, t) whose images both do, one case (ad'(a) z | t)
    = -(z | ad'(a) t), + when a and z are both Bose-odd, read off `_form_rows`."""
    g_basis, _dim, _dims = build_g(ctx)
    h, table, zero_form = ctx.h_basis(), ctx.form_table, zero(ctx.signature).constant_term()
    keys = [m for x in h for m in x.terms]
    checks = Checks()
    for a in g_basis:
        d2a, label = element_bidegree(a).delta2, "ad'(%s)" % a
        rows = []  # per z: the rows (ad'(a) z | .) and (. | ad'(a) z), None outside C + V
        for zv in h:
            img = twisted_adjoint(a, zv)
            inside = all(z_degree(m) <= 1 for m in img.terms)
            checks.record(inside, [label, zv], img, "element of C + V")
            rows.append(_form_rows(table, img) if inside else None)
        for iz, zv in enumerate(h):
            if rows[iz] is None:
                continue
            sign = 1 if d2a and element_bidegree(zv).delta2 else -1
            for it, tv in enumerate(h):
                if rows[it] is None:
                    continue
                lhs = rows[iz][0].get(keys[it], zero_form)
                rhs = rows[it][1].get(keys[iz], zero_form)
                checks.check([a, zv, tv], lhs, rhs if sign == 1 else -rhs)
    return checks.report("twisted-invariance")
