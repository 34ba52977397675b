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

from .algebra import (
    AlgebraError,
    AlgebraSignature,
    bidegree,
    bose_p,
    bose_q,
    check_same_signature,
    element_bidegree,
    fermi_gen,
    unit,
    z_degree,
    zero,
)
from .linalg import add_row, reduce_row, sparse_rref
from .scalars import Scalar, split_powers
from .sparse import Checks
from .starprod import poisson, star, super_bracket


class OspContext:
    """Degree-one generators of one algebra, split by Bose parity."""

    __slots__ = ("signature", "v0_basis", "v1_basis")

    def __init__(self, signature):
        n, k = signature.n_fermi, signature.n_bose
        object.__setattr__(self, "signature", signature)
        object.__setattr__(
            self, "v0_basis", [fermi_gen(signature, i) for i in range(1, n + 1)]
        )
        object.__setattr__(
            self,
            "v1_basis",
            [bose_p(signature, j) for j in range(1, k + 1)]
            + [bose_q(signature, j) for j in range(1, k + 1)],
        )

    def __setattr__(self, name, value):
        raise AttributeError("OspContext is immutable")

    def v_basis(self):
        return self.v0_basis + self.v1_basis

    def h_basis(self):
        """Basis of C + V: the unit first, then the generators."""
        return [unit(self.signature)] + self.v_basis()


def split_constant_and_v(x):
    """Decompose an element of C + V; reject anything of symbol degree > 1."""
    const = Scalar()
    v_part = zero(x.signature)
    for m, c in x.terms.items():
        d = z_degree(m)
        if d == 0:
            const = const + c
        elif d == 1:
            v_part = v_part + x.__class__(x.signature, {m: c})
        else:
            raise AlgebraError("element leaves C + V: degree-%d monomial %r" % (d, m))
    return const, v_part


def form(ctx, x, y):
    """The invariant bilinear form on C + V (a Scalar)."""
    cx, vx = split_constant_and_v(x)
    cy, vy = split_constant_and_v(y)
    return poisson(vx, vy).constant_term() - (cx * cy) * Scalar.of(2)


def twisted_adjoint(a, b):
    """a * b - (-1)^(d2(a)d2(b) + d1(a)) b * a, extended bilinearly.

    Each argument is split into parity-homogeneous components first, so
    non-homogeneous inputs are handled by linearity rather than rejected.
    """
    check_same_signature(a, b)
    out = zero(a.signature)
    for da, xa in sorted(a.homogeneous_parts(bidegree).items()):
        for db, xb in sorted(b.homogeneous_parts(bidegree).items()):
            sign = (da.delta2 * db.delta2 + da.delta1) & 1
            right = star(xb, xa)
            out = out + star(xa, xb) + (right if sign else -right)
    return out


# -- the subalgebra g = V + [V, V] ------------------------------------------------


def element_row(x):
    """Flatten an element to a sparse row keyed by (monomial, L-power)."""
    return split_powers(x.terms)


def independent_subset(elements):
    """Indices of a maximal independent prefix-greedy subset, smallest-monomial pivots."""
    pivots = {}
    keep = []
    for idx, x in enumerate(elements):
        if add_row(pivots, element_row(x)):
            keep.append(idx)
    return keep


def span_contains(elements, x):
    return not reduce_row(sparse_rref(map(element_row, elements)), element_row(x))


def build_g(ctx):
    """Linear basis of V + [V, V] with its component dimensions.

    Candidates are generated deterministically (V first, then the three
    bracket blocks) and reduced by Gaussian elimination pivoting on the
    smallest monomial, so the returned basis is reproducible.
    """
    v0, v1 = ctx.v0_basis, ctx.v1_basis
    blocks = [("v0", v0), ("v1", v1)]
    b00 = [
        super_bracket(v0[i], v0[j])
        for i in range(len(v0))
        for j in range(i + 1, len(v0))
    ]
    b11 = [
        super_bracket(v1[i], v1[j])
        for i in range(len(v1))
        for j in range(i, len(v1))
    ]
    b01 = [super_bracket(x, y) for x in v0 for y in v1]
    blocks += [("v0v0", b00), ("v1v1", b11), ("v0v1", b01)]

    basis = []
    dims = {}
    pivots = {}
    for name, cands in blocks:
        count = 0
        for x in cands:
            if add_row(pivots, element_row(x)):
                basis.append(x)
                count += 1
        dims[name] = count
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
    gens = ctx.v_basis()
    checks = Checks()
    for x in gens:
        d2x = element_bidegree(x).delta2
        for y in gens:
            d2y = element_bidegree(y).delta2
            bxy = super_bracket(x, y)
            sgn = -1 if d2x and d2y else 1
            for z in gens:
                lhs = super_bracket(bxy, z)
                cyz = poisson(y, z).constant_term()
                cxz = poisson(x, z).constant_term()
                rhs = x.scale(cyz + cyz) - y.scale(cxz + cxz).scale(sgn)
                checks.check([x, y, z], lhs, rhs)
    return checks.report("parastatistics")


def verify_invariance(ctx):
    """Stability of C + V under the twisted action of g, and skew-invariance."""
    g_basis, _dim, _dims = build_g(ctx)
    h = ctx.h_basis()
    checks = Checks()
    for a in g_basis:
        d2a = element_bidegree(a).delta2
        images = []
        for zv in h:
            img = twisted_adjoint(a, zv)
            inside = all(z_degree(m) <= 1 for m in img.terms)
            checks.record(inside, ["ad'(%s)" % a, zv], img, "element of C + V")
            images.append(img if inside else None)
        for iz, zv in enumerate(h):
            if images[iz] is None:
                continue
            d2z = element_bidegree(zv).delta2
            sign = 1 if d2z and d2a else -1
            for it, tv in enumerate(h):
                if images[it] is None:
                    continue
                lhs = form(ctx, images[iz], tv)
                rhs = form(ctx, zv, images[it])
                checks.check([a, zv, tv], lhs, rhs if sign == 1 else -rhs)
    return checks.report("twisted-invariance")
