"""Structure maps for the deformed algebras.

Everything here sits on top of the normal-form arithmetic in `ore`:

* the specialization at 0 identified with the odd Clifford-Weyl algebra
  (p = 2E-, q = 2E+),
* the rank-reduction tensor factorization over the even Clifford algebra,
  and its matrix realization,
* extraction of the first-order deformation cochain and its comparison
  with the antisymmetric volume-word cocycle,
* ghost/Casimir identities,
* the polynomial (one-variable) representation and its finite-dimensional
  quotients, with exact centralizer and commutant probes,
* the three-element orthosymplectic check around K = -1/4 w_odd + L.
"""

from fractions import Fraction

from .algebra import (
    AlgebraError,
    AlgebraSignature,
    CwMonomial,
    fermi_gen,
    monomial_element,
    zero,
)
from .linalg import Matrix, sparse_nullspace
from .ore import (
    OreElement,
    OreMonomial,
    ghost_theta,
    ore_anti_bracket,
    ore_e_minus,
    ore_e_plus,
    ore_fermi,
    ore_generators,
    ore_lambda,
    ore_lie_bracket,
    ore_product,
    ore_scalar,
    ore_super_bracket,
    ore_unit,
    ore_zero,
    specialize,
    specialized_product,
)
from .periodicity import TensorElement
from .reps import rep_matrix, spin
from .scalars import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Scalar,
    gaussian,
    i_power,
    scalar_i_power,
)
from .sparse import Checks, accumulate
from .starprod import element_star_words, star

_P0 = OreMonomial(1, 0, 0, 0)


def cw_odd_signature(n):
    """The Clifford-Weyl algebra matching the rank-n specialization at 0."""
    return AlgebraSignature(2 * n + 1, 1)


# -- specialization at 0 vs the odd Clifford-Weyl algebra --------------------------


def iso_a0_to_cw(n, a):
    """Identify a parameter-free rank-n element with C(2n+1, 2).

    E+ goes to q/2, E- to p/2 and the w_j are fixed; any occurrence of the
    central parameter is an error because the target is the specialization
    at 0.
    """
    if a.n != n:
        raise AlgebraError("rank mismatch: %d vs %d" % (a.n, n))
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


def iso_cw_to_a0(n, x):
    """Inverse identification: p goes to 2E-, q to 2E+, w_j fixed.

    Returns the canonical parameter-free representative (coefficient of
    the zeroth power after rewriting).
    """
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


# -- rank reduction over the even Clifford algebra ---------------------------------


def _ore_tensor_space(n):
    """C(2n) (x) A_L at rank 0: the space of the rank-n factorization."""
    return (AlgebraSignature(2 * n, 0), 0)


def ore_tensor_of(n, mask, m, coeff=GR_ONE):
    """The pure tensor coeff * w^mask (x) m in C(2n) (x) A_L."""
    return TensorElement(*_ore_tensor_space(n), {(CwMonomial(mask, (), ()), m): coeff})


def ore_tensor_unit(n):
    return ore_tensor_of(n, 0, OreMonomial(0, 0, 0, 0))


def _forward_images(n):
    """Tensor images of w_1..w_{2n+1}, E+, E-: every Fermi generator picks
    up the rank-0 involution on the right so that mixed pairs anticommute."""
    full = (1 << (2 * n)) - 1
    imgs = {}
    for i in range(1, 2 * n + 1):
        imgs[("w", i)] = ore_tensor_of(n, 1 << (i - 1), _P0)
    imgs[("w", 2 * n + 1)] = ore_tensor_of(n, full, _P0, i_power(n))
    imgs[("E+", 0)] = ore_tensor_of(n, 0, OreMonomial(0, 1, 0, 0))
    imgs[("E-", 0)] = ore_tensor_of(n, 0, OreMonomial(0, 0, 1, 0))
    return imgs


def periodicity2_forward(n, x):
    """Factor a rank-n element through C(2n) tensor A_L."""
    if x.n != n:
        raise AlgebraError("rank mismatch: %d vs %d" % (x.n, n))
    imgs = _forward_images(n)
    out = TensorElement(*_ore_tensor_space(n))
    for m, c in x.terms.items():
        acc = ore_tensor_of(n, 0, OreMonomial(0, 0, 0, m.lam))
        for i in m.cliff_indices():
            acc = acc * imgs[("w", i)]
        for _ in range(m.e_plus):
            acc = acc * imgs[("E+", 0)]
        for _ in range(m.e_minus):
            acc = acc * imgs[("E-", 0)]
        out = out + acc.scale(c)
    return out


def periodicity2_inverse(n, x):
    """Rebuild the rank-n element: the rank-0 involution returns as the
    full volume word i^n w_1...w_{2n+1}."""
    if not isinstance(x, TensorElement) or x.space != _ore_tensor_space(n):
        raise AlgebraError("expected a rank-%d tensor element" % n)
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


def periodicity2(n, direction, x):
    if direction == "forward":
        return periodicity2_forward(n, x)
    if direction == "inverse":
        return periodicity2_inverse(n, x)
    raise AlgebraError("direction must be 'forward' or 'inverse'")


def _gr_entry(s):
    try:
        return s.constant()
    except ValueError:
        raise AlgebraError("matrix entry involves the central parameter: %s" % s) from None


def ore_to_matrix(n, x):
    """The size-2^n matrix realization over A_L: factor through the tensor
    algebra and send the even Clifford factor to its irreducible matrices."""
    forward = periodicity2_forward(n, x)
    desc = spin(n)
    sig = desc.signature()
    dim = 1 << n
    mat_cache = {}
    entries = [[ore_zero(0) for _ in range(dim)] for _ in range(dim)]
    for (ml, m), c in forward.terms.items():
        M = mat_cache.get(ml)
        if M is None:
            M = rep_matrix(desc, monomial_element(sig, ml))
            mat_cache[ml] = M
        body = OreElement(0, {m: c.constant()})
        for i in range(dim):
            for j in range(dim):
                g = _gr_entry(M[i, j])
                if g:
                    entries[i][j] = entries[i][j] + body.scale(g)
    return Matrix(entries)


# -- first-order deformation cochain ------------------------------------------------


def deformation_cochain_c1(n, a, b):
    """Coefficient of the first power of the central parameter in the
    deformed product, transported back to C(2n+1, 2)."""
    prod = ore_product(iso_cw_to_a0(n, a), iso_cw_to_a0(n, b))
    return iso_a0_to_cw(n, prod.lam_coefficient(1))


def volume_word_element(n):
    """i^n w_1...w_{2n+1} inside C(2n+1, 2)."""
    sig = cw_odd_signature(n)
    full = (1 << (2 * n + 1)) - 1
    return monomial_element(sig, CwMonomial(full, (0,), (0,)), scalar_i_power(n))


def compare_cocycle(n):
    """Antisymmetrize the first-order cochain on generator pairs and match
    it against the volume-word cocycle.

    Returns a report whose "constant" entry is the single proportionality
    scalar on the Bose-Bose block (normalized so the (p, q) slot carries
    symplectic value 1); raises if the table is not proportional.
    """
    sig = cw_odd_signature(n)
    ws = [fermi_gen(sig, j) for j in range(1, 2 * n + 2)]
    from .algebra import bose_p, bose_q

    p1, q1 = bose_p(sig, 1), bose_q(sig, 1)
    gens = [("w%d" % (j + 1), w) for j, w in enumerate(ws)]
    gens += [("p1", p1), ("q1", q1)]
    table = {}
    for na, a in gens:
        for nb, b in gens:
            lhs = deformation_cochain_c1(n, a, b) - deformation_cochain_c1(n, b, a)
            table[(na, nb)] = lhs.scale(Scalar.from_gaussian(GaussianRational(Fraction(1, 2))))
    checks = Checks()
    vol = volume_word_element(n)
    # the (p1, q1) slot fixes the constant
    probe = table[("p1", "q1")]
    terms = list(probe.terms.items())
    if len(terms) != 1:
        raise AlgebraError("no-proportionality: %s" % probe)
    mono, coeff = terms[0]
    vmono, vcoeff = next(iter(vol.terms.items()))
    if mono != vmono:
        raise AlgebraError("no-proportionality: %s" % probe)
    constant = coeff.constant() * vcoeff.constant().inverse()
    sympl = {("p1", "q1"): 1, ("q1", "p1"): -1}
    for na, _ in gens:
        for nb, _ in gens:
            s = sympl.get((na, nb), 0)
            want = vol.scale(Scalar.from_gaussian(constant * GaussianRational(s))) if s else zero(sig)
            got = table[(na, nb)]
            ok = got == want
            if not ok and na.startswith(("p", "q")) and nb.startswith(("p", "q")):
                raise AlgebraError("no-proportionality at (%s, %s)" % (na, nb))
            checks.record(ok, [na, nb], got, want)
    return dict(checks.report("cocycle"), constant=constant)


# -- ghost and Casimir identities ---------------------------------------------------

_GHOST_SAMPLE_VALUES = (
    GaussianRational(Fraction(1)),
    GaussianRational(Fraction(2)),
    GaussianRational(Fraction(-3, 2)),
    GaussianRational(Fraction(0), Fraction(1)),
    GaussianRational(Fraction(1, 3), Fraction(-1, 2)),
)


def ghost_identities(n, lam_samples=_GHOST_SAMPLE_VALUES):
    """Exact checks of the distinguished involution-like element."""
    th = ghost_theta(n)
    ep, em = ore_e_plus(n), ore_e_minus(n)
    checks = Checks()
    checks.check(
        ["theta = 1/4 + [E+, E-]"],
        th,
        ore_scalar(n, Fraction(1, 4)) + ore_lie_bracket(ep, em),
    )
    checks.check(["theta E+ = -E+ theta"], ore_anti_bracket(th, ep), ore_zero(n))
    checks.check(["theta E- = -E- theta"], ore_anti_bracket(th, em), ore_zero(n))
    checks.check(["theta^2 = L^2"], ore_product(th, th), ore_lambda(n, 2))
    for i in range(1, 2 * n + 2):
        w = ore_fermi(n, i)
        checks.check(["[theta, w%d] = 0" % i], ore_lie_bracket(th, w), ore_zero(n))
    checks.check(["[theta, L] = 0"], ore_lie_bracket(th, ore_lambda(n)), ore_zero(n))
    casimir = ore_product(th, th) - ore_scalar(n, Fraction(1, 16))
    for name, g in [("w1", ore_fermi(n, 1)), ("E+", ep), ("E-", em), ("L", ore_lambda(n))]:
        checks.check(
            ["[theta^2 - 1/16, %s] = 0" % name], ore_lie_bracket(casimir, g), ore_zero(n)
        )
    for lam in lam_samples:
        if not lam:
            continue
        pbar = specialize(th.scale(lam.inverse()), lam)
        checks.check(
            ["(theta/lam)^2 = 1 at lam = %s" % Scalar.from_gaussian(lam)],
            specialized_product(pbar, pbar, lam),
            ore_unit(n),
        )
    return checks.report("ghost")


# -- the one-variable polynomial representation ------------------------------------


class PolyOperator:
    """Exact operator on one-variable polynomials.

    Polynomials are sparse maps {exponent: Gaussian rational}; the rule
    gives the image of each power and extends linearly.
    """

    __slots__ = ("rule",)

    def __init__(self, rule):
        object.__setattr__(self, "rule", rule)

    def __setattr__(self, name, value):
        raise AttributeError("PolyOperator is immutable")

    def apply(self, poly):
        out = {}
        for m, c in poly.items():
            c = gaussian(c)
            for mm, cc in self.rule(m).items():
                accumulate(out, mm, c * cc)
        return out


def poly_clean(poly):
    """Canonical sparse form of {exponent: coefficient}."""
    out = {}
    for m, c in poly.items():
        accumulate(out, m, gaussian(c))
    return out


def verma_operator(lam, token):
    """Generator action on polynomials: E+ is half-derivative minus lam
    times the odd-part difference quotient, E- multiplies by -z/2, P is
    the parity flip."""
    lam = gaussian(lam)
    if token == "E+":

        def rule(m):
            if m == 0:
                return {}
            c = GaussianRational(Fraction(m, 2))
            if m & 1:
                c = c - lam - lam
            return {m - 1: c} if c else {}

    elif token == "E-":

        def rule(m):
            return {m + 1: GaussianRational(Fraction(-1, 2))}

    elif token == "P":

        def rule(m):
            return {m: GaussianRational(Fraction(-1 if m & 1 else 1))}

    else:
        raise AlgebraError("unknown token %r" % (token,))
    return PolyOperator(rule)


def verma_apply(lam, a, f):
    """Apply a rank-0 element to a polynomial through the lam-action."""
    if a.n != 0:
        raise AlgebraError("rank-%d element: use the matrix transport instead" % a.n)
    lam = gaussian(lam)
    ops = {t: verma_operator(lam, t) for t in ("E+", "E-", "P")}
    out = {}
    for m, c in a.terms.items():
        g = poly_clean(f)
        for _ in range(m.e_minus):
            g = ops["E-"].apply(g)
        for _ in range(m.e_plus):
            g = ops["E+"].apply(g)
        if m.cliff:
            g = ops["P"].apply(g)
        coeff = c * lam**m.lam
        for mm, cc in g.items():
            accumulate(out, mm, cc * coeff)
    return out


# -- finite-dimensional quotients ---------------------------------------------------


def _check_half_integer(h):
    h = Fraction(h)
    if h < 0 or (2 * h).denominator != 1:
        raise AlgebraError("h must be a non-negative half-integer, got %s" % h)
    return h


def _rank0_quotient_matrices(h, twist):
    """Generator matrices of the polynomial action at lam = h + 1/4 on the
    span of z^0..z^{4h} (E+ kills z^{4h+1} at that weight), P negated for
    the minus sign."""
    d = int(4 * h) + 1
    out = {}
    for token in ("P", "E+", "E-"):
        rule = verma_operator(h + Fraction(1, 4), token).rule
        images = [rule(m) for m in range(d)]
        out[token] = Matrix([[images[m].get(r, 0) for m in range(d)] for r in range(d)])
    if twist < 0:
        out["P"] = -out["P"]
    return out


def _parse_sign(sign):
    if sign in ("+", 1, "plus"):
        return 1
    if sign in ("-", -1, "minus"):
        return -1
    raise AlgebraError("sign must be '+' or '-', got %r" % (sign,))


def pi_h_lambda(h, sign):
    """The specialization value carried by the quotient representation."""
    h = _check_half_integer(h)
    return GaussianRational(_parse_sign(sign) * (h + Fraction(1, 4)))


def pi_h_matrix(n, h, sign, x):
    """Evaluate any rank-n element in the dimension-2^n(4h+1) quotient."""
    h = _check_half_integer(h)
    twist = _parse_sign(sign)
    if x.n != n:
        raise AlgebraError("rank mismatch: %d vs %d" % (x.n, n))
    rank0 = _rank0_quotient_matrices(h, twist)
    lam_val = Scalar.from_gaussian(pi_h_lambda(h, sign))
    d0 = int(4 * h) + 1
    desc = spin(n)
    sig = desc.signature()
    dim_left = 1 << n
    forward = periodicity2_forward(n, x)
    left_cache = {}
    right_cache = {}
    total = None
    for (ml, m), c in forward.terms.items():
        L = left_cache.get(ml)
        if L is None:
            L = rep_matrix(desc, monomial_element(sig, ml))
            left_cache[ml] = L
        key = (m.cliff, m.e_plus, m.e_minus, m.lam)
        R = right_cache.get(key)
        if R is None:
            R = Matrix.identity(d0)
            if m.cliff:
                R = R * rank0["P"]
            for _ in range(m.e_plus):
                R = R * rank0["E+"]
            for _ in range(m.e_minus):
                R = R * rank0["E-"]
            for _ in range(m.lam):
                R = R.scale(lam_val)
            right_cache[key] = R
        piece = L.kron(R).scale(c)
        total = piece if total is None else total + piece
    return Matrix.identity(dim_left * d0).scale(0) if total is None else total


def finite_irrep_pi_h(n, h, sign):
    """Generator matrices of the finite quotient, keyed by generator name
    (the central parameter maps to its specialization times the identity)."""
    h = _check_half_integer(h)
    dim = (1 << n) * (int(4 * h) + 1)
    out = {}
    for i in range(1, 2 * n + 2):
        out["w%d" % i] = pi_h_matrix(n, h, sign, ore_fermi(n, i))
    out["E+"] = pi_h_matrix(n, h, sign, ore_e_plus(n))
    out["E-"] = pi_h_matrix(n, h, sign, ore_e_minus(n))
    out["L"] = Matrix.identity(dim).scale(Scalar.from_gaussian(pi_h_lambda(h, sign)))
    return out


def matrix_direct_sum(a, b):
    ra, ca = a.shape
    rb, cb = b.shape
    z = Scalar()
    rows = []
    for i in range(ra):
        rows.append(list(a.rows[i]) + [z] * cb)
    for i in range(rb):
        rows.append([z] * ca + list(b.rows[i]))
    return Matrix(rows)


def rep_direct_sum(rep_a, rep_b):
    if set(rep_a) != set(rep_b):
        raise AlgebraError("generator sets differ")
    return {k: matrix_direct_sum(rep_a[k], rep_b[k]) for k in rep_a}


# -- exact structure probes ---------------------------------------------------------


def bounded_monomials(n, max_total_degree):
    """All normal-form monomials with Fermi+Bose degree plus twice the
    central power at most the bound, in canonical order."""
    width = 2 * n + 1
    out = []
    for mask in range(1 << width):
        base = mask.bit_count()
        if base > max_total_degree:
            continue
        for r in range((max_total_degree - base) // 2 + 1):
            rest = max_total_degree - base - 2 * r
            for a in range(rest + 1):
                for b in range(rest - a + 1):
                    out.append(OreMonomial(mask, a, b, r))
    out.sort(key=lambda m: (m.degree(), m.lam, m.cliff, m.e_plus, m.e_minus))
    return out


def center_probe(n, max_total_degree):
    """Basis of the degree-bounded solutions of [x, generator] = 0."""
    monos = bounded_monomials(n, max_total_degree)
    gens = ore_generators(n)
    rows = {}
    for gi, g in enumerate(gens):
        for m in monos:
            comm = ore_lie_bracket(OreElement(n, {m: GR_ONE}), g)
            for rm, c in comm.terms.items():
                rows.setdefault((gi, rm), {})[m] = c
    basis = sparse_nullspace([rows[k] for k in sorted(rows)], monos)
    return [OreElement(n, vec) for vec in basis]


def commutant_probe(rep):
    """Dimension of {X : [X, M] = 0 for every generator matrix M}."""
    mats = [rep[k] for k in sorted(rep)] if isinstance(rep, dict) else list(rep)
    if not mats:
        raise AlgebraError("empty representation")
    d = mats[0].shape[0]
    variables = [(i, j) for i in range(d) for j in range(d)]
    rows = []
    for M in mats:
        if M.shape != (d, d):
            raise AlgebraError("mixed matrix sizes")
        G = [[_gr_entry(x) for x in row] for row in M.rows]
        for i in range(d):
            for j in range(d):
                row = {}
                for k in range(d):
                    if G[k][j]:
                        accumulate(row, (i, k), G[k][j])
                    if G[i][k]:
                        accumulate(row, (k, j), -G[i][k])
                if row:
                    rows.append(row)
    return len(sparse_nullspace(rows, variables))


# -- the three-element orthosymplectic check ---------------------------------------


def osp22_k_element(n):
    """K = -1/4 i^n w_1...w_{2n+1} + L."""
    full = (1 << (2 * n + 1)) - 1
    quarter = i_power(n) * GaussianRational(Fraction(-1, 4))
    return OreElement(n, {OreMonomial(full, 0, 0, 0): quarter}) + ore_lambda(n)


def osp22_check(n):
    """Exact triple-bracket law on {K, E+, E-} with the stated pairing."""
    K = osp22_k_element(n)
    ep, em = ore_e_plus(n), ore_e_minus(n)
    basis = [("K", K, 0), ("E+", ep, 1), ("E-", em, 1)]
    form = {
        ("K", "K"): GaussianRational(Fraction(1, 8)),
        ("E+", "E-"): GaussianRational(Fraction(-1, 4)),
        ("E-", "E+"): GaussianRational(Fraction(1, 4)),
    }
    checks = Checks()
    for nx, x, px in basis:
        for ny, y, py in basis:
            for nz, z, pz in basis:
                lhs = ore_super_bracket(ore_super_bracket(x, y), z)
                cyz = form.get((ny, nz), GR_ZERO)
                cxz = form.get((nx, nz), GR_ZERO)
                rhs = x.scale(cyz + cyz) - y.scale(cxz + cxz).scale(
                    GaussianRational(-1 if px and py else 1)
                )
                checks.check([nx, ny, nz], lhs, rhs)
    return checks.report("osp22")
