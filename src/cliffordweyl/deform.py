"""Structure maps for the deformed algebras.

Everything here sits on top of the normal-form arithmetic in `ore`:

* the specialization at 0 identified with the odd Clifford-Weyl algebra
  (p = 2E-, q = 2E+), both ways in closed form: a monomial goes to the
  normal-ordered terms of one mode's reordering (`starprod._mode_words`),
  with no product,
* the rank-reduction tensor factorization over the even Clifford algebra,
  which sends each monomial to one pure tensor, and its matrix realization
  (`periodicity._realize_left`, as for `cw_to_matrix`),
* extraction of the first-order deformation cochain and its comparison
  with the antisymmetric volume-word cocycle,
* ghost/Casimir identities,
* the polynomial (one-variable) representation and its finite-dimensional
  quotients, in closed form: a monomial w^I E+^a E-^b L^r sends z^m to one
  multiple of z^(m+b-a), so neither acts generator by generator; pi_h reads
  each entry of `ore_to_matrix` through that rank-0 quotient, one cached
  diagonal per monomial, and refuses a dimension above MAX_QUOTIENT_DIMENSION,
* exact center and commutant probes; the center probe refuses a degree
  bound with more than MAX_PROBE_MONOMIALS monomials,
* the three-element orthosymplectic check around K = -1/4 w_odd + L.
"""

from fractions import Fraction
from itertools import chain, combinations, islice

from .algebra import (
    AlgebraError,
    AlgebraSignature,
    CwElement,
    CwMonomial,
    _check_size,
    generators,
    index_mask,
    monomial_element,
    zero,
)
from .linalg import Matrix, add_row, reduce_row, sparse_nullspace
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
from .periodicity import TensorElement, _check_dimension, _realize_left, _times_volume
from .scalars import GR_ONE, GaussianRational, format_coefficient, gaussian, gr_ratio, i_power
from .sparse import Checks, accumulate, expect_element, kernel, triple_bracket_law
from .starprod import _mode_words
from .textform import monomial_order


def cw_odd_signature(n):
    """The Clifford-Weyl algebra matching the rank-n specialization at 0."""
    return AlgebraSignature(2 * _check_size("rank", n) + 1, 1)


# -- specialization at 0 vs the odd Clifford-Weyl algebra --------------------------


def iso_a0_to_cw(n, a):
    """Identify a parameter-free rank-n element with C(2n+1, 2).

    E+ goes to q/2, E- to p/2 and the w_j are fixed; any occurrence of the
    central parameter is an error because the target is the specialization
    at 0.
    """
    expect_element(a, OreElement, n)
    out = {}
    for m, c in a.terms.items():
        if m.lam:
            raise AlgebraError("central parameter present: %r" % (m,))
        # w^I E+^a E-^b -> 2^-(a+b) w^I q^a * p^b, and at t = 1 q^a * p^b is the sum
        # over s of (-1/2)^s C(a,s) perm(b,s) p^(b-s) q^(a-s): `_mode_words` of p^b q^a
        # with the sign of each odd order flipped
        e = m.e_plus + m.e_minus
        for s, num, q_exp, p_exp in _mode_words(m.e_minus, m.e_plus):
            coeff = c * gr_ratio(-num if s & 1 else num, 1 << (e + s))
            accumulate(out, CwMonomial(m.cliff, (p_exp,), (q_exp,)), coeff)
    ring = CwElement._ring
    return CwElement.raw(cw_odd_signature(n), {m: ring(g) for m, g in out.items()})


def iso_cw_to_a0(n, x):
    """Inverse identification: p goes to 2E-, q to 2E+, w_j fixed.

    Returns the canonical parameter-free representative (coefficient of
    the zeroth power after rewriting); a coefficient that involves the
    central parameter is an error.
    """
    expect_element(x, CwElement, cw_odd_signature(n))
    out = {}
    for m, c in x.terms.items():
        g, a, b = c.constant(), m.wp[0], m.wq[0]
        # w^I p^a q^b = sum over r of 2^-r C(b,r) perm(a,r) w^I * q^(b-r) * p^(a-r) at
        # t = 1; each q and p brings a 2, and w^I E+^(b-r) E-^(a-r) is a normal form
        for r, num, e_plus, e_minus in _mode_words(a, b):
            e = a + b - 3 * r
            coeff = g * gr_ratio(num << max(e, 0), 1 << max(-e, 0))
            accumulate(out, OreMonomial(m.cliff, e_plus, e_minus, 0), coeff)
    return OreElement.raw(n, out)


# -- rank reduction over the even Clifford algebra ---------------------------------


def _ore_tensor_space(n):
    """C(2n) (x) A_L at rank 0: the space of the rank-n factorization."""
    return (AlgebraSignature(2 * n, 0), 0)


def periodicity2_forward(n, x):
    """Factor a rank-n element through C(2n) tensor A_L, one term per monomial."""
    expect_element(x, OreElement, n)
    low = (1 << (2 * n)) - 1
    # w^I E+^a E-^b L^r -> w^(I & low) (i^n w_low)^[2n+1 in I] (x) P^(|I| mod 2) E+^a E-^b L^r:
    # every w_j brings one P = w_1 of rank 0, P^2 = 1, the tensor has no crossing
    # sign, and P^eps E+^a E-^b L^r is a rank-0 normal form
    terms, ring = {}, TensorElement._ring
    for m, c in x.terms.items():
        mask = m.cliff & low
        if m.cliff >> (2 * n):
            g, mask = _times_volume(mask, 2 * n)
            c = c * g
        rest = OreMonomial(m.cliff.bit_count() & 1, m.e_plus, m.e_minus, m.lam)
        terms[CwMonomial(mask, (), ()), rest] = ring(c)
    return TensorElement.raw(_ore_tensor_space(n), terms)


def periodicity2_inverse(n, x):
    """Rebuild the rank-n element: the rank-0 involution returns as the
    full volume word i^n w_1...w_{2n+1}.  Its L lives in the monomials, so
    a coefficient that involves L is an error."""
    expect_element(x, TensorElement, _ore_tensor_space(n))
    # w^X (x) P^eps E+^a E-^b L^r -> w^X vol^[|X| + eps odd] E+^a E-^b L^r:
    # w_j (x) 1 comes from w_j vol and 1 (x) P from vol, vol^2 = 1, and vol
    # commutes with every w_j
    out = {}
    for (ml, m), c in x.terms.items():
        mask, g = ml.cliff, c.constant()
        if (mask.bit_count() + m.cliff) & 1:
            v, mask = _times_volume(mask, 2 * n + 1)
            g = g * v
        out[OreMonomial(mask, m.e_plus, m.e_minus, m.lam)] = g
    return OreElement.raw(n, out)


def ore_to_matrix(n, x):
    """The size-2^n realization over A_L, 2^n at most MAX_QUOTIENT_DIMENSION;
    an entry term c * s is never zero, since Q(i)[L] has no zero divisors."""
    _check_dimension("realization", 1 << _check_size("rank", n))
    X = periodicity2_forward(n, x)
    return _realize_left(n, X, lambda m, c: OreElement.raw(0, {m: c.constant()}), ore_zero(0))


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
    return monomial_element(sig, CwMonomial(full, (0,), (0,)), i_power(n))


def compare_cocycle(n):
    """Antisymmetrize the first-order cochain on generator pairs and match
    it against the volume-word cocycle.

    Returns a report whose "constant" entry is the single proportionality
    scalar on the Bose-Bose block (normalized so the (p, q) slot carries
    symplectic value 1), or None when the (p1, q1) slot is not one nonzero
    multiple of the volume word; the two symplectic slots then fail.
    """
    sig = cw_odd_signature(n)
    names = ["w%d" % j for j in range(1, 2 * n + 2)] + ["p1", "q1"]
    gens = list(zip(names, generators(sig)))
    table = {}
    for na, a in gens:
        for nb, b in gens:
            lhs = deformation_cochain_c1(n, a, b) - deformation_cochain_c1(n, b, a)
            table[(na, nb)] = lhs.scale(Fraction(1, 2))
    checks = Checks()
    vol = volume_word_element(n)
    # the (p1, q1) slot fixes the constant
    probe, ((vmono, vcoeff),) = table[("p1", "q1")], vol.terms.items()
    coeff = probe.terms.get(vmono) if len(probe.terms) == 1 else None
    constant = coeff.constant() * vcoeff.constant().inverse() if coeff else None
    sympl = {("p1", "q1"): 1, ("q1", "p1"): -1}
    for na, _ in gens:
        for nb, _ in gens:
            s, got = sympl.get((na, nb), 0), table[(na, nb)]
            if s and constant is None:
                checks.record(False, [na, nb], got, "a nonzero multiple of %s" % vol)
            else:
                checks.check([na, nb], got, vol.scale(constant * s) if s else zero(sig))
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
            ["(theta/lam)^2 = 1 at lam = %s" % format_coefficient(lam)],
            specialized_product(pbar, pbar, lam),
            ore_unit(n),
        )
    return checks.report("ghost")


# -- the one-variable polynomial representation ------------------------------------


# E- sends z^m to this times z^(m+1)
_E_MINUS_FACTOR = GaussianRational(Fraction(-1, 2))


def _lowering_factor(lam, k):
    """E+ sends z^k to this times z^(k-1): k/2, minus 2 lam when k is odd."""
    c = GaussianRational(Fraction(k, 2))
    return c - lam - lam if k & 1 else c


def _weight_image(lam, m, mono, runs):
    """The image of z^m under the rank-0 monomial w^I E+^a E-^b L^r at weight
    lam, as (m + b - a, c), or None when it is zero.

    c = (-1/2)^b lam^r f(k) f(k-1) ... f(k-a+1) (-1)^([I != 0](k - a)) with
    k = m + b and f the lowering factor.  `runs` maps k to the running
    products of f from k down, shared by every monomial of one weight; a run
    ends at its first zero factor and is never divided through.  f(0) = 0,
    so a > k gives zero, and f vanishes elsewhere exactly at odd k = 4 lam.
    """
    k, a = m + mono.e_minus, mono.e_plus
    run = runs.setdefault(k, [GR_ONE])
    while len(run) <= a:
        if not run[-1]:
            return None
        run.append(run[-1] * _lowering_factor(lam, k + 1 - len(run)))
    c = run[a]
    if not c:
        return None
    c = c * _E_MINUS_FACTOR**mono.e_minus * lam**mono.lam
    return k - a, -c if mono.cliff and (k - a) & 1 else c


def verma_apply(lam, a, f):
    """Apply a rank-0 element to a polynomial {exponent: coefficient} through
    the lam-action, one image per (monomial, polynomial term) pair: E+
    lowers with the factor above, E- multiplies by -z/2, P is the parity
    flip and L is lam."""
    if isinstance(a, OreElement) and a.n != 0:
        raise AlgebraError("rank-%d element: use the matrix transport instead" % a.n)
    expect_element(a, OreElement, 0)
    lam = gaussian(lam)
    poly = []
    for m, c in f.items():
        if not isinstance(m, int) or m < 0:
            raise AlgebraError("exponents must be non-negative ints, got %r" % (m,))
        poly.append((m, gaussian(c)))
    runs = {}
    out = {}
    for mono, c in a.terms.items():
        for m, g in poly:
            image = _weight_image(lam, m, mono, runs)
            if image is not None:
                accumulate(out, image[0], image[1] * c * g)
    return out


# -- finite-dimensional quotients ---------------------------------------------------


def _check_half_integer(h):
    h = Fraction(h)
    if h < 0 or (2 * h).denominator != 1:
        raise AlgebraError("h must be a non-negative half-integer, got %s" % h)
    return h


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


# An entry of `_diagonal` holds at most d values, products of at most d
# lowering factors, and no power of L, so diagonals are cached only up to
# d = 64: the largest such entry retains 7.9 KB (tracemalloc, over every
# E+^a E-^b at d = 64), so the cache holds at most about 2 MB.  `pi_h_matrix`
# reads each distinct diagonal once a call, past d = 64 too.
@kernel(256, fits=lambda lam, twist, d, *monomial: d <= 64)
def _diagonal(lam, twist, d, cliff, e_plus, e_minus):
    """The shifted diagonal of w^I E+^a E-^b on z^0..z^(d-1) at weight lam,
    P negated when twist is -1, as ((row, col, value), ...)."""
    mono, runs, g = OreMonomial(cliff, e_plus, e_minus, 0), {}, twist**cliff
    images = ((col, _weight_image(lam, col, mono, runs)) for col in range(d - e_minus))
    return tuple((image[0], col, image[1] * g) for col, image in images if image is not None)


def pi_h_matrix(n, h, sign, x):
    """Evaluate any rank-n element in the dimension-2^n(4h+1) quotient:
    entry (i, j) of ore_to_matrix(n, x) fills block (i, j) through the
    rank-0 quotient; AlgebraError above MAX_QUOTIENT_DIMENSION.

    There w^I E+^a E-^b L^r is (+/-lam)^r times one shifted diagonal, read
    from the kernel `_diagonal`: the action of w^I E+^a E-^b on z^0..z^{4h}
    at lam = h + 1/4, where E+ kills z^{4h+1}, has the entries (m + b - a, m)
    for m + b <= 4h, since the quotient kills z^(m+b) before any lowering.
    The minus sign negates P and L.
    """
    h = _check_half_integer(h)
    twist = _parse_sign(sign)
    expect_element(x, OreElement, n)  # a valid rank, before d << n
    lam = GaussianRational(h + Fraction(1, 4))
    d = int(4 * h) + 1
    _check_dimension("quotient", d << n)
    entries, diagonals = {}, {}
    for (i, j), a in ore_to_matrix(n, x).items():
        for (cliff, e_plus, e_minus, r), c in a.terms.items():
            if r:
                c = c * (lam * twist) ** r
            if (cliff, e_plus, e_minus) not in diagonals:
                diagonals[cliff, e_plus, e_minus] = _diagonal(lam, twist, d, cliff, e_plus, e_minus)
            for row, col, v in diagonals[cliff, e_plus, e_minus]:
                accumulate(entries, (i * d + row, j * d + col), c * v)
    return Matrix.from_entries((d << n, d << n), entries)


def finite_irrep_pi_h(n, h, sign):
    """Generator matrices of the finite quotient, keyed by generator name
    (the central parameter maps to its specialization times the identity)."""
    gens = ore_generators(n)
    names = ["w%d" % i for i in range(1, 2 * n + 2)] + ["E+", "E-"]
    out = {name: pi_h_matrix(n, h, sign, x) for name, x in zip(names, gens)}
    out["L"] = Matrix.identity(out["E+"].shape[0]).scale(pi_h_lambda(h, sign))
    return out


# -- exact structure probes ---------------------------------------------------------


# The most monomials bounded_monomials lists: center_probe at ore:6, degree
# 4 sets up 2,310 of them in about a second, and 12,341 at ore:0, degree 40
# take about 6 s
MAX_PROBE_MONOMIALS = 5_000


def bounded_monomials(n, max_total_degree):
    """All normal-form monomials with Fermi+Bose degree plus twice the
    central power at most the bound, in canonical order, listed by Fermi
    degree; AlgebraError once the listing passes MAX_PROBE_MONOMIALS."""
    width, d = 2 * _check_size("rank", n) + 1, max_total_degree
    listing = (
        OreMonomial(mask, a, b, r)
        for s in range(min(width, d) + 1)
        for mask in map(index_mask, combinations(range(1, width + 1), s))
        for r in range((d - s) // 2 + 1)
        for a in range(d - s - 2 * r + 1)
        for b in range(d - s - 2 * r - a + 1)
    )
    out = list(islice(listing, MAX_PROBE_MONOMIALS + 1))
    if len(out) > MAX_PROBE_MONOMIALS:
        raise AlgebraError(
            "rank %d to degree %d has more than %d monomials to probe" % (n, d, MAX_PROBE_MONOMIALS)
        )
    return monomial_order(n, out)


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


def _generator_columns(rep):
    """Each generator matrix, in sorted(rep) order, as d column lists
    [(row, number)], and d; every entry is read before anything is solved."""
    try:
        named = sorted(rep.items()) if isinstance(rep, dict) else list(enumerate(rep))
    except TypeError:
        raise AlgebraError("not a dict with sortable keys or a sequence of matrices: %r" % (rep,)) from None
    if not named:
        raise AlgebraError("empty representation")
    gens, d = [], named[0][1].shape[0] if isinstance(named[0][1], Matrix) else 0
    for name, M in named:
        if not isinstance(M, Matrix) or M.shape != (d, d):
            raise AlgebraError("generator %s is not a square Matrix of the first one's size: %r" % (name, M))
        gens.append([[] for _ in range(d)])
        for (i, k), x in M.items():
            if getattr(x, "constant", None) is None:
                raise AlgebraError("generator %s has the entry %s, which is not a number" % (name, x))
            gens[-1][k].append((i, x.constant()))  # CentralParameterError for an entry in L
    return gens, d


def _product(cols, rows, extra=()):
    """M * R, plus c * row in row i for each (i, row, c) in extra; M is given
    by its column lists, R and the result as {i: {column: number}}."""
    out = {}
    for i, row, c in chain(((i, row, x) for j, row in rows.items() for i, x in cols[j]), extra):
        acc = out.setdefault(i, {})
        for u, v in row.items():
            accumulate(acc, u, c * v)
    return out


def _spin_up(gens, d):
    """(m, lifts, relations) for `commutant_probe`: lifts[k] is T_k as {row:
    {unknown s*d + i of (X v_s)_i: number}}, relations the (g, k, c) of each
    image M_g b_k = sum_j c[j] b_j in the span.  Column d + k of the echelon
    form tracks b_k, which joins only when add_row takes it, and never past d."""
    pivots, basis, lifts, relations, m, k = {}, [], [], [], 0, 0
    for s in range(d):
        if min(reduce_row(pivots, {s: GR_ONE}), default=d) < d:  # e_s is not spanned yet
            m += 1
            if add_row(pivots, {s: GR_ONE, d + len(lifts): GR_ONE}):
                basis.append({s: {0: GR_ONE}})  # b_k as one column, so `_product` applies
                lifts.append({i: {(m - 1) * d + i: GR_ONE} for i in range(d)})
        while k < len(lifts):
            for g, cols in enumerate(gens):
                image = _product(cols, basis[k])
                w = {i: row[0] for i, row in image.items() if row}
                # w's residue keeps a coordinate column, or it is -sum_j c_j e_(d + j)
                r = reduce_row(pivots, w)
                if min(r, default=d) >= d:
                    relations.append((g, k, {j - d: -c for j, c in r.items()}))
                elif len(lifts) < d and add_row(pivots, {**w, d + len(lifts): GR_ONE}):
                    basis.append(image)
                    lifts.append(_product(cols, lifts[k]))
            k += 1
    return m, lifts, relations


def commutant_probe(rep):
    """Dimension of {X : XM = MX for every generator matrix M}, by spin-up.

    rep is a dict of d x d matrices over numbers, taken in sorted key order,
    or a sequence of them.  A basis b_k of the module is spun up from the
    standard vectors not yet spanned (Parker's standard basis), with
    X b_k = T_k u in the images u of its m start vectors: m*d unknowns, not
    d^2 (m = 1 for a cyclic module, such as every pi_h).  X commutes with
    M_g on each new basis vector M_g b_k by construction; each other image
    M_g b_k = sum_j c_j b_j gives d equations (M_g T_k - sum_j c_j T_j) u = 0.
    The answer is m*d minus their rank.  The identity always commutes, so
    for d >= 1 the rank is at most m*d - 1, and the solve stops there.
    """
    gens, d = _generator_columns(rep)
    m, lifts, relations = _spin_up(gens, d)
    unknowns, eqs = m * d, {}
    for g, k, coeffs in relations:
        if len(eqs) >= unknowns - 1:
            break
        minus = ((i, row, -c) for j, c in coeffs.items() for i, row in lifts[j].items())
        for row in _product(gens[g], lifts[k], minus).values():
            add_row(eqs, row)
    return unknowns - len(eqs)


# -- the three-element orthosymplectic check ---------------------------------------


def osp22_k_element(n):
    """K = -1/4 P + L, P = i^n w_1...w_{2n+1} the ghost's L coefficient."""
    return ghost_theta(n).lam_coefficient(1).scale(Fraction(-1, 4)) + ore_lambda(n)


def osp22_check(n):
    """Exact triple-bracket law on {K, E+, E-} with the stated pairing."""
    # each element is labelled and keyed by its name
    basis = [("K", osp22_k_element(n), 0), ("E+", ore_e_plus(n), 1), ("E-", ore_e_minus(n), 1)]
    basis = [(name, x, name, parity) for name, x, parity in basis]
    form = {("K", "K"): Fraction(1, 8), ("E+", "E-"): Fraction(-1, 4), ("E-", "E+"): Fraction(1, 4)}
    return triple_bracket_law(basis, form, ore_super_bracket).report("osp22")
