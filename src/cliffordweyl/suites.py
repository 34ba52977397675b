"""Named verification suites behind the command-line front end.

Every suite is deterministic given (parameters, seed): randomized checks
draw from one `random.Random(seed)` stream in a fixed order, and reports
carry only canonical strings.  `report_bytes` serializes with sorted keys
so identical runs are byte-identical; the measured wall time stays on the
result object and out of the JSON.

Each suite is one row of `_SUITES`: its function, the `--algebra` kinds it
takes, the grid it runs without `--algebra`, and its default `--cases` and
`--maxdeg`.  `run_suite` alone turns the flags into a grid, a case count and
a degree, and refuses a wrong algebra kind before any work starts.
"""

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate as running_sums, chain, product
from math import comb

from .algebra import (
    AlgebraError,
    AlgebraSignature,
    CwElement,
    CwMonomial,
    generators,
    monomial_element,
    unit,
    zero,
)
from .deform import (
    center_probe,
    commutant_probe,
    compare_cocycle,
    cw_odd_signature,
    deformation_cochain_c1,
    finite_irrep_pi_h,
    ghost_identities,
    iso_a0_to_cw,
    iso_cw_to_a0,
    osp22_check,
    periodicity2_forward,
    periodicity2_inverse,
    verma_apply,
)
from .exprs import CwContext, OreContext, descriptor
from .hochschild import (
    CochainEvaluator,
    coboundary,
    d_squared_check,
    element_tag,
    relative_normalized_check,
)
from .linalg import Matrix, sparse_rank
from .ore import (
    OreElement,
    OreMonomial,
    ore_e_plus,
    ore_generators,
    ore_lambda,
    ore_product,
    ore_relations_report,
    ore_scalar,
    ore_unit,
    ore_zero,
)
from .osp import OspContext, build_g, element_row, expected_dimension, verify_invariance, verify_ps
from .periodicity import (
    cw_to_matrix,
    matrix_star,
    odd_join,
    odd_projections,
    odd_split,
    periodicity1_forward,
    periodicity1_inverse,
    tensor_star,
)
from .reps import rep_matrix, spin
from .scalars import GaussianRational, gr_ratio, i_power
from .sparse import Checks, accumulate, homomorphism_law, kernel, sum_terms
from .starprod import anti_bracket, lie_bracket, star


# The largest --cases a suite accepts: 50 times the largest default (200, in
# associativity), so a typo cannot start a run that never ends.
MAX_CASES = 10_000

# The most draws a random term may need in expectation (`_draws_per_term`).
# The largest a default or a test asks for is 576 (ore:2 at --maxdeg 0);
# cw:6,10 at the default degree 4 needs 1,002.
MAX_DRAWS = 1000

# The most Fermi generators `matrix-iso` takes: it maps all 2^n_fermi Fermi
# words to matrices of side 2^(n_fermi/2), so its cost grows about tenfold per
# step of 2.  At --cases 1, cw:8,2 takes 0.2 s, cw:10,2 2.2 s, cw:12,2 19 s.
MATRIX_ISO_MAX_FERMI = 10


class SuiteUsageError(AlgebraError):
    """Bad suite name or parameters; the CLI maps this to exit code 2."""


@dataclass
class SuiteResult:
    suite: str
    seed: int
    params: dict
    cases: int
    failures: list
    details: dict = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def passed(self):
        return not self.failures

    def to_json(self):
        out = {
            "suite": self.suite,
            "seed": self.seed,
            "params": self.params,
            "cases": self.cases,
            "failures": self.failures,
            "pass": self.passed,
        }
        if self.details:
            out["details"] = self.details
        return out


def report_bytes(result):
    """Canonical serialized report: sorted keys, two-space indent, newline."""
    return (json.dumps(result.to_json(), sort_keys=True, indent=2) + "\n").encode()


# -- shared plumbing ----------------------------------------------------------------


def _rand_coeff(rng):
    """a/b + c*i with a in [-4, 4], b in [1, 3] and c in [-3, 3], from its ints."""
    re, den = rng.randrange(-4, 5), rng.randrange(1, 4)
    return gr_ratio(re, den, rng.randrange(-3, 4) * den)


@kernel(256)
def _draws_per_term(fermi, bose, lam, maxdeg):
    """Expected draws per term of a rejection sampler: all slot choices over
    those of degree at most maxdeg.

    A Fermi slot weighs 0 or 1, a Bose slot 0 to 2 and an L slot 0 or 2, so the
    choices of each degree are binomial counts; the coefficients c_t of
    (1 + x + x^2)^bose follow t c_t = (bose - t + 1) c_(t-1) + (2 bose - t + 2) c_(t-2).
    """
    top = min(maxdeg, fermi + 2 * bose + 2 * lam)
    fermi_upto = list(running_sums(comb(fermi, s) for s in range(top + 1)))  # Fermi choices of degree <= s
    bose_at = [1, bose][: top + 1]
    for t in range(2, min(2 * bose, top) + 1):
        bose_at.append(((bose - t + 1) * bose_at[-1] + (2 * bose - t + 2) * bose_at[-2]) // t)
    kept = sum(
        comb(lam, r) * c * fermi_upto[top - t - 2 * r]
        for r in range(lam + 1)
        for t, c in enumerate(bose_at)
        if t + 2 * r <= top
    )
    return Fraction(2**fermi * 3**bose * 2**lam, kept)


class _DrawBound(SuiteUsageError):
    """Too many draws per term; `run_suite` adds the flags that lower them."""


def _check_draws(fermi, bose, lam, maxdeg):
    if _draws_per_term(fermi, bose, lam, maxdeg) > MAX_DRAWS:
        raise _DrawBound("a random term would take more than %d draws at degree %d" % (MAX_DRAWS, maxdeg))


def _rand_element(rng, space, nterms=3, maxdeg=4):
    """nterms random terms of degree at most maxdeg, in cw (space a signature)
    or ore (space a rank), each drawn until its degree fits: a Fermi mask,
    Bose slots in 0..2 and, in ore, an L slot in 0..1 that weighs 2."""
    ore_rank = isinstance(space, int)
    fermi, bose, lam = (2 * space + 1, 2, 1) if ore_rank else (space.n_fermi, 2 * space.n_bose, 0)
    _check_draws(fermi, bose, lam, maxdeg)
    slots, half = (3,) * bose + (2,) * lam, bose >> 1
    terms = {}
    for _ in range(nterms):
        while True:
            mask = rng.getrandbits(fermi)
            drawn = tuple(map(rng.randrange, slots))
            if mask.bit_count() + sum(drawn) + sum(drawn[bose:]) <= maxdeg:  # L counted twice
                break
        key = OreMonomial(mask, *drawn) if ore_rank else CwMonomial(mask, drawn[:half], drawn[half:])
        accumulate(terms, key, _rand_coeff(rng))
    return OreElement(space, terms) if ore_rank else CwElement(space, terms)


def _rand_lam(rng):
    while True:
        a, b, c, d = rng.randrange(-9, 10), rng.randrange(1, 8), rng.randrange(-9, 10), rng.randrange(1, 8)
        g = gr_ratio(a * d, b * d, c * b)  # a/b + (c/d) i
        if g:
            return g


def _rand_pairs(count, rng, space, maxdeg):
    """count pairs (x, y) of random elements, drawn x then y as they are read."""
    draw = partial(_rand_element, rng, space, maxdeg=maxdeg)
    return ((draw(), draw()) for _ in range(count))


# -- individual suites ----------------------------------------------------------------


def _suite_relations(run, rng, grid, cases, maxdeg, params):
    (sig,) = grid
    params["algebra"] = descriptor(sig)
    one, nul = unit(sig), zero(sig)
    gens, n, k = generators(sig), sig.n_fermi, sig.n_bose
    ws, ps, qs = gens[:n], gens[n : n + k], gens[n + k :]
    for i, wi in enumerate(ws):
        for j, wj in enumerate(ws):
            want = one.scale(2) if i == j else nul
            run.check(["{w%d,w%d}" % (i + 1, j + 1)], anti_bracket(wi, wj), want)
    for i, pi in enumerate(ps):
        for j, qj in enumerate(qs):
            want = one if i == j else nul
            run.check(["[p%d,q%d]" % (i + 1, j + 1)], lie_bracket(pi, qj), want)
            run.check(["[q%d,p%d]" % (j + 1, i + 1)], lie_bracket(qj, pi), -want)
    for name, xs in (("p", ps), ("q", qs)):
        for (i, xi), (j, xj) in product(enumerate(xs), repeat=2):
            run.check(["[%s%d,%s%d]" % (name, i + 1, name, j + 1)], lie_bracket(xi, xj), nul)
    for i, wi in enumerate(ws):
        for j, xj in enumerate(ps + qs):
            run.check(["{w%d, bose %d}" % (i + 1, j + 1)], anti_bracket(wi, xj), nul)


def _suite_associativity(run, rng, grid, cases, maxdeg, params):
    (space,) = grid
    params.update({"algebra": descriptor(space), "cases": cases})
    for _ in range(cases):
        a, b, c = (_rand_element(rng, space, maxdeg=maxdeg) for _ in range(3))
        run.check([a, b, c], (a * b) * c, a * (b * c))


def _suite_periodicity1(run, rng, grid, pairs, maxdeg, params):
    params.update({"grid": ["m=%d,n=%d,k=%d" % e for e in grid], "cases": pairs})
    for m, n, k in grid:
        draws = _rand_pairs(pairs, rng, AlgebraSignature(2 * m + n, k), maxdeg)
        forward, inverse = partial(periodicity1_forward, m, n, k), partial(periodicity1_inverse, m, n, k)
        homomorphism_law(run, ["m=%d,n=%d,k=%d" % (m, n, k)], draws, forward, star, tensor_star, inverse)


def _suite_periodicity2(run, rng, ranks, pairs, maxdeg, params):
    params.update({"ranks": ranks, "cases": pairs})
    for n in ranks:
        draws = _rand_pairs(pairs, rng, n, maxdeg)
        forward, inverse = partial(periodicity2_forward, n), partial(periodicity2_inverse, n)
        homomorphism_law(run, [descriptor(n)], draws, forward, ore_product, tensor_star, inverse)


def _suite_odd_split(run, rng, ranks, pairs, maxdeg, params):
    params.update({"ranks": ranks, "cases": pairs})
    for n in ranks:
        sig = AlgebraSignature(2 * n + 1, 0)
        one = unit(sig)
        zp, zm = odd_projections(n)
        run.check(["projections sum, n=%d" % n], zp + zm, one)
        run.check(["projections orthogonal, n=%d" % n], star(zp, zm), zero(sig))
        run.check(["projection idempotent, n=%d" % n], star(zp, zp), zp)
        draws = _rand_pairs(pairs, rng, sig, 2 * n + 1)
        labels = ["split product, n=%d" % n, "join inverts split, n=%d" % n]
        pair_star, join = (lambda a, b: tuple(map(star, a, b))), (lambda c: odd_join(n, *c))
        homomorphism_law(run, labels, draws, partial(odd_split, n), star, pair_star, join)


def _suite_spin_lemma(run, rng, grid, cases, maxdeg, params):
    matrix_ranks, square_ranks = grid
    params.update({"matrix_ranks": matrix_ranks, "square_ranks": square_ranks})
    for n in matrix_ranks:
        dim = 1 << n
        want = Matrix.from_entries(
            (dim, dim), {(g, g): i_power(n) * (-1) ** g.bit_count() for g in range(dim)}
        )
        run.check(["volume word matrix, n=%d" % n], rep_matrix(spin(n), _volume_word(n)), want)
    for n in square_ranks:
        vol = _volume_word(n)
        run.check(["volume word square, n=%d" % n], star(vol, vol), unit(vol.signature).scale((-1) ** n))


def _volume_word(n):
    """w1 * ... * w_2n in cw:2n,0, multiplied left to right."""
    sig = AlgebraSignature(2 * n, 0)
    return reduce(star, generators(sig), unit(sig))


def _matrix_rows(M):
    """Flatten a matrix of cw elements to one sparse row, by its nonzero entries."""
    return {(i, j, key): g for (i, j), e in M.items() for key, g in element_row(e).items()}


def _suite_matrix_iso(run, rng, grid, pairs, maxdeg, params):
    if any(sig.n_fermi % 2 for sig in grid):
        raise SuiteUsageError("matrix-iso needs an even Fermi count")
    if any(sig.n_fermi > MATRIX_ISO_MAX_FERMI for sig in grid):
        raise SuiteUsageError("matrix-iso takes at most %d Fermi generators" % MATRIX_ISO_MAX_FERMI)
    params.update({"grid": ["n=%d,k=%d" % (sig.n_fermi // 2, sig.n_bose) for sig in grid], "cases": pairs})
    for sig in grid:
        n, k = sig.n_fermi // 2, sig.n_bose
        label = descriptor(sig)
        dim = 1 << n
        identity = Matrix.identity(dim, unit(AlgebraSignature(0, k)))
        run.check(["unit to identity, " + label], cw_to_matrix(n, k, unit(sig)), identity)
        draws = _rand_pairs(pairs, rng, sig, maxdeg)
        homomorphism_law(run, ["hom, " + label], draws, partial(cw_to_matrix, n, k), star, matrix_star)
        # the unit, and p1 when there is a Bose pair
        bose_parts = [((0,) * k, (0,) * k)] + [((1,) + (0,) * (k - 1), (0,) * k)] * (k > 0)
        rows = []
        for mask in range(1 << (2 * n)):
            for wp, wq in bose_parts:
                M = cw_to_matrix(n, k, monomial_element(sig, CwMonomial(mask, wp, wq)))
                rows.append(_matrix_rows(M))
        run.check(["independent basis images, " + label], sparse_rank(rows), len(rows))


def _suite_parastat(run, rng, grid, cases, maxdeg, params):
    params["grid"] = [descriptor(sig) for sig in grid]
    dims = {}
    for sig in grid:
        ctx = OspContext(sig)
        run.merge(verify_ps(ctx))
        _basis, total, _parts = build_g(ctx)
        label = descriptor(sig)
        run.check(["dim g, " + label], total, expected_dimension(sig.n_fermi, sig.n_bose))
        dims[label] = total
    return {"dims": dims}


def _suite_twisted_adjoint(run, rng, grid, cases, maxdeg, params):
    params["grid"] = [descriptor(sig) for sig in grid]
    for sig in grid:
        run.merge(verify_invariance(OspContext(sig)))


def _suite_ore_relations(run, rng, ranks, cases, maxdeg, params):
    params["ranks"] = ranks
    for n in ranks:
        run.merge(ore_relations_report(n))
    # at rank 0, the normal form of E-^beta E+^gamma acts as E+^gamma and then
    # E-^beta do; it has L^2 terms once min(beta, gamma) >= 3
    lams = (_rand_lam(rng), _rand_lam(rng)) if 0 in ranks else ()
    for (beta, gamma), lam, m in product(((3, 3), (4, 5), (5, 3)), lams, range(8)):
        em, ep = OreElement(0, {OreMonomial(0, 0, beta, 0): 1}), OreElement(0, {OreMonomial(0, gamma, 0, 0): 1})
        f, label = {m: GaussianRational(1)}, "E-^%d E+^%d" % (beta, gamma)
        want = verma_apply(lam, em, verma_apply(lam, ep, f))
        run.check([label, "lambda=%s" % lam, "z^%d" % m], verma_apply(lam, ore_product(em, ep), f), want)


def _suite_a0_iso(run, rng, ranks, pairs, maxdeg, params):
    params.update({"ranks": ranks, "cases": pairs})
    for n in ranks:
        sig = cw_odd_signature(n)
        label = descriptor(n)
        for a, b in _rand_pairs(pairs, rng, sig, maxdeg):
            fa, fb = iso_cw_to_a0(n, a), iso_cw_to_a0(n, b)
            run.check(
                ["degree-zero part of the product, " + label, a, b],
                iso_a0_to_cw(n, ore_product(fa, fb).lam_coefficient(0)),
                star(a, b),
            )
        for _ in range(25):
            x = _rand_element(rng, sig, maxdeg=maxdeg)
            run.check(
                ["round trip, " + label, x], iso_a0_to_cw(n, iso_cw_to_a0(n, x)), x
            )


def _suite_cocycle(run, rng, ranks, triples, maxdeg, params):
    params.update({"ranks": ranks, "cases": triples})
    constants = {}
    for n in ranks:
        table = compare_cocycle(n)
        run.merge(table)
        constants[descriptor(n)] = str(table["constant"])
        sig = cw_odd_signature(n)
        evaluator = CochainEvaluator(2, partial(deformation_cochain_c1, n), element_tag(unit(sig)))
        d = coboundary(evaluator)
        for _ in range(triples):
            t = tuple(_rand_element(rng, sig, nterms=2, maxdeg=2) for _ in range(3))
            run.check(["cocycle law, " + descriptor(n)] + list(t), d(*t), zero(sig))
    return {"constants": constants}


def _suite_ghost(run, rng, ranks, count, maxdeg, params):
    params.update({"ranks": ranks, "random_values": count})
    lam_samples = tuple(_rand_lam(rng) for _ in range(count))
    for n in ranks:
        run.merge(ghost_identities(n, lam_samples=lam_samples))


def _suite_verma(run, rng, weights, count, maxdeg, params):
    params.update({"weights": "2h in 0..6", "random_values": count, "max_power": 50})
    for two_h in weights:
        h = Fraction(two_h, 2)
        lam = GaussianRational(h + Fraction(1, 4))
        top = int(4 * h) + 1
        run.check(
            ["highest-weight kill, 2h=%d" % two_h],
            verma_apply(lam, ore_e_plus(0), {top: GaussianRational(1)}),
            {},
        )
    p, ep, em = ore_generators(0)
    quarter = ore_scalar(0, Fraction(1, 4))
    # each left side acts one generator at a time, so no product normal-orders
    # it before verma_apply sees every factor
    relations = [
        ("{E+,P}", lambda act, f: [act(ep, act(p, f)), act(p, act(ep, f))], ore_zero(0)),
        ("{E-,P}", lambda act, f: [act(em, act(p, f)), act(p, act(em, f))], ore_zero(0)),
        ("P^2", lambda act, f: [act(p, act(p, f))], ore_unit(0)),
        (
            "[E+,E-] + 1/4",
            lambda act, f: [act(ep, act(em, f)), act(-em, act(ep, f)), act(quarter, f)],
            ore_product(ore_lambda(0), p),
        ),
    ]
    for _ in range(count):
        lam = _rand_lam(rng)
        act = partial(verma_apply, lam)
        for m in range(51):
            f = {m: GaussianRational(1)}
            for name, lhs, rhs in relations:
                lhs_sum = sum_terms(chain.from_iterable(poly.items() for poly in lhs(act, f)))
                run.check([name, "lambda=%s" % lam, "z^%d" % m], lhs_sum, act(rhs, f))


_PI_H_GRID = tuple(
    (n, Fraction(two_h, 2), sign)
    for n in (0, 1)
    for two_h in range(5)
    for sign in ("+", "-")
)


def _pi_label(n, h, sign):
    return "pi_h(n=%d, 2h=%d, sign=%s)" % (n, int(2 * h), sign)


def _check_pi_relations(run, n, rep, label):
    ws = [rep["w%d" % i] for i in range(1, 2 * n + 2)]
    ep, em, lam = rep["E+"], rep["E-"], rep["L"]
    d = ep.shape[0]
    ident = Matrix.identity(d)
    nul, two = ident.scale(0), ident.scale(2)
    for i, wi in enumerate(ws):
        for j, wj in enumerate(ws):
            want = two if i == j else nul
            run.check([label, "{w%d,w%d}" % (i + 1, j + 1)], wi * wj + wj * wi, want)
        run.check([label, "{E+,w%d}" % (i + 1)], ep * wi + wi * ep, nul)
        run.check([label, "{E-,w%d}" % (i + 1)], em * wi + wi * em, nul)
    vol = reduce(Matrix.__mul__, ws, ident)
    ghost_img = vol.scale(i_power(n)) * lam
    quarter = ident.scale(Fraction(-1, 4))
    run.check([label, "[E+,E-]"], ep * em - em * ep, quarter + ghost_img)


def _suite_pi_h(run, rng, grid, cases, maxdeg, params):
    params["grid"] = [_pi_label(*entry) for entry in grid]
    for n, h, sign in grid:
        label = _pi_label(n, h, sign)
        rep = finite_irrep_pi_h(n, h, sign)
        dim = (1 << n) * (int(4 * h) + 1)
        run.check([label, "dimension"], rep["E+"].shape, (dim, dim))
        _check_pi_relations(run, n, rep, label)


def _suite_center(run, rng, ranks, cases, degree, params):
    params["ranks"] = ranks
    basis = {}
    for n in ranks:
        candidates = center_probe(n, degree)
        basis[descriptor(n)] = [str(x) for x in candidates]
        gens = ore_generators(n) + [ore_lambda(n)]
        for x in candidates:
            for g in gens:
                run.check(
                    ["central, " + descriptor(n), x, g],
                    ore_product(x, g),
                    ore_product(g, x),
                )
    return {"basis": basis}


def _suite_commutant(run, rng, grid, cases, maxdeg, params):
    params["grid"] = [_pi_label(*entry) for entry in grid]
    dims = {}
    for n, h, sign in grid:
        label = _pi_label(n, h, sign)
        dim = commutant_probe(finite_irrep_pi_h(n, h, sign))
        dims[label] = dim
        run.check([label, "scalar commutant"], dim, 1)
    return {"commutant_dims": dims}


def _suite_osp22(run, rng, ranks, cases, maxdeg, params):
    params["ranks"] = ranks
    for n in ranks:
        run.merge(osp22_check(n))


def _suite_hochschild(run, rng, grid, count, maxdeg, params):
    (sig,) = grid
    params.update({"algebra": descriptor(sig), "cases": count})
    corners = product(range(2), repeat=3)  # (mask, wp, wq) in 0..1, wq fastest
    support = {CwMonomial(mask, (wp,), (wq,)): _rand_element(rng, sig, maxdeg=3) for mask, wp, wq in corners}

    def sampled(x):
        return sum((support[m].scale(c) for m, c in x.terms.items() if m in support), zero(sig))

    tag = element_tag(unit(sig))
    one_cochain = CochainEvaluator(1, sampled, tag)
    triples = [tuple(_rand_element(rng, sig, maxdeg=2) for _ in range(3)) for _ in range(count)]
    run.merge(d_squared_check(one_cochain, triples))
    evaluator = CochainEvaluator(2, partial(deformation_cochain_c1, 0), tag)
    samples = generators(sig)  # w1, p1, q1
    run.merge(relative_normalized_check(evaluator, [unit(sig), samples[0]], samples))


_OSP_GRID = tuple(AlgebraSignature(n, k) for n, k in ((1, 1), (2, 1), (3, 1), (1, 2)))

# name -> (suite, the --algebra kinds it takes (none: a fixed grid), the grid it
# runs without --algebra, its default --cases, its default --maxdeg); None
# where the suite reads no such flag.  `run_suite` alone reads the flags.
_CW, _ORE, _FIXED = ("cw",), ("ore",), ()
_SUITES = {
    "relations": (_suite_relations, _CW, (AlgebraSignature(1, 1),), None, None),
    "associativity": (_suite_associativity, _CW + _ORE, (AlgebraSignature(1, 1),), 200, 4),
    "periodicity1": (_suite_periodicity1, _FIXED, ((1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 2, 1)), 10, 3),
    "periodicity2": (_suite_periodicity2, _ORE, (1, 2), 10, 3),
    "odd-split": (_suite_odd_split, _FIXED, (0, 1, 2), 10, None),
    "spin-lemma": (_suite_spin_lemma, _FIXED, ((1, 2, 3), (1, 2, 3, 4)), None, None),
    "matrix-iso": (_suite_matrix_iso, _CW, (AlgebraSignature(2, 1), AlgebraSignature(4, 1)), 10, 3),
    "parastat": (_suite_parastat, _CW, _OSP_GRID, None, None),
    "twisted-adjoint": (_suite_twisted_adjoint, _CW, _OSP_GRID, None, None),
    "ore-relations": (_suite_ore_relations, _ORE, (0, 1, 2), None, None),
    "a0-iso": (_suite_a0_iso, _ORE, (0, 1), 100, 3),
    "cocycle": (_suite_cocycle, _ORE, (0, 1), 50, None),
    "ghost": (_suite_ghost, _ORE, (0, 1, 2), 10, None),
    "verma": (_suite_verma, _FIXED, range(7), 20, None),
    "pi-h": (_suite_pi_h, _FIXED, _PI_H_GRID, None, None),
    "center": (_suite_center, _ORE, (0,), None, 4),
    "commutant": (_suite_commutant, _FIXED, _PI_H_GRID, None, None),
    "osp22": (_suite_osp22, _ORE, (0, 1), None, None),
    "hochschild": (_suite_hochschild, _FIXED, (cw_odd_signature(0),), 100, None),
}
_NEEDS = {"cw": "a cw:<n>,<2k>", "ore": "an ore:<n>"}


def suite_names():
    return sorted(_SUITES)


def run_suite(name, seed=0, algebra=None, maxdeg=None, cases=None):
    """Execute one named suite; deterministic given (name, params, seed)."""
    if not isinstance(name, str) or name not in _SUITES:
        raise SuiteUsageError(
            "unknown suite %r (choose from: %s)" % (name, ", ".join(suite_names()))
        )
    if type(seed) is not int or not 0 <= seed < 1 << 64:
        raise SuiteUsageError("seed must be an int in 0..2^64-1, got %r" % (seed,))
    for arg, value in (("cases", cases), ("maxdeg", maxdeg)):
        if value is not None and type(value) is not int:
            raise SuiteUsageError("%s must be an int, got %r" % (arg, value))
    if algebra is not None and not isinstance(algebra, (CwContext, OreContext)):
        raise SuiteUsageError("algebra must be a context from parse_algebra, got %r" % (algebra,))
    if cases is not None and cases < 1:
        raise SuiteUsageError("cases must be positive")
    if cases is not None and cases > MAX_CASES:
        raise SuiteUsageError("cases must be at most %d" % MAX_CASES)
    if maxdeg is not None and maxdeg < 0:
        raise SuiteUsageError("maxdeg must be non-negative")
    fn, kinds, grid, default_cases, default_maxdeg = _SUITES[name]
    if algebra is not None:
        if not kinds:
            raise SuiteUsageError("suite %r runs a fixed grid; omit --algebra" % name)
        if algebra.kind not in kinds:
            raise SuiteUsageError("this suite needs %s algebra" % _NEEDS[kinds[0]])
        grid = (algebra.n if algebra.kind == "ore" else algebra.signature,)
    cases = default_cases if cases is None else cases
    params = {}
    if default_maxdeg is not None:  # the report records the degree it drew at
        maxdeg = params["maxdeg"] = default_maxdeg if maxdeg is None else maxdeg
    run = Checks()
    rng = random.Random(seed)
    start = time.perf_counter()
    try:
        details = fn(run, rng, grid, cases, maxdeg, params)
    except _DrawBound as e:
        advice = " or ".join(("raise --maxdeg",) * (default_maxdeg is not None) + ("shrink --algebra",) * bool(kinds))
        raise SuiteUsageError("%s; %s" % (e, advice) if advice else str(e)) from None
    elapsed = time.perf_counter() - start
    return SuiteResult(
        suite=name,
        seed=seed,
        params=params,
        cases=run.cases,
        failures=run.failures,
        details=details or {},
        wall_time=elapsed,
    )
