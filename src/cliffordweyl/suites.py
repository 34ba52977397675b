"""Named verification suites behind the command-line front end.

Every suite is deterministic given (parameters, seed): randomized checks
draw from one `random.Random(seed)` stream in a fixed order, and reports
carry only canonical strings.  `report_bytes` serializes with sorted keys
so identical runs are byte-identical; the measured wall time stays on the
result object and out of the JSON.
"""

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import product

from .algebra import (
    AlgebraError,
    AlgebraSignature,
    CwElement,
    CwMonomial,
    bose_p,
    bose_q,
    fermi_gen,
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
from .exprs import CwContext, cw_descriptor
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
    ore_e_minus,
    ore_e_plus,
    ore_fermi,
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
from .sparse import Checks, accumulate, homomorphism_law
from .starprod import anti_bracket, lie_bracket, star


# The largest --cases a suite accepts: 50 times the largest default (200, in
# associativity), so a typo cannot start a run that never ends.
MAX_CASES = 10_000


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


def _rand_cw(rng, sig, nterms=3, maxdeg=4):
    terms = {}
    k = sig.n_bose
    for _ in range(nterms):
        while True:
            mask = rng.getrandbits(sig.n_fermi) if sig.n_fermi else 0
            wp = tuple(rng.randrange(3) for _ in range(k))
            wq = tuple(rng.randrange(3) for _ in range(k))
            if mask.bit_count() + sum(wp) + sum(wq) <= maxdeg:
                break
        accumulate(terms, CwMonomial(mask, wp, wq), _rand_coeff(rng))
    return CwElement(sig, terms)


def _rand_ore(rng, n, nterms=3, maxdeg=4):
    terms = {}
    for _ in range(nterms):
        while True:
            mask = rng.getrandbits(2 * n + 1)
            a, b = rng.randrange(3), rng.randrange(3)
            r = rng.randrange(2)
            if mask.bit_count() + a + b + 2 * r <= maxdeg:
                break
        accumulate(terms, OreMonomial(mask, a, b, r), _rand_coeff(rng))
    return OreElement(n, terms)


def _rand_lam(rng):
    while True:
        a, b, c, d = rng.randrange(-9, 10), rng.randrange(1, 8), rng.randrange(-9, 10), rng.randrange(1, 8)
        g = gr_ratio(a * d, b * d, c * b)  # a/b + (c/d) i
        if g:
            return g


def _rand_pairs(count, draw, rng, *args, **kwargs):
    """count pairs (x, y), drawn x then y as they are read."""
    return ((draw(rng, *args, **kwargs), draw(rng, *args, **kwargs)) for _ in range(count))


def _need_cw(algebra, default_sig):
    if algebra is None:
        return default_sig
    if algebra.kind != "cw":
        raise SuiteUsageError("this suite needs a cw:<n>,<2k> algebra")
    return algebra.signature


def _need_ore_grid(algebra, default_ranks):
    if algebra is None:
        return list(default_ranks)
    if algebra.kind != "ore":
        raise SuiteUsageError("this suite needs an ore:<n> algebra")
    return [algebra.n]


def _no_algebra(algebra, name):
    if algebra is not None:
        raise SuiteUsageError("suite %r runs a fixed grid; omit --algebra" % name)


# -- individual suites ----------------------------------------------------------------


def _suite_relations(run, rng, algebra, maxdeg, cases, params):
    sig = _need_cw(algebra, AlgebraSignature(1, 1))
    params["algebra"] = cw_descriptor(sig)
    one, nul = unit(sig), zero(sig)
    ws = [fermi_gen(sig, i) for i in range(1, sig.n_fermi + 1)]
    ps = [bose_p(sig, j) for j in range(1, sig.n_bose + 1)]
    qs = [bose_q(sig, j) for j in range(1, sig.n_bose + 1)]
    for i, wi in enumerate(ws):
        for j, wj in enumerate(ws):
            want = one.scale(2) if i == j else nul
            run.check(["{w%d,w%d}" % (i + 1, j + 1)], anti_bracket(wi, wj), want)
    for i, pi in enumerate(ps):
        for j, qj in enumerate(qs):
            want = one if i == j else nul
            run.check(["[p%d,q%d]" % (i + 1, j + 1)], lie_bracket(pi, qj), want)
            run.check(["[q%d,p%d]" % (j + 1, i + 1)], lie_bracket(qj, pi), -want)
    for i, xi in enumerate(ps):
        for j, xj in enumerate(ps):
            run.check(["[p%d,p%d]" % (i + 1, j + 1)], lie_bracket(xi, xj), nul)
    for i, xi in enumerate(qs):
        for j, xj in enumerate(qs):
            run.check(["[q%d,q%d]" % (i + 1, j + 1)], lie_bracket(xi, xj), nul)
    for i, wi in enumerate(ws):
        for j, xj in enumerate(ps + qs):
            run.check(["{w%d, bose %d}" % (i + 1, j + 1)], anti_bracket(wi, xj), nul)


def _suite_associativity(run, rng, algebra, maxdeg, cases, params):
    ctx = algebra if algebra is not None else CwContext(AlgebraSignature(1, 1))
    count = cases or 200
    deg = 4 if maxdeg is None else maxdeg
    params.update({"algebra": ctx.describe(), "cases": count, "maxdeg": deg})
    for _ in range(count):
        if ctx.kind == "cw":
            a, b, c = (_rand_cw(rng, ctx.signature, maxdeg=deg) for _ in range(3))
        else:
            a, b, c = (_rand_ore(rng, ctx.n, maxdeg=deg) for _ in range(3))
        run.check([a, b, c], (a * b) * c, a * (b * c))


def _suite_periodicity1(run, rng, algebra, maxdeg, cases, params):
    _no_algebra(algebra, "periodicity1")
    grid = ((1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 2, 1))
    pairs = cases or 10
    deg = 3 if maxdeg is None else maxdeg
    params.update({"grid": ["m=%d,n=%d,k=%d" % e for e in grid], "cases": pairs})
    for m, n, k in grid:
        draws = _rand_pairs(pairs, _rand_cw, rng, AlgebraSignature(2 * m + n, k), maxdeg=deg)
        forward, inverse = partial(periodicity1_forward, m, n, k), partial(periodicity1_inverse, m, n, k)
        homomorphism_law(run, ["m=%d,n=%d,k=%d" % (m, n, k)], draws, forward, star, tensor_star, inverse)


def _suite_periodicity2(run, rng, algebra, maxdeg, cases, params):
    ranks = _need_ore_grid(algebra, (1, 2))
    pairs = cases or 10
    deg = 3 if maxdeg is None else maxdeg
    params.update({"ranks": ranks, "cases": pairs})
    for n in ranks:
        draws = _rand_pairs(pairs, _rand_ore, rng, n, maxdeg=deg)
        forward, inverse = partial(periodicity2_forward, n), partial(periodicity2_inverse, n)
        homomorphism_law(run, ["ore:%d" % n], draws, forward, ore_product, tensor_star, inverse)


def _suite_odd_split(run, rng, algebra, maxdeg, cases, params):
    _no_algebra(algebra, "odd-split")
    ranks = (0, 1, 2)
    pairs = cases or 10
    params.update({"ranks": list(ranks), "cases": pairs})
    for n in ranks:
        sig = AlgebraSignature(2 * n + 1, 0)
        one = unit(sig)
        zp, zm = odd_projections(n)
        run.check(["projections sum, n=%d" % n], zp + zm, one)
        run.check(["projections orthogonal, n=%d" % n], star(zp, zm), zero(sig))
        run.check(["projection idempotent, n=%d" % n], star(zp, zp), zp)
        draws = _rand_pairs(pairs, _rand_cw, rng, sig, maxdeg=2 * n + 1)
        labels = ["split product, n=%d" % n, "join inverts split, n=%d" % n]
        pair_star, join = (lambda a, b: tuple(map(star, a, b))), (lambda c: odd_join(n, *c))
        homomorphism_law(run, labels, draws, partial(odd_split, n), star, pair_star, join)


def _suite_spin_lemma(run, rng, algebra, maxdeg, cases, params):
    _no_algebra(algebra, "spin-lemma")
    params.update({"matrix_ranks": [1, 2, 3], "square_ranks": [1, 2, 3, 4]})
    for n in (1, 2, 3):
        sig = AlgebraSignature(2 * n, 0)
        vol = unit(sig)
        for i in range(1, 2 * n + 1):
            vol = star(vol, fermi_gen(sig, i))
        dim = 1 << n
        want = Matrix.from_entries(
            (dim, dim), {(g, g): i_power(n) * (-1) ** g.bit_count() for g in range(dim)}
        )
        run.check(["volume word matrix, n=%d" % n], rep_matrix(spin(n), vol), want)
    for n in (1, 2, 3, 4):
        sig = AlgebraSignature(2 * n, 0)
        vol = unit(sig)
        for i in range(1, 2 * n + 1):
            vol = star(vol, fermi_gen(sig, i))
        run.check(
            ["volume word square, n=%d" % n],
            star(vol, vol),
            unit(sig).scale((-1) ** n),
        )


def _matrix_rows(M):
    """Flatten a matrix of cw elements to one sparse row, by its nonzero entries."""
    return {(i, j, key): g for (i, j), e in M.items() for key, g in element_row(e).items()}


def _suite_matrix_iso(run, rng, algebra, maxdeg, cases, params):
    if algebra is not None:
        sig = _need_cw(algebra, None)
        if sig.n_fermi % 2:
            raise SuiteUsageError("matrix-iso needs an even Fermi count")
        grid = [(sig.n_fermi // 2, sig.n_bose)]
    else:
        grid = [(1, 1), (2, 1)]
    pairs = cases or 10
    deg = 3 if maxdeg is None else maxdeg
    params.update({"grid": ["n=%d,k=%d" % e for e in grid], "cases": pairs})
    for n, k in grid:
        sig = AlgebraSignature(2 * n, k)
        label = cw_descriptor(sig)
        dim = 1 << n
        one = cw_to_matrix(n, k, unit(sig))
        bose_sig = AlgebraSignature(0, k)
        run.check(
            ["unit to identity, " + label],
            one,
            Matrix.identity(dim, unit(bose_sig)),
        )
        draws = _rand_pairs(pairs, _rand_cw, rng, sig, maxdeg=deg)
        homomorphism_law(run, ["hom, " + label], draws, partial(cw_to_matrix, n, k), star, matrix_star)
        # the unit, and p1 when there is a Bose pair
        bose_parts = [((0,) * k, (0,) * k)] + [((1,) + (0,) * (k - 1), (0,) * k)] * (k > 0)
        rows = []
        for mask in range(1 << (2 * n)):
            for wp, wq in bose_parts:
                M = cw_to_matrix(n, k, monomial_element(sig, CwMonomial(mask, wp, wq)))
                rows.append(_matrix_rows(M))
        run.check(["independent basis images, " + label], sparse_rank(rows), len(rows))


def _osp_grid(algebra):
    if algebra is None:
        return [(1, 1), (2, 1), (3, 1), (1, 2)]
    sig = _need_cw(algebra, None)
    return [(sig.n_fermi, sig.n_bose)]


def _suite_parastat(run, rng, algebra, maxdeg, cases, params):
    grid = _osp_grid(algebra)
    params["grid"] = [cw_descriptor(AlgebraSignature(n, k)) for n, k in grid]
    dims = {}
    for n, k in grid:
        ctx = OspContext(AlgebraSignature(n, k))
        run.merge(verify_ps(ctx))
        _basis, total, _parts = build_g(ctx)
        label = cw_descriptor(ctx.signature)
        run.check(["dim g, " + label], total, expected_dimension(n, k))
        dims[label] = total
    return {"dims": dims}


def _suite_twisted_adjoint(run, rng, algebra, maxdeg, cases, params):
    grid = _osp_grid(algebra)
    params["grid"] = [cw_descriptor(AlgebraSignature(n, k)) for n, k in grid]
    for n, k in grid:
        run.merge(verify_invariance(OspContext(AlgebraSignature(n, k))))


def _suite_ore_relations(run, rng, algebra, maxdeg, cases, params):
    ranks = _need_ore_grid(algebra, (0, 1, 2))
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


def _suite_a0_iso(run, rng, algebra, maxdeg, cases, params):
    ranks = _need_ore_grid(algebra, (0, 1))
    pairs = cases or 100
    deg = 3 if maxdeg is None else maxdeg
    params.update({"ranks": ranks, "cases": pairs})
    for n in ranks:
        sig = cw_odd_signature(n)
        label = "ore:%d" % n
        for _ in range(pairs):
            a = _rand_cw(rng, sig, maxdeg=deg)
            b = _rand_cw(rng, sig, maxdeg=deg)
            fa, fb = iso_cw_to_a0(n, a), iso_cw_to_a0(n, b)
            run.check(
                ["degree-zero part of the product, " + label, a, b],
                iso_a0_to_cw(n, ore_product(fa, fb).lam_coefficient(0)),
                star(a, b),
            )
        for _ in range(25):
            x = _rand_cw(rng, sig, maxdeg=deg)
            run.check(
                ["round trip, " + label, x], iso_a0_to_cw(n, iso_cw_to_a0(n, x)), x
            )


def _suite_cocycle(run, rng, algebra, maxdeg, cases, params):
    ranks = _need_ore_grid(algebra, (0, 1))
    triples = cases or 50
    params.update({"ranks": ranks, "cases": triples})
    constants = {}
    for n in ranks:
        table = compare_cocycle(n)
        run.merge(table)
        constants["ore:%d" % n] = str(table["constant"])
        sig = cw_odd_signature(n)

        def c1(x, y, _n=n):
            return deformation_cochain_c1(_n, x, y)

        evaluator = CochainEvaluator(2, c1, element_tag(unit(sig)))
        d = coboundary(evaluator)
        for _ in range(triples):
            t = tuple(_rand_cw(rng, sig, nterms=2, maxdeg=2) for _ in range(3))
            run.check(["cocycle law, ore:%d" % n] + list(t), d(*t), zero(sig))
    return {"constants": constants}


def _suite_ghost(run, rng, algebra, maxdeg, cases, params):
    ranks = _need_ore_grid(algebra, (0, 1, 2))
    count = cases or 10
    params.update({"ranks": ranks, "random_values": count})
    lam_samples = tuple(_rand_lam(rng) for _ in range(count))
    for n in ranks:
        run.merge(ghost_identities(n, lam_samples=lam_samples))


def _suite_verma(run, rng, algebra, maxdeg, cases, params):
    _no_algebra(algebra, "verma")
    count = cases or 20
    params.update({"weights": "2h in 0..6", "random_values": count, "max_power": 50})
    for two_h in range(7):
        h = Fraction(two_h, 2)
        lam = GaussianRational(h + Fraction(1, 4))
        top = int(4 * h) + 1
        run.check(
            ["highest-weight kill, 2h=%d" % two_h],
            verma_apply(lam, ore_e_plus(0), {top: GaussianRational(1)}),
            {},
        )
    ep, em, p = ore_e_plus(0), ore_e_minus(0), ore_fermi(0, 1)
    quarter = ore_scalar(0, Fraction(1, 4))
    # each left side acts one generator at a time, so no product normal-orders
    # it before verma_apply sees every factor
    relations = [
        ("{E+,P}", lambda act, f: _poly_sum(act(ep, act(p, f)), act(p, act(ep, f))), ore_zero(0)),
        ("{E-,P}", lambda act, f: _poly_sum(act(em, act(p, f)), act(p, act(em, f))), ore_zero(0)),
        ("P^2", lambda act, f: act(p, act(p, f)), ore_unit(0)),
        (
            "[E+,E-] + 1/4",
            lambda act, f: _poly_sum(act(ep, act(em, f)), act(-em, act(ep, f)), act(quarter, f)),
            ore_product(ore_lambda(0), p),
        ),
    ]
    for _ in range(count):
        lam = _rand_lam(rng)
        act = partial(verma_apply, lam)
        for m in range(51):
            f = {m: GaussianRational(1)}
            for name, lhs, rhs in relations:
                run.check([name, "lambda=%s" % lam, "z^%d" % m], lhs(act, f), act(rhs, f))


def _poly_sum(*polys):
    """The sum of polynomials {exponent: coefficient}."""
    out = {}
    for poly in polys:
        for m, c in poly.items():
            accumulate(out, m, c)
    return out


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
    vol = ident
    for wi in ws:
        vol = vol * wi
    ghost_img = vol.scale(i_power(n)) * lam
    quarter = ident.scale(Fraction(-1, 4))
    run.check([label, "[E+,E-]"], ep * em - em * ep, quarter + ghost_img)


def _suite_pi_h(run, rng, algebra, maxdeg, cases, params):
    _no_algebra(algebra, "pi-h")
    params["grid"] = [_pi_label(*entry) for entry in _PI_H_GRID]
    for n, h, sign in _PI_H_GRID:
        label = _pi_label(n, h, sign)
        rep = finite_irrep_pi_h(n, h, sign)
        dim = (1 << n) * (int(4 * h) + 1)
        run.check([label, "dimension"], rep["E+"].shape, (dim, dim))
        _check_pi_relations(run, n, rep, label)


def _suite_center(run, rng, algebra, maxdeg, cases, params):
    ranks = _need_ore_grid(algebra, (0,))
    degree = 4 if maxdeg is None else maxdeg
    params.update({"ranks": ranks, "maxdeg": degree})
    basis = {}
    for n in ranks:
        candidates = center_probe(n, degree)
        basis["ore:%d" % n] = [str(x) for x in candidates]
        gens = ore_generators(n) + [ore_lambda(n)]
        for x in candidates:
            for g in gens:
                run.check(
                    ["central, ore:%d" % n, x, g],
                    ore_product(x, g),
                    ore_product(g, x),
                )
    return {"basis": basis}


def _suite_commutant(run, rng, algebra, maxdeg, cases, params):
    _no_algebra(algebra, "commutant")
    params["grid"] = [_pi_label(*entry) for entry in _PI_H_GRID]
    dims = {}
    for n, h, sign in _PI_H_GRID:
        label = _pi_label(n, h, sign)
        dim = commutant_probe(finite_irrep_pi_h(n, h, sign))
        dims[label] = dim
        run.check([label, "scalar commutant"], dim, 1)
    return {"commutant_dims": dims}


def _suite_osp22(run, rng, algebra, maxdeg, cases, params):
    ranks = _need_ore_grid(algebra, (0, 1))
    params["ranks"] = ranks
    for n in ranks:
        run.merge(osp22_check(n))


def _suite_hochschild(run, rng, algebra, maxdeg, cases, params):
    _no_algebra(algebra, "hochschild")
    count = cases or 100
    sig = cw_odd_signature(0)
    params.update({"algebra": cw_descriptor(sig), "cases": count})
    support = {}
    for mask in range(2):
        for wp in range(2):
            for wq in range(2):
                support[CwMonomial(mask, (wp,), (wq,))] = _rand_cw(rng, sig, maxdeg=3)

    def sampled(x):
        out = zero(sig)
        for m, c in x.terms.items():
            img = support.get(m)
            if img is not None:
                out = out + img.scale(c)
        return out

    tag = element_tag(unit(sig))
    one_cochain = CochainEvaluator(1, sampled, tag)
    triples = [tuple(_rand_cw(rng, sig, maxdeg=2) for _ in range(3)) for _ in range(count)]
    run.merge(d_squared_check(one_cochain, triples))

    def c1(x, y):
        return deformation_cochain_c1(0, x, y)

    evaluator = CochainEvaluator(2, c1, tag)
    sub = [unit(sig), fermi_gen(sig, 1)]
    samples = [fermi_gen(sig, 1), bose_p(sig, 1), bose_q(sig, 1)]
    run.merge(relative_normalized_check(evaluator, sub, samples))


_SUITES = {
    "relations": _suite_relations,
    "associativity": _suite_associativity,
    "periodicity1": _suite_periodicity1,
    "periodicity2": _suite_periodicity2,
    "odd-split": _suite_odd_split,
    "spin-lemma": _suite_spin_lemma,
    "matrix-iso": _suite_matrix_iso,
    "parastat": _suite_parastat,
    "twisted-adjoint": _suite_twisted_adjoint,
    "ore-relations": _suite_ore_relations,
    "a0-iso": _suite_a0_iso,
    "cocycle": _suite_cocycle,
    "ghost": _suite_ghost,
    "verma": _suite_verma,
    "pi-h": _suite_pi_h,
    "center": _suite_center,
    "commutant": _suite_commutant,
    "osp22": _suite_osp22,
    "hochschild": _suite_hochschild,
}


def suite_names():
    return sorted(_SUITES)


def run_suite(name, seed=0, algebra=None, maxdeg=None, cases=None):
    """Execute one named suite; deterministic given (name, params, seed)."""
    fn = _SUITES.get(name)
    if fn is None:
        raise SuiteUsageError(
            "unknown suite %r (choose from: %s)" % (name, ", ".join(suite_names()))
        )
    if cases is not None and cases < 1:
        raise SuiteUsageError("cases must be positive")
    if cases is not None and cases > MAX_CASES:
        raise SuiteUsageError("cases must be at most %d" % MAX_CASES)
    if maxdeg is not None and maxdeg < 0:
        raise SuiteUsageError("maxdeg must be non-negative")
    run = Checks()
    rng = random.Random(seed)
    params = {}
    start = time.perf_counter()
    details = fn(run, rng, algebra, maxdeg, cases, params)
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
