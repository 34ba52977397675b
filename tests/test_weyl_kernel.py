"""The Bose kernel, star words and products against whole-tuple oracles.

`tests/reference_weyl_kernel.py` holds the earlier kernel, star words and
wedge, which work on whole k-mode exponent tuples, and a product that
multiplies term by term at the signature's t.  The library factors the
kernel per mode, keeps the star words only as one mode's closed form
(`_mode_words`), and gets every t from the product at t = 1 by the degree
grading; these seeded property tests compare the two on random
exponent tuples with k <= 4 modes and exponents <= 6, and check that the
kernel caches, and the one-mode words that `reps.act` reads, stay bounded;
every kernel in `sparse.KERNELS` declared with a size limit caches nothing
past it and computes there what its cache would, and the transports'
diagonal cache changes no result.
The Fermi kernel is checked against the reference's bubble sort on every
pair of masks below 2^7, and a wrong sign in it against the suites.
"""

import math
import random
from fractions import Fraction
from itertools import product as iproduct
from types import FunctionType

import pytest

import reference_weyl_kernel as ref
from faults import empty_kernel_caches, inject
from kernel_format import weyl_terms
from sampling import rand_element, rand_ore
from cliffordweyl import deform, ore, periodicity, starprod
from cliffordweyl.algebra import AlgebraSignature, CwElement, CwMonomial
from cliffordweyl.reps import GrassPolyVector, act, spin_metaplectic
from cliffordweyl.scalars import GR_ONE, GR_ZERO, GaussianRational, S_HALF, S_LAMBDA, S_ONE, Scalar, split_powers
from cliffordweyl.sparse import KERNELS
from cliffordweyl.starprod import (
    _cliff_pair,
    _mode_pair,
    _mode_words,
    _weyl_pair,
    star,
    wedge,
)
from cliffordweyl.suites import _rand_element as suite_element

# the reference kernel enumerates every (r, s) pair, prod over modes of
# (min(A, D) + 1)(min(B, C) + 1); cases above this are redrawn to keep it quick
REF_PAIR_WORK = 5000


def _tuples(rng, k):
    return tuple(rng.randint(0, 6) for _ in range(k))


def _ref_work(A, B, C, D):
    return math.prod((min(a, d) + 1) * (min(b, c) + 1) for a, b, c, d in zip(A, B, C, D))


def _kernel_cases(rng, count):
    cases = []
    while len(cases) < count:
        k = rng.randint(0, 4)
        A, B, C, D = (_tuples(rng, k) for _ in range(4))
        if _ref_work(A, B, C, D) <= REF_PAIR_WORK:
            cases.append((A, B, C, D))
    return cases


def _by_monomial(terms):
    """{(P, Q): (order, summed coefficient)} with cancelled monomials dropped."""
    out = {}
    for order, coeff, P, Q in terms:
        if (P, Q) in out:
            assert out[(P, Q)][0] == order
            coeff = out[(P, Q)][1] + coeff
        out[(P, Q)] = (order, coeff)
    return {key: v for key, v in out.items() if v[1]}


@pytest.mark.parametrize(
    "t",
    [GR_ONE, GR_ZERO, GaussianRational(2), GaussianRational(Fraction(1, 3), -1)],
    ids=["1", "0", "2", "1/3-i"],
)
def test_kernel_matches_whole_tuple_reference(t):
    # the kernel is the one at t = 1; a term of order e at t is t^e times it
    rng = random.Random(6061)
    for A, B, C, D in _kernel_cases(rng, 60):
        got = weyl_terms(_weyl_pair(A, B, C, D))
        assert all(coeff for _, coeff, _, _ in got)
        # the per-mode kernel merges the terms of one monomial
        assert len({(P, Q) for _, _, P, Q in got}) == len(got)
        at_t = [(order, coeff * t**order, P, Q) for order, coeff, P, Q in got]
        assert _by_monomial(at_t) == _by_monomial(ref._weyl_pair(A, B, C, D, t)), (A, B, C, D)


def _rand_element(rng, sig, nterms):
    terms = {}
    for _ in range(nterms):
        m = CwMonomial(
            rng.getrandbits(sig.n_fermi) if sig.n_fermi else 0,
            _tuples(rng, sig.n_bose),
            _tuples(rng, sig.n_bose),
        )
        terms[m] = Scalar({0: GaussianRational(rng.randint(-4, 4), rng.randint(-2, 2)), 1: GR_ONE})
    return CwElement(sig, terms)


def _product_cases(rng, sig, count):
    """count pairs of 2-term elements small enough for the whole-tuple kernel."""
    cases = []
    while len(cases) < count:
        a, b = _rand_element(rng, sig, 2), _rand_element(rng, sig, 2)
        work = sum(_ref_work(m1.wp, m1.wq, m2.wp, m2.wq) for m1 in a.terms for m2 in b.terms)
        if work <= REF_PAIR_WORK:
            cases.append((a, b))
    return cases


OTHER_T = [Scalar(), Scalar.of(2), Scalar.of(Fraction(1, 3), -1), S_LAMBDA, S_ONE + S_LAMBDA]


@pytest.mark.parametrize("t", OTHER_T, ids=["0", "2", "1/3-i", "L", "1+L"])
def test_star_matches_reference_product(t):
    # star at t != 1 scales the t = 1 products of homogeneous parts by the
    # grading; the reference multiplies every term at t itself
    rng = random.Random(6062)
    for k in (0, 1, 2, 3, 4):
        sig = AlgebraSignature(3, k, t)
        for a, b in _product_cases(rng, sig, 3):
            assert star(a, b) == ref.star(a, b), (a, b)


def test_star_at_one_matches_reference_product():
    rng = random.Random(6065)
    for k in (0, 1, 2, 3, 4):
        for a, b in _product_cases(rng, AlgebraSignature(3, k), 3):
            assert star(a, b) == ref.star(a, b), (a, b)


def test_wedge_matches_reference_wedge():
    rng = random.Random(6066)
    for t in (S_ONE, S_LAMBDA):
        for k in (0, 1, 2, 3):
            for a, b in _product_cases(rng, AlgebraSignature(3, k, t), 4):
                assert wedge(a, b) == ref.wedge(a, b), (a, b)


def test_wedge_and_poisson_kernels_keep_only_their_orders():
    # the order-e kernel gives the t = 1 terms that lose 2e degrees, times its
    # weight, selected by the order field before any key is built
    rng = random.Random(6067)
    for k in (0, 1, 2, 3):
        for a, b in _product_cases(rng, AlgebraSignature(3, k), 4):
            for (k1, _), (k2, _) in iproduct(split_powers(a.terms), split_powers(b.terms)):
                den, ((s, _, bucket, terms),) = starprod._at_one(k1, k2)
                d = k1[0].z_degree() + k2[0].z_degree()
                for e, weight in ((0, 1), (1, 2)):
                    got_den, ((got_s, fi, got_bucket, kept),) = starprod._order_kernel(e, weight)(k1, k2)
                    assert (got_den, got_s, fi, got_bucket) == (den, s * weight, 0, bucket)
                    degree = d - 2 * e
                    assert kept == [(u, PQ) for u, PQ in terms if CwMonomial(bucket[0], *PQ).z_degree() == degree]


def test_cw_kernels_hand_the_loop_the_cached_bose_terms(monkeypatch):
    # once `_weyl_pair` holds a pair, the t = 1 kernel gives its term tuple
    # itself, and the order and bracket kernels select terms of it: no term
    # or CwMonomial is built per pair, only one CwMonomial per output (key, L
    # power), when the buckets are joined
    rng = random.Random(6068)
    for k in (0, 1, 2, 3):
        for a, b in _product_cases(rng, AlgebraSignature(3, k), 4):
            for (k1, _), (k2, _) in iproduct(split_powers(a.terms), split_powers(b.terms)):
                (m1, l1), (m2, l2) = k1, k2
                starprod._at_one(k1, k2)
                den, terms, orders = _weyl_pair(m1.wp, m1.wq, m2.wp, m2.wq)
                monkeypatch.setattr(starprod, "_monomial", None)
                got_den, ((_, _, bucket, got),) = starprod._at_one(k1, k2)
                assert got is terms and got_den == den and bucket == (m1.cliff ^ m2.cliff, l1 + l2)
                common = (m1.cliff & m2.cliff).bit_count()
                for e in (0, 1, 2):
                    (_, ((_, _, _, kept),)) = starprod._order_kernel(e, 1)(k1, k2)
                    assert kept == [t for t, r in zip(terms, orders) if r + common == e]
                    assert all(any(t is u for u in terms) for t in kept)
                for odd in (lambda m1, m2: False, lambda m1, m2: True):
                    (_, ((_, _, _, kept),)) = starprod._bracket_kernel(odd)(k1, k2)
                    assert all(any(t is u for u in terms) for t in kept)
                monkeypatch.undo()
    built, real_key = [], starprod._monomial

    def key(mask, PQ):
        built.append(mask)
        return real_key(mask, PQ)

    monkeypatch.setattr(starprod, "_monomial", key)
    for a, b in _product_cases(rng, AlgebraSignature(3, 2), 10):
        built.clear()
        out = star(a, b)
        assert out == ref.star(a, b)
        assert len(built) == sum(len(c.terms) for c in out.terms.values())


def test_cliff_pair_is_the_inversion_count():
    # the bubble sort of I's word then J's, with w_i w_i = t, at t = 1
    for I in range(1 << 7):
        for J in range(1 << 7):
            sign, _, mask = ref._fermi_word(I, J)
            assert _cliff_pair(I, J) == (sign < 0, mask), (I, J)


def test_suites_catch_a_wrong_sign_in_the_fermi_kernel(monkeypatch):
    # each binding flips the sign of each pair with a common generator
    par, mask = _cliff_pair(0b11, 0b01)
    inject(monkeypatch, "cliff-parity")
    assert [m._cliff_pair(0b11, 0b01) for m in (starprod, ore, periodicity)] == [(not par, mask)] * 3


def _words_from_modes(A, B, t):
    """p^A q^B as sorted [(Scalar, word)]: the product over modes of `_mode_words`."""
    if not A:
        return [(S_ONE, ())]
    out = []
    for terms in iproduct(*map(_mode_words, A, B)):
        orders, nums, nq, np_ = zip(*terms)
        c = (t * S_HALF) ** sum(orders) * Scalar.of(math.prod(nums))
        if c:
            word = sum((((("q", j + 1),) * e) for j, e in enumerate(nq)), ())
            word += sum((((("p", j + 1),) * e) for j, e in enumerate(np_)), ())
            out.append((c, word))
    return sorted(out, key=lambda cw: cw[1])


@pytest.mark.parametrize("t", [S_ONE, Scalar(), S_LAMBDA], ids=["1", "0", "L"])
def test_star_words_match_whole_tuple_reference(t):
    # the one-mode closed form, multiplied out over the modes, is the
    # whole-tuple word list; `reps.act` relies on that factorization
    rng = random.Random(6063)
    for _ in range(60):
        k = rng.randint(0, 4)
        A, B = _tuples(rng, k), _tuples(rng, k)
        if math.prod(min(a, b) + 1 for a, b in zip(A, B)) > 100:
            continue
        assert _words_from_modes(A, B, t) == ref._weyl_words(A, B, t), (A, B)


def test_kernel_caches_stay_bounded():
    # `_unit_monomial` is keyed by a Bose count, which the size gate bounds
    kernels = [cache for name, cache in KERNELS.items() if name != "algebra.unit_monomial"]
    assert {_weyl_pair, _mode_pair, _cliff_pair, ore._lower_past_powers, deform._diagonal} <= set(kernels)
    for kernel in kernels:
        assert kernel.cache_info().maxsize is not None
    _weyl_pair.cache_clear()
    starprod._weyl_word_cache.clear()
    desc = spin_metaplectic(2, 4)
    sig = desc.signature()
    v = GrassPolyVector.basis(2, 4, 0b11, (3, 1, 4, 1))
    rng = random.Random(6064)
    for _ in range(4):
        a, b = (suite_element(rng, sig, nterms=20, maxdeg=10) for _ in range(2))
        star(a, b)
        act(desc, a + b, v)
    ore.ore_product(ore.ore_e_minus(0) ** 6, ore.ore_e_plus(0) ** 9)
    # more diagonals (every E+^a E-^b and P E+^a E-^b with a, b <= 16) than
    # its cache holds
    every_diagonal = {ore.OreMonomial(p, a, b, 0): GR_ONE for p in (0, 1) for a in range(17) for b in range(17)}
    deform.pi_h_matrix(0, 2, "+", ore.OreElement(0, every_diagonal))
    assert _weyl_pair.cache_info().misses > 0
    for kernel in kernels:
        info = kernel.cache_info()
        assert info.currsize <= info.maxsize
    assert deform._diagonal.cache_info().misses > deform._diagonal.cache_info().maxsize
    assert starprod._weyl_word_cache
    for key in starprod._weyl_word_cache:
        assert len(key) == 2 and all(isinstance(e, int) for e in key)
    # more one-mode words than the bound: the oldest entries are dropped
    starprod._weyl_word_cache.clear()
    keys = [(a, b) for a in range(70) for b in range(70)]
    words = [starprod._mode_words(a, b) for a, b in keys]
    assert list(starprod._weyl_word_cache) == keys[-starprod._WEYL_WORD_CACHE :]
    assert starprod._mode_words(*keys[0]) == words[0]
    starprod._weyl_word_cache.clear()


# arguments of each kernel declared with a size limit: within it, and past it
# (the quotients at h = 15 and h = 16, d = 61 and d = 65)
WITHIN_AND_PAST_THE_LIMIT = {
    "ore.lower_past_powers": ((64, 70), (65, 70)),
    "deform.diagonal": (
        (GaussianRational(Fraction(61, 4)), -1, 61, 1, 3, 0),
        (GaussianRational(Fraction(65, 4)), -1, 65, 1, 3, 0),
    ),
}


def test_transport_kernels_cache_nothing_past_their_size_limits():
    # a kernel declared with `fits` is a plain function around its cache
    limited = {name for name, kernel in KERNELS.items() if isinstance(kernel, FunctionType)}
    assert limited == set(WITHIN_AND_PAST_THE_LIMIT)
    for name, (within, past) in WITHIN_AND_PAST_THE_LIMIT.items():
        kernel = KERNELS[name]
        kernel.cache_clear()
        assert kernel(*within) == kernel.__wrapped__(*within) and kernel.cache_info().currsize == 1
        info = kernel.cache_info()
        assert kernel(*past) == kernel.__wrapped__(*past) and kernel.cache_info() == info
        kernel.cache_clear()
    # h = 16: d = 65, past the limit
    diagonals = deform._diagonal.cache_info()
    deform.pi_h_matrix(0, 16, "-", ore.ore_e_plus(0) ** 3 + ore.ore_fermi(0, 1))
    assert deform._diagonal.cache_info() == diagonals


def test_transports_agree_with_warm_and_cleared_caches():
    rng = random.Random(6065)
    cws = [rand_element(rng, AlgebraSignature(4, 1), nterms=6) for _ in range(3)]
    ores = [rand_ore(1, rng, nterms=6) for _ in range(3)]

    def transports():
        return (
            [periodicity.cw_to_matrix(2, 1, x) for x in cws],
            [deform.ore_to_matrix(1, x) for x in ores],
            [deform.pi_h_matrix(1, h, sign, x) for x in ores for h, sign in ((Fraction(1, 2), "+"), (1, "-"))],
        )

    empty_kernel_caches()
    cold = transports()
    assert deform._diagonal.cache_info().currsize
    assert transports() == cold
