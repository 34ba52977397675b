"""The suites' one random element against the two samplers it replaced.

`suites._rand_element` draws every cw and ore input of the suites.  The
reference below keeps the cw and ore samplers it replaced, as they were, so
the test pins that the one sampler returns the same element and leaves the
rng in the same state, on every shape the draw bound admits, and that a
shape it refuses raises before the first draw.
"""

import random

import pytest

from cliffordweyl.algebra import CwElement, CwMonomial
from cliffordweyl.exprs import parse_algebra
from cliffordweyl.ore import OreElement, OreMonomial
from cliffordweyl.sparse import accumulate
from cliffordweyl.suites import SuiteUsageError, _check_draws, _rand_coeff, _rand_element


def ref_rand_cw(rng, sig, nterms=3, maxdeg=4):
    _check_draws(sig.n_fermi, 2 * sig.n_bose, 0, maxdeg)
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


def ref_rand_ore(rng, n, nterms=3, maxdeg=4):
    _check_draws(2 * n + 1, 2, 1, maxdeg)
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


def _space(descriptor):
    """The sampler's space for a descriptor (a signature or a rank), and the reference sampler."""
    algebra = parse_algebra(descriptor)
    if algebra.kind == "ore":
        return algebra.n, ref_rand_ore
    return algebra.signature, ref_rand_cw


# every degree 0..4 is admitted on these: ore:2 at degree 0 takes 576 draws a term
SPACES = ["cw:0,2", "cw:1,2", "cw:2,4", "cw:3,0", "ore:0", "ore:1", "ore:2"]


@pytest.mark.parametrize("descriptor", SPACES)
def test_one_sampler_draws_what_the_family_sampler_drew(descriptor):
    space, reference = _space(descriptor)
    for seed, maxdeg, nterms in ((s, d, t) for s in range(20) for d in range(5) for t in (1, 2, 3)):
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        want = reference(want_rng, space, nterms=nterms, maxdeg=maxdeg)
        got = _rand_element(got_rng, space, nterms=nterms, maxdeg=maxdeg)
        assert type(got) is type(want) and got.space == want.space
        assert got.terms == want.terms, (descriptor, seed, maxdeg, nterms)
        assert got_rng.getstate() == want_rng.getstate(), (descriptor, seed, maxdeg, nterms)


# more than MAX_DRAWS draws a term: cw:3,6 and ore:3 only at degree 0, cw:4,8 below degree 3
REFUSED = [("cw:3,6", 0), ("ore:3", 0), ("cw:4,8", 2), ("cw:6,10", 4), ("cw:12,12", 4), ("ore:12", 4)]


@pytest.mark.parametrize("descriptor, maxdeg", REFUSED)
def test_a_refused_shape_raises_before_its_first_draw(descriptor, maxdeg):
    space, reference = _space(descriptor)
    for sample in (reference, _rand_element):
        rng = random.Random(5)
        state = rng.getstate()
        with pytest.raises(SuiteUsageError):
            sample(rng, space, nterms=3, maxdeg=maxdeg)
        assert rng.getstate() == state
