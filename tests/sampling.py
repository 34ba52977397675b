"""The tests' random elements, one sampler per family, so every seeded test
keeps its draws; the suites draw theirs through `suites._rand_element`."""

from fractions import Fraction

from cliffordweyl.algebra import CwElement, CwMonomial
from cliffordweyl.ore import OreElement, OreMonomial
from cliffordweyl.scalars import GaussianRational, Scalar


def rand_element(rng, sig, nterms=3, maxdeg=4):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        while True:
            cliff = rng.getrandbits(sig.n_fermi) if sig.n_fermi else 0
            wp = tuple(rng.randint(0, 2) for _ in range(sig.n_bose))
            wq = tuple(rng.randint(0, 2) for _ in range(sig.n_bose))
            m = CwMonomial(cliff, wp, wq)
            if m.z_degree() <= maxdeg:
                break
        terms[m] = Scalar.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2))
    return CwElement(sig, terms)


def rand_ore(n, rng, nterms=3, maxdeg=4, with_lam=True):
    terms = {}
    for _ in range(nterms):
        while True:
            cliff = rng.getrandbits(2 * n + 1)
            a = rng.randrange(maxdeg + 1)
            b = rng.randrange(maxdeg + 1)
            r = rng.randrange(2) if with_lam else 0
            if cliff.bit_count() + a + b + 2 * r <= maxdeg:
                break
        terms[OreMonomial(cliff, a, b, r)] = GaussianRational(
            Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)),
            Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)),
        )
    return OreElement(n, terms)
