"""Walk-through: concrete modules as an independent check on the product.

Each representation kind acts on polynomial vectors with Grassmann
coefficients.  The action is defined generator by generator, with no
reference to the star product's own combinatorics, so
act(a * b, v) == act(a, act(b, v)) is a genuine cross-check.

Run:  python3 demos/02_representations.py
"""

import random
from fractions import Fraction

from cliffordweyl import (
    CwElement,
    CwMonomial,
    GrassPolyVector,
    act,
    bose_p,
    fermi_gen,
    rep_matrix,
    spin,
    spin_metaplectic,
    spin_rep_odd_sign_check,
    star,
)


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
        terms[m] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return CwElement(sig, terms)


print("== the even spin module on C(4,0) ==")
desc = spin(2)
sig = desc.signature()
print("carrier dimension:", desc.finite_dimension())
for i in (1, 2, 3, 4):
    M = rep_matrix(desc, fermi_gen(sig, i))
    print("matrix of w%d:" % i, M)

print()
print("== matrices multiply the way the algebra does ==")
a, b = fermi_gen(sig, 1), fermi_gen(sig, 3)
print(
    "rep(w1 * w3) == rep(w1) rep(w3):",
    rep_matrix(desc, star(a, b)) == rep_matrix(desc, a) * rep_matrix(desc, b),
)

print()
print("== a mixed kind acting on vectors ==")
desc = spin_metaplectic(1, 1)
sig = desc.signature()
rng = random.Random(2024)
v = GrassPolyVector(desc.ell, desc.k, {(0, (0,)): 1})
print("start           v =", v)
print("act(p1)         ->", act(desc, bose_p(sig, 1), v))
print("act(w1)         ->", act(desc, fermi_gen(sig, 1), v))

print()
print("== 200 random oracle cases on this kind ==")
bad = 0
for _ in range(200):
    a = rand_element(rng, sig)
    b = rand_element(rng, sig)
    u = GrassPolyVector(
        desc.ell,
        desc.k,
        {(rng.getrandbits(desc.ell), (rng.randint(0, 3),)): rng.randint(-3, 3)},
    )
    if act(desc, star(a, b), u) != act(desc, a, act(desc, b, u)):
        bad += 1
print("mismatches:", bad)

print()
print("== odd-rank volume element sign in the two half-spin modules ==")
for n in (1, 2, 3):
    print("n=%d:" % n, spin_rep_odd_sign_check(n))
