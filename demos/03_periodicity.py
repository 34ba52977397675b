"""Walk-through: rank-reduction isomorphisms and the matrix realization.

A large mixed algebra factors as (matrix-size piece) x (smaller algebra);
the maps here realize that factorization exactly and invert each other on
the nose.  The same mechanism writes C(2m, 2k) as genuine 2^m x 2^m
matrices over a pure Weyl algebra.

Run:  python3 demos/03_periodicity.py
"""

import random
from fractions import Fraction

from cliffordweyl import (
    AlgebraSignature,
    CwElement,
    CwMonomial,
    bose_p,
    cw_to_matrix,
    fermi_gen,
    odd_join,
    odd_split,
    periodicity1_forward,
    periodicity1_inverse,
    star,
    tensor_of,
)
from cliffordweyl.algebra import monomial_element


def rand_element(rng, sig, nterms=3, maxdeg=3):
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


print("== splitting two Clifford generators off C(3,2) ==")
m, n, k = 1, 1, 1
big = AlgebraSignature(2 * m + n, k)
x = star(fermi_gen(big, 3), bose_p(big, 1))
fwd = periodicity1_forward(m, n, k, x)
print("x          =", x)
for (ml, mr), c in fwd.terms.items():
    print(
        "forward(x) = [%s] (x) [%s]  *  %s"
        % (
            monomial_element(fwd.left_signature, ml),
            monomial_element(fwd.right_signature, mr),
            c,
        )
    )
print("back again =", periodicity1_inverse(m, n, k, fwd))

print()
print("== both round-trip directions, 50 random checks each ==")
rng = random.Random(77)
left, right = AlgebraSignature(2 * m, 0), AlgebraSignature(n, k)
ok_fwd = all(
    periodicity1_inverse(m, n, k, periodicity1_forward(m, n, k, e)) == e
    for e in (rand_element(rng, big) for _ in range(50))
)
ok_inv = all(
    periodicity1_forward(m, n, k, periodicity1_inverse(m, n, k, X)) == X
    for X in (
        tensor_of(rand_element(rng, left), rand_element(rng, right)) for _ in range(50)
    )
)
print("inverse(forward(x)) == x:", ok_fwd)
print("forward(inverse(X)) == X:", ok_inv)

print()
print("== C(2,2) as 2x2 matrices over the Weyl algebra ==")
sig = AlgebraSignature(2, 1)
for name, g in (("w1", fermi_gen(sig, 1)), ("w2", fermi_gen(sig, 2)), ("p1", bose_p(sig, 1))):
    M = cw_to_matrix(1, 1, g)
    print("%s -> %s" % (name, [[str(e) for e in row] for row in M.rows]))

a, b = rand_element(rng, sig), rand_element(rng, sig)
print(
    "matrix map is multiplicative on random pairs:",
    cw_to_matrix(1, 1, star(a, b)) == cw_to_matrix(1, 1, a) * cw_to_matrix(1, 1, b),
)

print()
print("== odd rank splits into two commuting even blocks ==")
odd = AlgebraSignature(3, 0)
y = star(fermi_gen(odd, 1), fermi_gen(odd, 3))
plus, minus = odd_split(1, y)
print("y     =", y)
print("plus  =", plus)
print("minus =", minus)
print("rejoined equals y:", odd_join(1, plus, minus) == y)
