"""Walk-through: mixed Clifford-Weyl algebras and their associative product.

Builds a small algebra with two anticommuting generators and one
canonical pair, then exercises the defining relations, the graded
bracket family, the volume word, and exact rational/imaginary scalars.

Run:  python3 demos/01_star_product_basics.py
"""

from fractions import Fraction

from cliffordweyl import (
    AlgebraSignature,
    GaussianRational,
    anti_bracket,
    bose_p,
    bose_q,
    fermi_gen,
    lie_bracket,
    scalar_element,
    star,
    super_bracket,
    supertrace_weyl,
    volume_word_element,
)

SIG = AlgebraSignature(2, 1)  # two Clifford generators, one canonical pair

w1, w2 = fermi_gen(SIG, 1), fermi_gen(SIG, 2)
p1, q1 = bose_p(SIG, 1), bose_q(SIG, 1)

print("== defining relations ==")
print("w1 * w1          =", star(w1, w1))
print("{w1, w2}         =", anti_bracket(w1, w2))
print("[p1, q1]         =", lie_bracket(p1, q1))
print("{w1, p1}         =", anti_bracket(w1, p1), "  (odd generators anticommute)")

print()
print("== the product is exact, not floating point ==")
half_i = scalar_element(SIG, GaussianRational(Fraction(1, 2), 1))
x = star(half_i, star(p1, q1))
print("(1/2 + ... )*p1*q1 =", x)
print("x * x              =", star(x, x))

print()
print("== graded bracket picks sign by the canonical-pair parity ==")
print("super(w1, w2) == lie(w1, w2)  :", super_bracket(w1, w2) == lie_bracket(w1, w2))
print("super(p1, q1) == anti(p1, q1) :", super_bracket(p1, q1) == anti_bracket(p1, q1))

print()
print("== volume words square to +/-1 ==")
for n in (1, 2, 3):
    vol = volume_word_element(n)
    print("n=%d: vol = %-22s vol*vol = %s" % (n, vol, star(vol, vol)))

print()
print("== supertrace on the pure Weyl part ==")
WEYL = AlgebraSignature(0, 1)
pq = star(bose_p(WEYL, 1), bose_q(WEYL, 1))
print("str(p1 q1 + 1/2) has supertrace", supertrace_weyl(pq))
