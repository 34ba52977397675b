"""Walk-through: the one-parameter deformation and its module theory.

The deformed family keeps the odd Clifford generators, replaces the
canonical pair with raising/lowering elements E+/E-, and adds a central
parameter L.  At L -> 0 it truncates onto the undeformed algebra; away
from zero it carries a ghost element that squares to L^2, lowest-weight
modules with an exact kill condition, and finite quotients.

Run:  python3 demos/05_deformed_family.py
"""

from fractions import Fraction

from cliffordweyl import (
    CochainEvaluator,
    GaussianRational,
    Matrix,
    center_probe,
    coboundary,
    compare_cocycle,
    cw_odd_signature,
    deformation_cochain_c1,
    element_tag,
    fermi_gen,
    finite_irrep_pi_h,
    ghost_theta,
    iso_a0_to_cw,
    iso_cw_to_a0,
    ore_e_minus,
    ore_e_plus,
    ore_lambda,
    ore_lie_bracket,
    ore_product,
    ore_scalar,
    unit,
    verma_apply,
    zero,
)

print("== the ghost element ==")
for n in (0, 1):
    theta = ghost_theta(n)
    quarter = ore_scalar(n, GaussianRational(Fraction(1, 4)))
    built = ore_lie_bracket(ore_e_plus(n), ore_e_minus(n)) + quarter
    lam2 = ore_product(ore_lambda(n), ore_lambda(n))
    print("n=%d: theta = %-14s" % (n, theta), end="  ")
    print(
        "1/4 + [E+,E-] == theta:", built == theta,
        " theta^2 == L^2:", ore_product(theta, theta) == lam2,
    )

print()
print("== the center in low degree ==")
basis = center_probe(0, 4)
print("ore:0, degree <= 4:", [str(b) for b in basis])

print()
print("== truncation at L = 0 recovers the odd Clifford algebra ==")
n = 1
sig = cw_odd_signature(n)
x = fermi_gen(sig, 1)
img = iso_cw_to_a0(n, x)
print("w1 ->", img, " and back:", iso_a0_to_cw(n, img) == x)

print()
print("== first-order term of the product is a Hochschild cocycle ==")
for n in (0, 1):
    sig = cw_odd_signature(n)

    def c1(x, y, _n=n):
        return deformation_cochain_c1(_n, x, y)

    d = coboundary(CochainEvaluator(2, c1, element_tag(unit(sig))))
    gens = [fermi_gen(sig, i) for i in range(1, 2 * n + 2)]
    vanish = all(d(a, b, c) == zero(sig) for a in gens for b in gens for c in gens)
    print(
        "n=%d: dC1 vanishes on generator triples: %s   proportionality constant = %s"
        % (n, vanish, compare_cocycle(n)["constant"])
    )

print()
print("== weight modules: the exact kill condition ==")
print("at lambda = h + 1/4 the raising operator annihilates exactly z^(4h+1):")
for two_h in range(5):
    h = Fraction(two_h, 2)
    lam = GaussianRational(h + Fraction(1, 4))
    top = 2 * two_h + 1
    killed = verma_apply(lam, ore_e_plus(0), {top: GaussianRational(1)}) == {}
    survives = verma_apply(lam, ore_e_plus(0), {top + 2: GaussianRational(1)}) != {}
    print(
        "2h=%d: E+ z^%-2d -> 0: %s   E+ z^%-2d -> 0: %s"
        % (two_h, top, killed, top + 2, not survives)
    )

print()
print("== a finite quotient, as explicit matrices ==")
mats = finite_irrep_pi_h(0, Fraction(1, 2), 1)
for name, M in mats.items():
    print("%-3s -> %s" % (name, M))
E, F = mats["E+"], mats["E-"]
comm = E * F - F * E
quarter = Matrix.identity(3).scale(Fraction(1, 4))
print("[pi(E+), pi(E-)] =", comm)
print("... + 1/4 equals pi(L) pi(w1):", comm + quarter == mats["L"] * mats["w1"])
