"""Reference weight-module action: the library's earlier operator-by-operator one.

Each generator is a `PolyOperator`, a rule giving the image of one power of
z, and an element acts by applying E- b times and then E+ a times to the
polynomial for each (E+, E-) block, then P for a Fermi word, then lam^r.
The finite quotient's right factor is the matching product of generator
matrices on z^0..z^{4h}, and `pi_h_matrix` assembles the quotient with the
dense oracle's Kronecker product, apart from the library's realization.  The library's `deform.verma_apply` and its pi_h
right factors instead send each power to its one image in closed form;
`test_deform.py` checks that the two agree exactly.
"""

from fractions import Fraction
from functools import lru_cache

from reference_matrix import DenseMatrix

from cliffordweyl.algebra import AlgebraError, monomial_element
from cliffordweyl.deform import periodicity2_forward
from cliffordweyl.linalg import Matrix
from cliffordweyl.reps import rep_matrix, spin
from cliffordweyl.scalars import GaussianRational, Scalar, gaussian
from cliffordweyl.sparse import accumulate


class PolyOperator:
    """Operator on one-variable polynomials {exponent: Gaussian rational}:
    the rule gives the image of each power and extends linearly."""

    def __init__(self, rule):
        self.rule = rule

    def apply(self, poly):
        out = {}
        for m, c in poly.items():
            c = gaussian(c)
            for mm, cc in self.rule(m).items():
                accumulate(out, mm, c * cc)
        return out


def poly_clean(poly):
    """Canonical sparse form of {exponent: coefficient}."""
    out = {}
    for m, c in poly.items():
        accumulate(out, m, gaussian(c))
    return out


def verma_operator(lam, token):
    """Generator action on polynomials: E+ is half-derivative minus lam
    times the odd-part difference quotient, E- multiplies by -z/2, P is
    the parity flip."""
    lam = gaussian(lam)
    if token == "E+":

        def rule(m):
            if m == 0:
                return {}
            c = GaussianRational(Fraction(m, 2))
            if m & 1:
                c = c - lam - lam
            return {m - 1: c} if c else {}

    elif token == "E-":

        def rule(m):
            return {m + 1: GaussianRational(Fraction(-1, 2))}

    elif token == "P":

        def rule(m):
            return {m: GaussianRational(Fraction(-1 if m & 1 else 1))}

    else:
        raise AlgebraError("unknown token %r" % (token,))
    return PolyOperator(rule)


def verma_apply(lam, a, f):
    """Apply a rank-0 element to a polynomial through the lam-action."""
    if a.n != 0:
        raise AlgebraError("rank-%d element: use the matrix transport instead" % a.n)
    lam = gaussian(lam)
    ops = {t: verma_operator(lam, t) for t in ("E+", "E-", "P")}
    blocks = {}  # E+^a E-^b f by (a, b): terms differing in w and L share it
    out = {}
    for m, c in a.terms.items():
        g = blocks.get((m.e_plus, m.e_minus))
        if g is None:
            g = poly_clean(f)
            for _ in range(m.e_minus):
                g = ops["E-"].apply(g)
            for _ in range(m.e_plus):
                g = ops["E+"].apply(g)
            blocks[m.e_plus, m.e_minus] = g
        if m.cliff:
            g = ops["P"].apply(g)
        coeff = c * lam**m.lam
        for mm, cc in g.items():
            accumulate(out, mm, cc * coeff)
    return out


@lru_cache(maxsize=None)
def quotient_matrices(h, twist):
    """Generator matrices of the polynomial action at lam = h + 1/4 on the
    span of z^0..z^{4h} (E+ kills z^{4h+1} at that weight), P negated for
    the minus sign."""
    d = int(4 * h) + 1
    out = {}
    for token in ("P", "E+", "E-"):
        rule = verma_operator(h + Fraction(1, 4), token).rule
        images = {(r, m): c for m in range(d) for r, c in rule(m).items() if r < d}
        out[token] = Matrix.from_entries((d, d), images)
    if twist < 0:
        out["P"] = -out["P"]
    return out


def right_factor(h, twist, m):
    """The pi_h right factor of the rank-0 monomial m: P^[I] E+^a E-^b times
    the signed weight to the r, one matrix product per generator."""
    rank0 = quotient_matrices(h, twist)
    R = Matrix.identity(int(4 * h) + 1)
    if m.cliff:
        R = R * rank0["P"]
    for _ in range(m.e_plus):
        R = R * rank0["E+"]
    for _ in range(m.e_minus):
        R = R * rank0["E-"]
    lam = Scalar.from_gaussian(GaussianRational(twist * (h + Fraction(1, 4))))
    for _ in range(m.lam):
        R = R.scale(lam)
    return R


def pi_h_matrix(n, h, sign, x):
    """x in the quotient: the sum over its factored terms of the left
    factor's spin matrix Kronecker the reference right factor, both dense."""
    twist = 1 if sign == "+" else -1
    desc = spin(n)
    total = DenseMatrix.identity((1 << n) * (int(4 * h) + 1)).scale(0)
    for (ml, m), c in periodicity2_forward(n, x).terms.items():
        left = DenseMatrix(rep_matrix(desc, monomial_element(desc.signature(), ml)).rows)
        total = total + left.kron(DenseMatrix(right_factor(h, twist, m).rows)).scale(c)
    return Matrix(total.rows)
