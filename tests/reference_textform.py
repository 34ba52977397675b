"""Reference text forms: the library's earlier term-by-term writers.

Each term is built on its own, as a list of factor texts and a coefficient
text, and the terms are joined afterwards, rewriting a leading minus as
" - ".  A tensor writes each side of each term by printing a one-term
element of that side.  `textform.element_to_text` instead streams the terms
and reads the factor texts from tables built once per call.  Coefficients
are written by `reference_gaussian.ref_format_coefficient`, from their
Fraction parts, so a fault in the library's coefficient writer shows here.
"""

from reference_gaussian import ref_format_coefficient

from cliffordweyl.algebra import CwElement
from cliffordweyl.ore import OreElement
from cliffordweyl.scalars import GR_ONE, S_ONE


def monomial_factors_text(m):
    parts = ["w%d" % i for i in m.cliff_indices()]
    for j, e in enumerate(m.wp):
        if e == 1:
            parts.append("p%d" % (j + 1))
        elif e > 1:
            parts.append("p%d^%d" % (j + 1, e))
    for j, e in enumerate(m.wq):
        if e == 1:
            parts.append("q%d" % (j + 1))
        elif e > 1:
            parts.append("q%d^%d" % (j + 1, e))
    return " ".join(parts)


def coefficient_text(s):
    """Render a Scalar as a single multiplicative prefix."""
    items = sorted(s.coeffs.items())
    if not items:
        return "0"
    if len(items) == 1:
        power, g = items[0]
        return ref_format_coefficient(g, power)
    return "(%s)" % " + ".join(ref_format_coefficient(g, k) for k, g in items)


def signed_term(coeff, body):
    """One term from its coefficient text and its factor text (possibly empty)."""
    if not body:
        return coeff
    if coeff == "1":
        return body
    if coeff == "-1":
        return "-%s" % body
    return "%s * %s" % (coeff, body)


def join_signed(terms):
    """Join term texts with " + ", writing a leading minus as " - "; "0" if none."""
    if not terms:
        return "0"
    out = [terms[0]]
    for t in terms[1:]:
        out.append("- " + t[1:] if t.startswith("-") else "+ " + t)
    return " ".join(out)


def term_text(m, c):
    return signed_term(coefficient_text(c), monomial_factors_text(m))


def cw_text(e):
    return join_signed([term_text(m, c) for m, c in e.monomials()])


def ore_text(e):
    bits = []
    for m in e.monomials():
        factors = ["w%d" % i for i in m.cliff_indices()]
        if m.e_plus:
            factors.append("E+" if m.e_plus == 1 else "E+^%d" % m.e_plus)
        if m.e_minus:
            factors.append("E-" if m.e_minus == 1 else "E-^%d" % m.e_minus)
        bits.append(signed_term(ref_format_coefficient(e.terms[m], m.lam), " ".join(factors)))
    return join_signed(bits)


def _side_text(space, m):
    """A tensor side: the text of the one-term element m of that side."""
    if isinstance(space, int):
        return ore_text(OreElement.raw(space, {m: GR_ONE}))
    return cw_text(CwElement.raw(space, {m: S_ONE}))


def tensor_text(e):
    ls, rs = e.space
    bits = []
    for ml, mr in sorted(e.terms):
        body = "%s (x) %s" % (_side_text(ls, ml), _side_text(rs, mr))
        bits.append(signed_term(coefficient_text(e.terms[ml, mr]), body))
    return join_signed(bits)
