"""Canonical plain-text rendering of algebra elements.

One term renders as `coeff * w1 w2 p1^2 q1` with the Clifford factors in
ascending order followed by p then q powers; the coefficient grammar is the
one produced by scalars.format_coefficient, with multi-power coefficients
parenthesized.  Terms are emitted in the deterministic monomial order used by
CwElement.monomials(), joined by " + " / " - " (`join_signed`, which the
deformed-algebra and tensor elements share).

This is a display and fixture format.  The CLI expression grammar (module
exprs) is a different language: there, juxtaposition means the associative
star product, so the factor list of a basis monomial would not re-evaluate to
that monomial.
"""

from __future__ import annotations

from .scalars import format_coefficient


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
        return format_coefficient(g, power)
    return "(%s)" % " + ".join(format_coefficient(g, k) for k, g in items)


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


def element_to_text(e):
    return join_signed([term_text(m, c) for m, c in e.monomials()])
