"""Canonical plain-text rendering of algebra elements.

One cw term renders as `coeff * w1 w2 p1^2 q1` with the Clifford factors in
ascending order followed by p then q powers; an ore term as `coeff * w1 E+^2
E-` with its L power in the coefficient; a tensor term as `coeff * left (x)
right`, each side written as a one-term element with coefficient 1.  The
coefficient grammar is the one produced by scalars.format_coefficient, with
multi-power coefficients parenthesized.  Terms are emitted in each family's
deterministic monomial order and joined by " + " / " - " as they are written.

Each call builds its own factor tables (Fermi mask, Bose exponents, (E+, E-))
and drops them when it returns, so terms that share a factor write it once
and no state outlives the call.

This is a display and fixture format.  The CLI expression grammar (module
exprs) is a different language: there, juxtaposition means the associative
star product, so the factor list of a basis monomial would not re-evaluate to
that monomial.
"""

from __future__ import annotations

from .scalars import GR_ONE, format_coefficient


class _Table(dict):
    """Factor texts by key, each written on first use; one per call."""

    __slots__ = ("write",)

    def __init__(self, write):
        self.write = write

    def __missing__(self, key):
        text = self[key] = self.write(key)
        return text


# each factor text starts with a space, so a monomial's text is the
# concatenation of its parts' texts without the first character


def _fermi_text(mask):
    return "".join(" w%d" % (i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def _powers(names):
    """exps -> " x y^2" for names (x, y) and exps (1, 2); a zero exponent writes nothing."""
    return lambda exps: "".join(" " + x if e == 1 else " %s^%d" % (x, e) for x, e in zip(names, exps) if e)


def _cw_factors(sig):
    """m -> "w1 w3 p1^2 q2" for a CwMonomial, "" for the unit."""
    modes = range(1, sig.n_bose + 1)
    fermi, p, q = _Table(_fermi_text), *(_Table(_powers([x + str(j) for j in modes])) for x in "pq")
    return lambda m: (fermi[m.cliff] + p[m.wp] + q[m.wq])[1:]


def _ore_factors():
    """m -> "w1 E+^2 E-" for an OreMonomial, without its L power."""
    fermi, ladder = _Table(_fermi_text), _Table(_powers(("E+", "E-")))
    return lambda m: (fermi[m.cliff] + ladder[m.e_plus, m.e_minus])[1:]


def _side(space):
    """key -> the text of a tensor side's one-term element, "1" for the unit."""
    if isinstance(space, int):
        factors = _ore_factors()
        return lambda m: _term(format_coefficient(GR_ONE, m.lam), factors(m))
    factors = _cw_factors(space)
    return lambda m: factors(m) or "1"


def _scalar_text(s):
    """A Scalar as one multiplicative prefix, a sum of L powers in parentheses."""
    terms = s.terms
    if len(terms) == 1:
        ((power, g),) = terms.items()
        return format_coefficient(g, power)
    return "(%s)" % " + ".join(format_coefficient(terms[k], k) for k in sorted(terms))


def _term(coeff, body):
    """One term from its unsigned coefficient text and its factor text."""
    return coeff if not body else body if coeff == "1" else coeff + " * " + body


def element_to_text(e):
    """The text of a cw, ore or tensor element; "0" if it has no terms."""
    space, terms = e.space, e.terms
    if type(space) is tuple:  # a tensor: the pair of its factor spaces
        left, right = _side(space[0]), _side(space[1])
        pieces = ((_scalar_text(terms[k]), left(k[0]) + " (x) " + right(k[1])) for k in sorted(terms))
    elif isinstance(space, int):  # the rank of a deformed algebra
        factors = _ore_factors()
        pieces = ((format_coefficient(terms[m], m.lam), factors(m)) for m in e.monomials())
    else:
        factors = _cw_factors(space)
        pieces = ((_scalar_text(c), factors(m)) for m, c in e.monomials())
    out = []
    for coeff, body in pieces:
        if coeff[0] == "-":
            out.append(" - " if out else "-")
            coeff = coeff[1:]
        elif out:
            out.append(" + ")
        out.append(_term(coeff, body))
    return "".join(out) or "0"
