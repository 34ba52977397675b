"""Canonical plain-text rendering of algebra elements, and the term order.

One cw term renders as `coeff * w1 w2 p1^2 q1` with the Clifford factors in
ascending order followed by p then q powers; an ore term as `coeff * w1 E+^2
E-` with its L power in the coefficient; a tensor term as `coeff * left (x)
right`, each side written as a one-term element with coefficient 1.

`monomial_order` is each family's one term order, for the writer and for
`monomials()`, so for `to_json`: cw terms by z-degree, ore terms by (degree,
L power), each bucket then sorted natively as tuples; tensor terms as pairs.
The writer is one loop per family.  A Python call costs about what writing a
term does, so the only call per term is the one coefficient writer,
scalars.format_coefficient (several L powers: the Scalar's text in
parentheses); factor texts are lookups in tables that each call builds and
drops, and separators and term texts go onto one list, joined once.

This is a display and fixture format.  The CLI expression grammar (module
exprs) is a different language: there, juxtaposition means the associative
star product, so the factor list of a basis monomial would not re-evaluate to
that monomial.
"""

from __future__ import annotations

from collections import defaultdict

from .scalars import GR_ONE, format_coefficient


class _Table(dict):
    """Factor texts by key, each written on first use; one per call.  Each
    text starts with a space, so a monomial's text is its parts' texts
    concatenated, without the first character."""

    __slots__ = ("write",)

    def __init__(self, write):
        self.write = write

    def __missing__(self, key):
        text = self[key] = self.write(key)
        return text


def _fermi_text(mask):
    return "".join(" w%d" % (i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def _powers(names):
    """A table: exps -> " x y^2" for names (x, y) and exps (1, 2); a zero exponent writes nothing."""
    return _Table(lambda exps: "".join(" " + x if e == 1 else " %s^%d" % (x, e) for x, e in zip(names, exps) if e))


def _bose(sig):
    """The p and q power tables of a cw signature."""
    return [_powers([x + str(j) for j in range(1, sig.n_bose + 1)]) for x in "pq"]


def monomial_order(space, keys):
    """The monomials `keys` of a cw (space a signature) or ore (space a rank)
    term map in canonical order; `keys` is iterated twice."""
    if isinstance(space, int):
        grades = [(c.bit_count() + a + b + 2 * r, r) for c, a, b, r in keys]
    else:
        grades = [c.bit_count() + sum(p) + sum(q) for c, p, q in keys]
    buckets = defaultdict(list)
    for d, m in zip(grades, keys):
        buckets[d].append(m)
    return [m for d in sorted(buckets) for m in sorted(buckets[d])]


def _side(space):
    """A table: key -> the text of a tensor side's one-term element, "1" for the unit."""
    if isinstance(space, int):
        return _Table(lambda m: _text(space, {m: GR_ONE}))
    fermi, (p, q) = _Table(_fermi_text), _bose(space)
    return _Table(lambda m: (fermi[m.cliff] + p[m.wp] + q[m.wq])[1:] or "1")


def element_to_text(e):
    """The text of a cw, ore or tensor element; "0" if it has no terms."""
    return _text(e.space, e.terms)


def _text(space, terms):
    """The text of the term map `terms` over `space`."""
    out = []  # separator, term text, separator, ...
    if isinstance(space, int):  # the rank of a deformed algebra
        fermi, ladder = _Table(_fermi_text), _powers(("E+", "E-"))
        for m in monomial_order(space, terms):
            coeff, body = format_coefficient(terms[m], m[3]), fermi[m[0]] + ladder[m[1:3]]
            sign, coeff = (" - ", coeff[1:]) if coeff[0] == "-" else (" + ", coeff)
            out += sign, f"{coeff} *{body}" if body and coeff != "1" else body[1:] or coeff
    else:
        tensor = type(space) is tuple  # the pair of its factor spaces
        if tensor:
            left, right = _side(space[0]), _side(space[1])
        else:
            fermi, (p, q) = _Table(_fermi_text), _bose(space)
        for m in sorted(terms) if tensor else monomial_order(space, terms):
            s = terms[m]
            if len(s.terms) == 1:
                [(power, g)] = s.terms.items()
                coeff = format_coefficient(g, power)
            else:
                coeff = "(%s)" % s
            body = f" {left[m[0]]} (x) {right[m[1]]}" if tensor else f"{fermi[m[0]]}{p[m[1]]}{q[m[2]]}"
            sign, coeff = (" - ", coeff[1:]) if coeff[0] == "-" else (" + ", coeff)
            out += sign, f"{coeff} *{body}" if body and coeff != "1" else body[1:] or coeff
    if out:
        out[0] = "-" if out[0] == " - " else ""
    return "".join(out) or "0"
