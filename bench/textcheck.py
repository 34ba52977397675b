"""Reading printed normal forms back, and the hand-derived CLI corpus.

`read_text` turns the text the library prints for an element into a map
{monomial: {L power: (re, im)}}, where a monomial is the sorted tuple of its
(generator, exponent) factors.  `element_terms` builds the same map from an
element's own terms, without going through any printing code, so the two can
be compared.  Neither relies on the order in which terms are printed.
"""

import re
from fractions import Fraction

_FACTOR = re.compile(r"^(w\d+|p\d+|q\d+|E\+|E-)(?:\^(\d+))?$")
_LPART = re.compile(r"^(?:(.*)\*)?(-?)L(?:\^(\d+))?$")


class ReadError(ValueError):
    pass


def _split_top(text, seps):
    """Split at separators that lie outside parentheses, keeping the signs."""
    parts, depth, start, i = [], 0, 0, 0
    signs = ["+"]
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            for sep in seps:
                if text.startswith(sep, i):
                    parts.append(text[start:i])
                    signs.append(sep.strip())
                    i += len(sep)
                    start = i
                    break
            else:
                i += 1
                continue
            continue
        i += 1
    parts.append(text[start:])
    return list(zip(signs, parts))


def _gaussian(body):
    """Parse a coefficient body without L: rational, imaginary or complex."""
    if body.startswith("(") and body.endswith(")"):
        pieces = _split_top(body[1:-1], (" + ", " - "))
        if len(pieces) != 2:
            raise ReadError("bad complex coefficient %r" % body)
        (_, re_text), (sign, im_text) = pieces
        re_part = Fraction(re_text)
        im_part = _gaussian(im_text)[1]
        return re_part, -im_part if sign == "-" else im_part
    if body.endswith("i"):
        head = body[:-1]
        if head in ("", "-"):
            return Fraction(0), Fraction(-1 if head else 1)
        if not head.endswith("*"):
            raise ReadError("bad imaginary coefficient %r" % body)
        return Fraction(0), Fraction(head[:-1])
    return Fraction(body), Fraction(0)


def _single_coefficient(text):
    m = _LPART.match(text)
    if not m:
        return 0, _gaussian(text)
    body, neg, power = m.groups()
    power = int(power) if power else 1
    if body is None:
        return power, (Fraction(-1 if neg else 1), Fraction(0))
    if neg:
        raise ReadError("bad L factor %r" % text)
    return power, _gaussian(body)


def _coefficient(text):
    """{L power: (re, im)} for one printed coefficient."""
    if text.startswith("(") and text.endswith(")"):
        pieces = _split_top(text[1:-1], (" + ",))
        if len(pieces) > 1:
            try:
                parts = [_single_coefficient(p) for _, p in pieces]
            except (ReadError, ValueError):
                parts = None
            if parts and len({p for p, _ in parts}) == len(parts):
                return dict(parts)
    power, g = _single_coefficient(text)
    return {power: g}


def _factors(text):
    out = []
    for tok in text.split(" "):
        m = _FACTOR.match(tok)
        if not m:
            raise ReadError("bad factor %r" % tok)
        out.append((m.group(1), int(m.group(2) or 1)))
    return tuple(sorted(out))


def _negate(coeff):
    return {p: (-a, -b) for p, (a, b) in coeff.items()}


def read_text(text):
    """Map a printed element to {monomial: {L power: (re, im)}}."""
    text = text.strip()
    out = {}
    if text == "0":
        return out
    for sign, term in _split_top(text, (" + ", " - ")):
        pieces = _split_top(term, (" * ",))
        if len(pieces) == 2:
            coeff_text, factor_text = pieces[0][1], pieces[1][1]
        elif _FACTOR.match(term.lstrip("-").split(" ")[0]):
            neg = term.startswith("-")
            coeff_text, factor_text = ("-1" if neg else "1"), term.lstrip("-")
        else:
            coeff_text, factor_text = term, ""
        coeff = _coefficient(coeff_text)
        if sign == "-":
            coeff = _negate(coeff)
        key = _factors(factor_text) if factor_text else ()
        slot = out.setdefault(key, {})
        if set(slot) & set(coeff):
            raise ReadError("term printed twice: %r" % (key,))
        slot.update(coeff)
    return out


def element_terms(e):
    """The same map as read_text, built from the element's own terms."""
    out = {}
    for m, c in e.terms.items():
        fac = [("w%d" % i, 1) for i in m.cliff_indices()]
        if hasattr(e, "signature"):
            fac += [("p%d" % (j + 1), x) for j, x in enumerate(m.wp) if x]
            fac += [("q%d" % (j + 1), x) for j, x in enumerate(m.wq) if x]
            coeff = {p: (g.re, g.im) for p, g in c.coeffs.items()}
        else:
            fac += [(name, x) for name, x in (("E+", m.e_plus), ("E-", m.e_minus)) if x]
            coeff = {m.lam: (c.re, c.im)}
        key = tuple(sorted(fac))
        out.setdefault(key, {}).update(coeff)
    return out


# Expression-mode corpus: (algebra, expression, expected value).  Each
# expected value is derived by hand from the defining relations
# ({wi,wj} = 2 delta_ij, [pi,qj] = delta_ij, w anticommuting with p and q,
# the symmetric symbol calculus p*q = pq + 1/2, and in ore:n
# [E+,E-] = -1/4 + i^n L w1...w(2n+1), with w anticommuting with E+-), not
# taken from the program's output.  `{a,b}` is graded by the Bose parity
# alone, so it is a commutator on two Fermi generators and an anticommutator
# on two Bose ones.  The README examples come first.
CLI_CORPUS = (
    ("cw:0,2", "p1*q1 - q1*p1", "1"),
    ("ore:0", "[E+,E-] + 1/4", "L * w1"),
    ("cw:2,0", "[w1,w1]+", "2"),
    ("cw:2,0", "{w1,w1}", "0"),
    ("cw:0,2", "{p1,q1}", "2 * p1 q1"),
    ("cw:2,0", "w1*w2 + w2*w1", "0"),
    ("cw:2,0", "(w1*w2)^2", "-1"),
    ("cw:2,0", "w2*w1", "-w1 w2"),
    ("cw:3,0", "(w1+w2+w3)^2", "3"),
    ("cw:4,0", "(w1*w2*w3*w4)^2", "1"),
    ("cw:6,0", "(w1*w2*w3*w4*w5*w6)^2", "-1"),
    ("cw:0,2", "[p1,q1]", "1"),
    ("cw:0,4", "[p1,q2]", "0"),
    ("cw:0,4", "[q2,p2]", "-1"),
    ("cw:0,4", "p1*p2 - p2*p1", "0"),
    ("cw:0,2", "p1*q1", "1/2 + p1 q1"),
    ("cw:0,2", "q1*p1", "-1/2 + p1 q1"),
    ("cw:0,2", "1/2*(p1*q1 + q1*p1)", "p1 q1"),
    ("cw:0,2", "(p1+q1)^2", "p1^2 + 2 * p1 q1 + q1^2"),
    ("cw:0,2", "p1^2*q1", "p1 + p1^2 q1"),
    ("cw:0,4", "q1*q2*p1", "-1/2 * q2 + p1 q1 q2"),
    ("cw:0,2", "[p1^2,q1]", "2 * p1"),
    ("cw:0,2", "[q1^2,p1]", "-2 * q1"),
    ("cw:1,2", "w1*p1*w1", "-p1"),
    ("cw:1,2", "[w1,p1]+", "0"),
    ("cw:2,2", "(1+i)/3*w1", "(1/3 + 1/3*i) * w1"),
    ("cw:2,2", "i*w1*w2", "i * w1 w2"),
    ("ore:0", "[E+,P]+", "0"),
    ("ore:0", "[E-,P]+", "0"),
    ("ore:0", "P^2", "1"),
    ("ore:0", "w1*E+*w1", "-E+"),
    ("ore:0", "E-*E+", "1/4 + E+ E- - L * w1"),
    ("ore:0", "L*E+ - E+*L", "0"),
    ("ore:1", "[E+,E-] + 1/4", "i*L * w1 w2 w3"),
    ("ore:1", "[w2,w2]+", "2"),
    ("ore:2", "[E+,E-] + 1/4", "-L * w1 w2 w3 w4 w5"),
)
