"""Tiny expression language for elements of either algebra family.

Grammar (EBNF, also shipped in the README):

    expr     = term , { ("+" | "-") , term } ;
    term     = factor , { ("*" | "/") , factor | factor } ;   (* juxtaposition = * *)
    factor   = "-" , factor | "+" , factor | power ;
    power    = atom , [ "^" , integer ] ;
    atom     = integer | "i" | "L" | generator
             | "(" , expr , ")"
             | "[" , expr , "," , expr , ("]" | "]+")
             | "{" , expr , "," , expr , "}" ;
    generator = "w" digits | "p" digits | "q" digits | "E+" | "E-" | "P" ;

Precedence is ^ over * over +/-.  Two adjacency rules are deliberate:
"E+" / "E-" must be written without a space, and "]+" (the anticommutator
closer) means the "+" directly follows "]" — "[a,b] + c" with a space is a
sum.  Rational literals are just division: "1/2" parses as 1 divided by 2,
and division is only defined by invertible constants.

Work is bounded: an exponent above `MAX_EXPONENT` is a ParseError at its
column and a descriptor whose n or 2k is above `MAX_ALGEBRA_SIZE` an
AlgebraError, both before any arithmetic; an expression whose products
charge more than `MAX_PAIRS` monomial pairs, or in an ore algebra more than
`MAX_LOWERING` units of E-^b E+^g lowering, in all is an AlgebraError.

Syntax trees are plain tuples, so `parse(print_expr(t)) == t` is a cheap
structural identity.  One table, `_NODES`, gives each node kind its
precedence level, printed form and children; the parser and printer read
precedence from it, and `evaluate` and `print_expr` check each node of a
hand-built tree against it and the parser's bounds: a malformed node is a
ParseError, an unknown kind an AlgebraError.
"""

import re
from bisect import bisect_right
from itertools import accumulate
from operator import add, mul, sub

from .algebra import (
    AlgebraError,
    AlgebraSignature,
    bose_p,
    bose_q,
    fermi_gen,
    scalar_element,
    zero,
)
from .ore import (
    ghost_theta,
    ore_e_minus,
    ore_e_plus,
    ore_fermi,
    ore_lambda,
    ore_scalar,
    ore_zero,
)
from .scalars import GaussianRational
from .sparse import anti_bracket, lie_bracket, super_bracket


# the largest exponent `^` takes; a power of a non-constant costs one
# product per unit of it
MAX_EXPONENT = 100_000

# the most monomial pairs one expression may multiply: len(a) * len(b) is
# charged before each "*" and each step of a power of a non-constant, and
# twice before a bracket (one kernel pass, charged as two products); a
# constant's power is taken by squaring, for free
MAX_PAIRS = 200_000

# the most E-^b E+^g lowering one ore expression may do: before each "*"
# (twice before a bracket, whose kernel lowers both orders) every distinct
# pair of an E- exponent b of the left factor and an E+ exponent g of the
# right one is charged min(b, g) * (max(b, g) + 1), the kernel's steps times
# the length of its state lists.  E-^244*E+^244, the largest square pair
# that fits and the slowest single pair, runs in the CLI in 0.4-1.0 s
# (2-CPU machine, Python 3.11, quiet and busy spells)
MAX_LOWERING = 60_000

# the largest n and 2k of cw:<n>,<2k> and n of ore:<n>
MAX_ALGEBRA_SIZE = 1000


class ParseError(ValueError):
    """Syntax error carrying the 0-based source position."""

    def __init__(self, message, position):
        super().__init__("%s (column %d)" % (message, position + 1))
        self.position = position


# -- the node table ----------------------------------------------------------------

def _natural(v):
    return type(v) is int and v >= 0


def _exponent(v):
    return _natural(v) and v <= MAX_EXPONENT


def _generator(v):
    """Whether v is a generator name: a name token other than the constants."""
    return type(v) is str and v not in _CONSTANTS and _NAME.fullmatch(v) is not None


def _divide(a, b):
    c = b.terms.get(b.unit_key())
    if c is None or len(b.terms) > 1:
        raise AlgebraError("division only by invertible constants")
    return a.scale(c.inverse())


# kind -> (level, printed form, slots, operation).  Levels: 1 sums, 2
# products, 3 negation, 4 powers, 5 atoms.  A child node's slot is the least
# level it prints bare (for a right operand, also the least level the parser
# reads there); a value's slot, always the last, is its check.  The
# operation combines the two children of a sum, a product or a bracket.
_NODES = {
    "add": (1, "%s + %s", (1, 2), add),
    "sub": (1, "%s - %s", (1, 2), sub),
    "mul": (2, "%s*%s", (2, 3), mul),
    "div": (2, "%s/%s", (2, 3), _divide),
    "neg": (3, "-%s", (4,), None),
    "pow": (4, "%s^%d", (5, _exponent), None),
    "lie": (5, "[%s,%s]", (0, 0), lie_bracket),
    "anti": (5, "[%s,%s]+", (0, 0), anti_bracket),
    "super": (5, "{%s,%s}", (0, 0), super_bracket),
    "num": (5, "%d", (_natural,), None),
    "gen": (5, "%s", (_generator,), None),
    "imag": (5, "i", (), None),
    "lam": (5, "L", (), None),
}

# the constants, "i" -> "imag"
_CONSTANTS = {form: kind for kind, (_, form, slots, _) in _NODES.items() if not slots}


def _shape(node):
    """The table entry of node, once its length and values fit it: ParseError
    for a malformed node, AlgebraError for an unknown kind."""
    if type(node) is not tuple or not node:
        raise ParseError("malformed expression node %.40r" % (node,), 0)
    try:
        entry = _NODES[node[0]]
    except (KeyError, TypeError):  # a kind that is not in the table, or not hashable
        raise AlgebraError("unknown expression node %.40r" % (node[0],)) from None
    slots = entry[2]
    if len(node) != len(slots) + 1 or slots and callable(slots[-1]) and not slots[-1](node[-1]):
        raise ParseError("malformed %s node" % node[0], 0)
    return entry


# -- tokenizer ---------------------------------------------------------------------

_SIMPLE = set("+-*/^(),{}[]")
_DIGITS = "0123456789"  # str.isdigit also accepts other scripts' digits and superscripts
# a name token: a generator, or one of the constants i and L
_NAME = re.compile(r"[wpq][0-9]+|E[+-]|[PiL]")


def tokenize(text):
    """List of (kind, value, position) triples; kinds are 'num', 'name', 'op'."""
    out = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        j = i + 1
        if ch.isspace():
            pass
        elif ch in _SIMPLE:
            if ch == "]" and text.startswith("+", j):  # "]+" is one token only without a space
                j += 1
            out.append(("op", text[i:j], i))
        elif ch in _DIGITS:
            while j < size and text[j] in _DIGITS:
                j += 1
            out.append(("num", int(text[i:j]), i))
        elif ch in "wpqEPiL":
            name = _NAME.match(text, i)
            if name is None and ch == "E":
                raise ParseError("'E' must be followed directly by '+' or '-'", i)
            if name is None:
                raise ParseError("generator '%s' needs an index" % ch, i)
            j = name.end()
            out.append(("name", name.group(), i))
        else:
            raise ParseError("unexpected character %r" % ch, i)
        i = j
    return out


# -- parser ------------------------------------------------------------------------

_INFIX = {"+": "add", "-": "sub", "*": "mul", "/": "div"}
_CLOSERS = {"]": "lie", "]+": "anti", "}": "super"}
# the highest infix level; a right operand above it is read as a factor, with no
# expr frame of its own, so each "(" costs the parser five frames at most
_TOP = max(_NODES[kind][0] for kind in _INFIX.values())


class _Parser:
    def __init__(self, tokens, size):
        self.tokens = tokens
        self.pos = 0
        self.end = size

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.end)
        self.pos += 1
        return tok

    def _expect_op(self, value):
        tok = self._take()
        if tok[0] != "op" or tok[1] != value:
            raise ParseError("expected '%s'" % value, tok[2])

    def expr(self, floor=1):
        """Factors joined by the infix operators of level `floor` or above."""
        node = self.factor()
        while True:
            tok = self._peek()
            if tok is None or tok[0] == "op" and tok[1] not in _INFIX and tok[1] not in "([{":
                return node
            infix = tok[0] == "op" and tok[1] in _INFIX
            kind = _INFIX[tok[1]] if infix else "mul"  # juxtaposition is a product
            level, _, (_, right), _ = _NODES[kind]
            if level < floor:
                return node
            self.pos += infix
            node = (kind, node, self.expr(right) if right <= _TOP else self.factor())

    def factor(self):
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] in ("+", "-"):
            self.pos += 1
            inner = self.factor()
            return ("neg", inner) if tok[1] == "-" else inner
        return self.power()

    def power(self):
        node = self.atom()
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self.pos += 1
            etok = self._take()
            if etok[0] != "num":
                raise ParseError("exponent must be a plain integer", etok[2])
            if etok[1] > MAX_EXPONENT:
                raise ParseError("exponent above the budget of %d" % MAX_EXPONENT, etok[2])
            return ("pow", node, etok[1])
        return node

    def atom(self):
        tok = self._take()
        kind, value, where = tok
        if kind == "num":
            return ("num", value)
        if kind == "name":
            return (_CONSTANTS[value],) if value in _CONSTANTS else ("gen", value)
        if value == "(":
            inner = self.expr()
            self._expect_op(")")
            return inner
        if value in ("[", "{"):
            left = self.expr()
            self._expect_op(",")
            right = self.expr()
            close = self._take()
            if close[0] != "op" or close[1] not in _CLOSERS:
                raise ParseError("expected a closing bracket", close[2])
            if (value == "[") != (close[1] != "}"):
                raise ParseError("mismatched bracket style", close[2])
            return (_CLOSERS[close[1]], left, right)
        raise ParseError("unexpected '%s'" % value, where)


def parse(text):
    parser = _Parser(tokenize(text), len(text))
    node = parser.expr()
    tail = parser._peek()
    if tail is not None:
        raise ParseError("trailing input after expression", tail[2])
    return node


# -- printer -----------------------------------------------------------------------


def _print(node, floor):
    """Text of node, in parentheses if its level is below floor."""
    level, form, slots, _ = _shape(node)
    text = form % tuple(child if callable(slot) else _print(child, slot) for slot, child in zip(slots, node[1:]))
    return "(%s)" % text if level < floor else text


def print_expr(node):
    """Canonical text form; parse(print_expr(t)) == t."""
    return _print(node, 0)


# -- evaluation contexts -------------------------------------------------------------


class CwContext:
    """Evaluation in a Clifford-Weyl algebra C(n, 2k)."""

    kind = "cw"

    def __init__(self, signature):
        self.signature = signature

    def describe(self):
        return cw_descriptor(self.signature)

    def scalar(self, g):
        return scalar_element(self.signature, g)

    def lam(self):
        raise AlgebraError("no central parameter L in %s" % self.describe())

    def generator(self, name):
        sig = self.signature
        index = int(name[1:]) if _generator(name) and name[0] in "wpq" else 0
        if 1 <= index <= sig.n_fermi and name[0] == "w":
            return fermi_gen(sig, index)
        if 1 <= index <= sig.n_bose and name[0] == "p":
            return bose_p(sig, index)
        if 1 <= index <= sig.n_bose and name[0] == "q":
            return bose_q(sig, index)
        raise AlgebraError("unknown generator %r for %s" % (name, self.describe()))

    def zero(self):
        return zero(self.signature)


class OreContext:
    """Evaluation in the rank-n deformed algebra."""

    kind = "ore"

    def __init__(self, n):
        self.n = n

    def describe(self):
        return "ore:%d" % self.n

    def scalar(self, g):
        return ore_scalar(self.n, g)

    def lam(self):
        return ore_lambda(self.n)

    def generator(self, name):
        n = self.n
        if name == "E+":
            return ore_e_plus(n)
        if name == "E-":
            return ore_e_minus(n)
        if name == "P":
            return ghost_theta(n).lam_coefficient(1)  # i^n w_1...w_{2n+1}
        if _generator(name) and name[0] == "w" and 1 <= int(name[1:]) <= 2 * n + 1:
            return ore_fermi(n, int(name[1:]))
        raise AlgebraError("unknown generator %r for %s" % (name, self.describe()))

    def zero(self):
        return ore_zero(self.n)


def cw_descriptor(sig):
    """The descriptor cw:<n>,<2k> of a signature, as `parse_algebra` reads it."""
    return "cw:%d,%d" % (sig.n_fermi, 2 * sig.n_bose)


def parse_algebra(text):
    """Context from a descriptor: cw:<n>,<2k> (even Bose count) or ore:<n>."""
    head, _, rest = text.partition(":")
    try:
        if head == "cw":
            a, _, b = rest.partition(",")
            n, two_k = int(a), int(b)
            if n < 0 or two_k < 0 or two_k % 2:
                raise ValueError
            _check_size(text, n, two_k)
            return CwContext(AlgebraSignature(n, two_k // 2))
        if head == "ore":
            n = int(rest)
            if n < 0:
                raise ValueError
            _check_size(text, n)
            return OreContext(n)
    except ValueError:
        pass
    raise AlgebraError("bad algebra descriptor %r (want cw:<n>,<2k> or ore:<n>)" % text)


def _check_size(text, *sizes):
    if max(sizes) > MAX_ALGEBRA_SIZE:
        raise AlgebraError("algebra descriptor %r above the size bound of %d" % (text, MAX_ALGEBRA_SIZE))


def _lowering(a, b):
    """The lowering charge of the ore product a * b, in O((|a| + |b|) log |b|)."""
    gammas = sorted({m.e_plus for m in b.terms})
    below = [0, *accumulate(gammas)]  # below[i] = sum(gammas[:i])
    cost = 0
    for beta in {m.e_minus for m in a.terms}:
        i = bisect_right(gammas, beta)
        # g <= beta charges g * (beta + 1); g > beta charges beta * (g + 1)
        cost += (beta + 1) * below[i] + beta * (below[-1] - below[i] + len(gammas) - i)
    return cost


def evaluate(node, ctx):
    """Exact element of the context's algebra, within the `MAX_PAIRS` and
    `MAX_LOWERING` budgets."""
    spent = lowered = 0

    def product(op, a, b, bracket=False):
        nonlocal spent, lowered
        spent += (2 if bracket else 1) * len(a.terms) * len(b.terms)
        if spent > MAX_PAIRS:
            raise AlgebraError("expression above the work budget of %d monomial pairs" % MAX_PAIRS)
        if ctx.kind == "ore":
            lowered += _lowering(a, b) + (_lowering(b, a) if bracket else 0)
            if lowered > MAX_LOWERING:
                raise AlgebraError("expression above the lowering budget of %d" % MAX_LOWERING)
        return op(a, b)

    def ev(node):
        level, _, _, op = _shape(node)
        if op is not None:  # a sum, a product or a bracket
            a, b = ev(node[1]), ev(node[2])
            if op is mul or level == 5:
                return product(op, a, b, bracket=level == 5)
            return op(a, b)
        if level == 3:  # a negation
            return -ev(node[1])
        if level == 4:  # a power
            x = ev(node[1])
            if x.terms.keys() <= {x.unit_key()}:
                return x ** node[2]
            out = x**0
            for _ in range(node[2]):
                out = product(mul, out, x)
            return out
        kind = node[0]  # a leaf
        if kind == "num":
            return ctx.scalar(GaussianRational(node[1]))
        if kind == "imag":
            return ctx.scalar(GaussianRational(0, 1))
        return ctx.lam() if kind == "lam" else ctx.generator(node[1])

    return ev(node)


def evaluate_text(text, ctx):
    return evaluate(parse(text), ctx)
