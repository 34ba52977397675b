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
structural identity; `print_expr` re-inserts parentheses exactly where the
precedence rules demand them.
"""

from bisect import bisect_right
from itertools import accumulate
from operator import mul

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
    OreElement,
    OreMonomial,
    ore_e_minus,
    ore_e_plus,
    ore_fermi,
    ore_lambda,
    ore_scalar,
    ore_zero,
)
from .scalars import GaussianRational, i_power
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


# -- tokenizer ---------------------------------------------------------------------

_SIMPLE = set("+-*/^(),{}")
_DIGITS = "0123456789"  # str.isdigit also accepts other scripts' digits and superscripts


def tokenize(text):
    """List of (kind, value, position) triples; kinds are 'num', 'name', 'op'."""
    out = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < size and text[j] in _DIGITS:
                j += 1
            out.append(("num", int(text[i:j]), i))
            i = j
            continue
        if ch in "wpq":
            j = i + 1
            while j < size and text[j] in _DIGITS:
                j += 1
            if j == i + 1:
                raise ParseError("generator '%s' needs an index" % ch, i)
            out.append(("name", text[i:j], i))
            i = j
            continue
        if ch == "E":
            if i + 1 < size and text[i + 1] in "+-":
                out.append(("name", text[i : i + 2], i))
                i += 2
                continue
            raise ParseError("'E' must be followed directly by '+' or '-'", i)
        if ch in ("i", "L", "P"):
            out.append(("name", ch, i))
            i += 1
            continue
        if ch == "]":
            if i + 1 < size and text[i + 1] == "+":
                out.append(("op", "]+", i))
                i += 2
            else:
                out.append(("op", "]", i))
                i += 1
            continue
        if ch == "[":
            out.append(("op", "[", i))
            i += 1
            continue
        if ch in _SIMPLE:
            out.append(("op", ch, i))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, i)
    return out


# -- parser ------------------------------------------------------------------------

_CLOSERS = {"]": "lie", "]+": "anti", "}": "super"}


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
        return tok

    def expr(self):
        node = self.term()
        while True:
            tok = self._peek()
            if tok is not None and tok[0] == "op" and tok[1] in ("+", "-"):
                self.pos += 1
                rhs = self.term()
                node = ("add" if tok[1] == "+" else "sub", node, rhs)
            else:
                return node

    def _starts_factor(self, tok):
        if tok is None:
            return False
        if tok[0] in ("num", "name"):
            return True
        return tok[0] == "op" and tok[1] in ("(", "[", "{")

    def term(self):
        node = self.factor()
        while True:
            tok = self._peek()
            if tok is not None and tok[0] == "op" and tok[1] in ("*", "/"):
                self.pos += 1
                rhs = self.factor()
                node = ("mul" if tok[1] == "*" else "div", node, rhs)
            elif self._starts_factor(tok):
                node = ("mul", node, self.factor())
            else:
                return node

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
            if value == "i":
                return ("imag",)
            if value == "L":
                return ("lam",)
            return ("gen", value)
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

_LEVEL = {
    "add": 1,
    "sub": 1,
    "mul": 2,
    "div": 2,
    "neg": 3,
    "pow": 4,
}


def _level(node):
    return _LEVEL.get(node[0], 5)


def _wrap(text, need):
    return "(" + text + ")" if need else text


def print_expr(node):
    """Canonical text form; parse(print_expr(t)) == t."""
    if not node:
        raise ParseError("empty expression node", 0)
    head = node[0]
    if head == "num":
        return str(node[1])
    if head == "imag":
        return "i"
    if head == "lam":
        return "L"
    if head == "gen":
        return node[1]
    if head in ("add", "sub"):
        left = print_expr(node[1])
        right = _wrap(print_expr(node[2]), _level(node[2]) <= 1)
        return "%s %s %s" % (left, "+" if head == "add" else "-", right)
    if head in ("mul", "div"):
        left = _wrap(print_expr(node[1]), _level(node[1]) < 2)
        right = _wrap(print_expr(node[2]), _level(node[2]) <= 2)
        return "%s%s%s" % (left, "*" if head == "mul" else "/", right)
    if head == "neg":
        return "-" + _wrap(print_expr(node[1]), _level(node[1]) < 4)
    if head == "pow":
        return _wrap(print_expr(node[1]), _level(node[1]) < 5) + "^%d" % node[2]
    if head == "lie":
        return "[%s,%s]" % (print_expr(node[1]), print_expr(node[2]))
    if head == "anti":
        return "[%s,%s]+" % (print_expr(node[1]), print_expr(node[2]))
    if head == "super":
        return "{%s,%s}" % (print_expr(node[1]), print_expr(node[2]))
    raise AlgebraError("unknown expression node %r" % (head,))


# -- evaluation contexts -------------------------------------------------------------


class CwContext:
    """Evaluation in a Clifford-Weyl algebra C(n, 2k)."""

    kind = "cw"

    def __init__(self, signature):
        self.signature = signature

    def describe(self):
        return "cw:%d,%d" % (self.signature.n_fermi, 2 * self.signature.n_bose)

    def scalar(self, g):
        return scalar_element(self.signature, g)

    def lam(self):
        raise AlgebraError("no central parameter L in %s" % self.describe())

    def generator(self, name):
        sig = self.signature
        letter, index = name[0], name[1:]
        if letter == "w" and index and 1 <= int(index) <= sig.n_fermi:
            return fermi_gen(sig, int(index))
        if letter == "p" and index and 1 <= int(index) <= sig.n_bose:
            return bose_p(sig, int(index))
        if letter == "q" and index and 1 <= int(index) <= sig.n_bose:
            return bose_q(sig, int(index))
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
            full = (1 << (2 * n + 1)) - 1
            return OreElement(n, {OreMonomial(full, 0, 0, 0): i_power(n)})
        if name[0] == "w" and name[1:] and 1 <= int(name[1:]) <= 2 * n + 1:
            return ore_fermi(n, int(name[1:]))
        raise AlgebraError("unknown generator %r for %s" % (name, self.describe()))

    def zero(self):
        return ore_zero(self.n)


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


def _constant_inverse(x):
    c = x.terms.get(x.unit_key())
    if c is None or len(x.terms) > 1:
        raise AlgebraError("division only by invertible constants")
    return c.inverse()


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


# the bracket nodes; each bracket serves both families
_BRACKETS = {"lie": lie_bracket, "anti": anti_bracket, "super": super_bracket}


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
        if not node:
            raise ParseError("empty expression node", 0)
        head = node[0]
        if head == "num":
            return ctx.scalar(GaussianRational(node[1]))
        if head == "imag":
            return ctx.scalar(GaussianRational(0, 1))
        if head == "lam":
            return ctx.lam()
        if head == "gen":
            return ctx.generator(node[1])
        if head == "neg":
            return -ev(node[1])
        if head == "pow":
            x = ev(node[1])
            if x.terms.keys() <= {x.unit_key()}:
                return x ** node[2]
            out = x**0
            for _ in range(node[2]):
                out = product(mul, out, x)
            return out
        if head not in ("add", "sub", "mul", "div", "lie", "anti", "super"):
            raise AlgebraError("unknown expression node %r" % (head,))
        a, b = ev(node[1]), ev(node[2])
        if head == "mul":
            return product(mul, a, b)
        if head in _BRACKETS:
            return product(_BRACKETS[head], a, b, bracket=True)
        if head == "div":
            return a.scale(_constant_inverse(b))
        return a + b if head == "add" else a - b

    return ev(node)


def evaluate_text(text, ctx):
    return evaluate(parse(text), ctx)
