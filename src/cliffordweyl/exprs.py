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
charge more than `MAX_PAIRS` monomial pairs in all is an AlgebraError.

Syntax trees are plain tuples, so `parse(print_expr(t)) == t` is a cheap
structural identity; `print_expr` re-inserts parentheses exactly where the
precedence rules demand them.
"""

from operator import mul

from .algebra import (
    AlgebraError,
    AlgebraSignature,
    bose_p,
    bose_q,
    fermi_gen,
    scalar_element,
    unit,
    zero,
)
from .ore import (
    OreElement,
    OreMonomial,
    ore_anti_bracket,
    ore_e_minus,
    ore_e_plus,
    ore_fermi,
    ore_lambda,
    ore_lie_bracket,
    ore_scalar,
    ore_super_bracket,
    ore_unit,
    ore_zero,
)
from .scalars import GaussianRational, Scalar, i_power
from .starprod import anti_bracket, lie_bracket, super_bracket


# the largest exponent `^` takes; a power of a non-constant costs one
# product per unit of it
MAX_EXPONENT = 100_000

# the most monomial pairs one expression may multiply: len(a) * len(b) is
# charged before each "*" and each step of a power of a non-constant, and
# twice before a bracket; a constant's power is taken by squaring, for free
MAX_PAIRS = 200_000

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
        return scalar_element(self.signature, Scalar.from_gaussian(g))

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

    brackets = {"lie": lie_bracket, "anti": anti_bracket, "super": super_bracket}

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

    brackets = {
        "lie": ore_lie_bracket,
        "anti": ore_anti_bracket,
        "super": ore_super_bracket,
    }

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


def evaluate(node, ctx):
    """Exact element of the context's algebra, within the `MAX_PAIRS` budget."""
    spent = 0

    def product(op, a, b, times=1):
        nonlocal spent
        spent += times * len(a.terms) * len(b.terms)
        if spent > MAX_PAIRS:
            raise AlgebraError("expression above the work budget of %d monomial pairs" % MAX_PAIRS)
        return op(a, b)

    def ev(node):
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
        if head in ctx.brackets:
            return product(ctx.brackets[head], a, b, 2)
        if head == "div":
            return a.scale(_constant_inverse(b))
        return a + b if head == "add" else a - b

    return ev(node)


def evaluate_text(text, ctx):
    return evaluate(parse(text), ctx)
