"""Expression grammar: tokens, round trips, evaluation, error positions."""

import sys
import threading

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from cliffordweyl.algebra import AlgebraError, AlgebraSignature, unit
from cliffordweyl.exprs import (
    MAX_EXPONENT,
    CwContext,
    OreContext,
    ParseError,
    evaluate,
    evaluate_text,
    parse,
    parse_algebra,
    print_expr,
    tokenize,
)
from cliffordweyl.ore import ghost_theta, ore_lambda, ore_unit
from cliffordweyl.scalars import GaussianRational, Scalar
from cliffordweyl.starprod import star


# -- tokenizer ----------------------------------------------------------------------


def test_token_fixtures():
    assert tokenize("2w13") == [("num", 2, 0), ("name", "w13", 1)]
    assert tokenize("E+ +E-") == [("name", "E+", 0), ("op", "+", 3), ("name", "E-", 4)]
    # "]+" only without a space; "] +" is a closer then a sum
    assert [t[:2] for t in tokenize("]+")] == [("op", "]+")]
    assert [t[:2] for t in tokenize("] +")] == [("op", "]"), ("op", "+")]


def test_token_errors_carry_position():
    with pytest.raises(ParseError) as err:
        tokenize("w1 + x")
    assert err.value.position == 5
    with pytest.raises(ParseError):
        tokenize("p + 1")  # bare p needs an index
    with pytest.raises(ParseError):
        tokenize("E * 2")  # bare E is not a generator
    # digits are ASCII only: an Arabic-Indic one and a superscript are not numbers
    for text, position in (("\u0661", 0), ("w\u00b2", 0), ("2\u00b2", 1)):
        with pytest.raises(ParseError) as err:
            tokenize(text)
        assert err.value.position == position, text


# -- parser -------------------------------------------------------------------------


def test_precedence_and_juxtaposition():
    assert parse("1 + 2*3") == ("add", ("num", 1), ("mul", ("num", 2), ("num", 3)))
    assert parse("2*w1^2") == ("mul", ("num", 2), ("pow", ("gen", "w1"), 2))
    assert parse("2 w1") == parse("2*w1")
    assert parse("(1+2)w1") == ("mul", ("add", ("num", 1), ("num", 2)), ("gen", "w1"))
    assert parse("-w1*p1") == ("mul", ("neg", ("gen", "w1")), ("gen", "p1"))
    assert parse("1/2/3") == ("div", ("div", ("num", 1), ("num", 2)), ("num", 3))


def test_bracket_forms():
    assert parse("[w1,p1]") == ("lie", ("gen", "w1"), ("gen", "p1"))
    assert parse("[w1,p1]+") == ("anti", ("gen", "w1"), ("gen", "p1"))
    assert parse("{w1,p1}") == ("super", ("gen", "w1"), ("gen", "p1"))
    # adjacency: a spaced plus is addition
    assert parse("[E+,E-] + 1")[0] == "add"
    assert parse("[E+,E-]+")[0] == "anti"


def test_parse_errors():
    for text, column in [("w1 +", 5), ("(w1", 4), ("[w1,p1}", 7), ("w1^p1", 4), ("w1 ) ", 4)]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == column - 1, text


@pytest.mark.parametrize("text", [None, 3, b"w1", ["w1"]], ids=["none", "int", "bytes", "list"])
def test_text_that_is_not_a_str_is_a_parse_error(text):
    # these used to end in TypeError or AttributeError
    with pytest.raises(ParseError, match=r"^expression must be text, got \w+ \(column 1\)$") as err:
        parse(text)
    assert err.value.position == 0
    with pytest.raises(ParseError):
        evaluate_text(text, parse_algebra("cw:1,2"))


@pytest.mark.parametrize("ctx", [None, "cw:1,2", AlgebraSignature(1, 1), 2], ids=["none", "descriptor", "signature", "rank"])
def test_a_context_that_is_not_one_is_an_algebra_error(ctx):
    # each used to end in AttributeError
    with pytest.raises(AlgebraError, match="^context must be a context from parse_algebra, got "):
        evaluate_text("w1", ctx)
    with pytest.raises(AlgebraError, match="^context must be "):
        evaluate(parse("w1 + 1"), ctx)


def test_empty_nodes_are_parse_errors():
    ctx = CwContext(AlgebraSignature(1, 1))
    with pytest.raises(ParseError):
        evaluate((), ctx)
    with pytest.raises(ParseError):
        print_expr(())


_X = ("gen", "w1")

# one well-formed node of each kind
WELL_FORMED = [("num", 1), ("gen", "w1"), ("imag",), ("lam",), ("neg", _X), ("pow", _X, 2)] + [
    (kind, _X, ("num", 2)) for kind in ("add", "sub", "mul", "div", "lie", "anti", "super")
]

# each kind with one child too few and one too many, wrong values, nodes
# that are no tuples, and an exponent past the parser's bound
MALFORMED = [
    *(node[:-1] for node in WELL_FORMED if len(node) > 1),
    *(node + (_X,) for node in WELL_FORMED),
    ("gen", 3),
    ("gen", ""),
    ("gen", "w\u0663"),
    ("num", "x"),
    ("num", -1),
    ("num", True),
    ("pow", _X, "2"),
    ("pow", _X, -1),
    ("pow", _X, MAX_EXPONENT + 1),
    ("add", _X, ("num",)),
    None,
    5,
    "w1",
    ["num", 1],
]


@pytest.mark.parametrize("node", MALFORMED, ids=repr)
def test_malformed_trees_are_parse_errors(node):
    ctx = OreContext(1)
    with pytest.raises(ParseError):
        evaluate(node, ctx)
    with pytest.raises(ParseError):
        print_expr(node)


@pytest.mark.parametrize("node", [("cube", _X), (["num"], 1), ("add", _X, ("cube",))], ids=repr)
def test_unknown_node_kinds_are_algebra_errors(node):
    with pytest.raises(AlgebraError) as err:
        evaluate(node, OreContext(1))
    assert not isinstance(err.value, ParseError)
    with pytest.raises(AlgebraError):
        print_expr(node)


@pytest.mark.parametrize("node", WELL_FORMED, ids=repr)
def test_well_formed_nodes_evaluate_and_print(node):
    assert parse(print_expr(node)) == node
    assert evaluate(node, OreContext(1)) is not None


def test_the_largest_exponent_is_a_tree_too():
    node = ("pow", ("num", 1), MAX_EXPONENT)
    assert parse(print_expr(node)) == node
    assert evaluate(node, OreContext(0)) == ore_unit(0)


@pytest.mark.parametrize(
    "algebra, name",
    [("cw:1,2", "wx"), ("cw:1,2", 3)] + [("ore:1", name) for name in ("", "w\u0663", "w", "i", 3)],
    ids=repr,
)
def test_contexts_refuse_names_that_are_no_generators(algebra, name):
    with pytest.raises(AlgebraError, match="unknown generator"):
        parse_algebra(algebra).generator(name)


@pytest.mark.parametrize("pattern", ["(1+1*%s)", "(1*%s+1)", "[1,1+%s]", "(1/1-%s)"])
def test_mixed_nesting_costs_five_parser_frames_a_level(pattern):
    # each level nests one "(" or "[" inside a sum and a product; the parser
    # spends at most five frames on it (atom, expr, expr, factor, power), so a
    # fifth of the recursion limit, less a margin, parses and evaluates.  A
    # new thread starts with an empty stack.
    depth = sys.getrecursionlimit() // 5 - 10
    text = "1"
    for _ in range(depth):
        text = pattern % text
    ctx = CwContext(AlgebraSignature(0, 0))
    out = []
    thread = threading.Thread(target=lambda: out.append(evaluate(parse(text), ctx)))
    thread.start()
    thread.join()
    assert len(out) == 1


# -- printer round trip ---------------------------------------------------------------


def test_print_fixture_is_stable():
    text = "(1/2 + 1/2*i)*w1"
    assert print_expr(parse(text)) == text


_ATOMS = st.one_of(
    st.integers(0, 9).map(lambda v: ("num", v)),
    st.just(("imag",)),
    st.just(("lam",)),
    st.sampled_from(["w1", "w2", "w3", "p1", "q1", "E+", "E-", "P"]).map(
        lambda g: ("gen", g)
    ),
)

_TREES = st.recursive(
    _ATOMS,
    lambda kids: st.one_of(
        st.tuples(st.just("neg"), kids),
        st.tuples(
            st.sampled_from(["add", "sub", "mul", "div", "lie", "anti", "super"]),
            kids,
            kids,
        ),
        st.tuples(st.just("pow"), kids, st.integers(0, 5)),
    ),
    max_leaves=12,
)


@given(_TREES)
def test_parse_print_parse_identity(tree):
    text = print_expr(tree)
    assert parse(text) == tree
    assert print_expr(parse(text)) == text


# -- evaluation ---------------------------------------------------------------------


def test_weyl_commutator_fixture():
    ctx = parse_algebra("cw:0,2")
    assert str(evaluate_text("p1*q1 - q1*p1", ctx)) == "1"


def test_bracket_fixture_in_deformed_algebra():
    ctx = parse_algebra("ore:0")
    value = evaluate_text("[E+,E-] + 1/4", ctx)
    assert value == ghost_theta(0)
    assert str(value) == "L * w1"
    assert evaluate_text("L*P", ctx) == value


def test_parity_generator_squares_to_one():
    for n in (0, 1, 2):
        ctx = OreContext(n)
        assert evaluate_text("P^2", ctx) == ore_unit(n)
        assert evaluate_text("P*P - 1", ctx) == ctx.zero()


def test_rational_and_imaginary_literals():
    ctx = parse_algebra("cw:1,2")
    want = unit(ctx.signature).scale(
        Scalar.from_gaussian(GaussianRational(Fraction(3, 4), Fraction(-1, 2)))
    )
    assert evaluate_text("3/4 - i/2", ctx) == want
    assert evaluate_text("i^2 + 1", ctx) == ctx.zero()


def test_brackets_match_library_operations():
    ctx = parse_algebra("cw:2,2")
    sig = ctx.signature
    w1w2 = star(ctx.generator("w1"), ctx.generator("w2"))
    assert evaluate_text("{w1,w2}", ctx) == w1w2.scale(2)
    assert evaluate_text("[p1,q1]", ctx) == unit(sig)


def test_unknown_generators_per_context():
    with pytest.raises(AlgebraError):
        evaluate_text("p1", parse_algebra("ore:0"))
    with pytest.raises(AlgebraError):
        evaluate_text("E+", parse_algebra("cw:1,2"))
    with pytest.raises(AlgebraError):
        evaluate_text("L", parse_algebra("cw:1,2"))
    with pytest.raises(AlgebraError):
        evaluate_text("w2", parse_algebra("cw:1,2"))
    with pytest.raises(AlgebraError):
        evaluate_text("w4", parse_algebra("ore:1"))
    assert evaluate_text("w3", parse_algebra("ore:1")) is not None


def test_division_requires_invertible_constant():
    ctx = parse_algebra("ore:0")
    assert evaluate_text("w1/2", ctx) == evaluate_text("1/2 w1", ctx)
    assert evaluate_text("1/i", ctx) == evaluate_text("-i", ctx)
    with pytest.raises(AlgebraError):
        evaluate_text("1/L", ctx)
    with pytest.raises(AlgebraError):
        evaluate_text("1/w1", ctx)
    with pytest.raises(AlgebraError):
        evaluate_text("1/0", ctx)
    with pytest.raises(AlgebraError):
        evaluate_text("w1/(p1 - p1)", parse_algebra("cw:1,2"))


def test_algebra_descriptors():
    ctx = parse_algebra("cw:3,4")
    assert isinstance(ctx, CwContext)
    assert ctx.signature == AlgebraSignature(3, 2)
    assert ctx.describe() == "cw:3,4"
    assert parse_algebra("ore:2").describe() == "ore:2"
    for bad in ["cw:1,3", "cw:1", "cw:-1,2", "ore:-1", "ore:x", "weyl:1", "cw:1,2,3"]:
        with pytest.raises(AlgebraError):
            parse_algebra(bad)
    # not text: these used to end in AttributeError
    for bad in [None, b"cw:1,2", 3, ("cw", 1, 2)]:
        with pytest.raises(AlgebraError, match=r"^bad algebra descriptor "):
            parse_algebra(bad)


def test_lambda_literal_in_deformed_algebra():
    ctx = parse_algebra("ore:1")
    assert evaluate_text("L^2", ctx) == ore_lambda(1, 2)
    assert evaluate_text("L*L - L^2", ctx) == ctx.zero()
