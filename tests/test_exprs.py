"""Expression grammar: tokens, round trips, evaluation, error positions."""

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from cliffordweyl.algebra import AlgebraError, AlgebraSignature, unit
from cliffordweyl.exprs import (
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


def test_lambda_literal_in_deformed_algebra():
    ctx = parse_algebra("ore:1")
    assert evaluate_text("L^2", ctx) == ore_lambda(1, 2)
    assert evaluate_text("L*L - L^2", ctx) == ctx.zero()
