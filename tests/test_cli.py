"""Command-line behavior: modes, exit codes, deterministic reports."""

import contextlib
import io
import itertools
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from cliffordweyl import cli, deform, exprs
from cliffordweyl.deform import MAX_PROBE_MONOMIALS, bounded_monomials
from cliffordweyl.exprs import evaluate_text, parse_algebra
from cliffordweyl.ore import OreMonomial
from cliffordweyl.suites import (
    MAX_CASES,
    SuiteResult,
    SuiteUsageError,
    report_bytes,
    run_suite,
    suite_names,
)

ALL_SUITES = [
    "relations",
    "associativity",
    "periodicity1",
    "periodicity2",
    "odd-split",
    "spin-lemma",
    "matrix-iso",
    "parastat",
    "twisted-adjoint",
    "ore-relations",
    "a0-iso",
    "cocycle",
    "ghost",
    "verma",
    "pi-h",
    "center",
    "commutant",
    "osp22",
    "hochschild",
]


def test_suite_registry_is_complete():
    assert sorted(ALL_SUITES) == suite_names()


# -- expression mode ----------------------------------------------------------------


def test_expression_mode_fixtures(capsys):
    assert cli.main(["--algebra", "cw:0,2", "p1*q1 - q1*p1"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert cli.main(["--algebra", "ore:0", "[E+,E-] + 1/4"]) == 0
    assert capsys.readouterr().out.strip() == "L * w1"


def test_expression_mode_requires_algebra():
    with pytest.raises(SystemExit) as err:
        cli.main(["w1 + w1"])
    assert err.value.code == 2


def test_expression_mode_error_codes(capsys):
    assert cli.main(["--algebra", "cw:1,2", "w1 +"]) == 2
    assert "column" in capsys.readouterr().err
    assert cli.main(["--algebra", "cw:1,2", "E+"]) == 2
    assert "unknown generator" in capsys.readouterr().err


def test_deep_ore_power_product(capsys):
    assert cli.main(["--algebra", "ore:0", "E-^1500*E+"]) == 0
    assert capsys.readouterr().out.strip() == "375 * E-^1499 + E+ E-^1500"


def test_deep_nesting_is_an_input_error(capsys):
    text = "(" * 3000 + "w1" + ")" * 3000
    assert cli.main(["--algebra", "cw:2,2", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: expression nested too deeply"


def test_coefficient_too_long_to_print_is_an_input_error(capsys):
    # 2^15000 has 4,516 decimal digits, past Python's int-to-text limit
    assert cli.main(["--algebra", "cw:0,2", "2^15000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "digits" in captured.err
    assert "Traceback" not in captured.err
    # (1+i)^20000 = 2^10000 has 3,011
    assert cli.main(["--algebra", "cw:0,2", "(1+i)^20000"]) == 0
    assert capsys.readouterr().out.strip() == str(2**10000)


def test_mode_flags_are_exclusive():
    with pytest.raises(SystemExit) as err:
        cli.main(["--suite", "relations", "--algebra", "cw:1,2", "w1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2


def test_bad_algebra_and_seed_are_usage_errors():
    with pytest.raises(SystemExit):
        cli.main(["--algebra", "cw:1,3", "w1"])
    with pytest.raises(SystemExit):
        cli.main(["--suite", "relations", "--seed", "-1"])
    with pytest.raises(SystemExit):
        cli.main(["--suite", "relations", "--seed", "banana"])
    with pytest.raises(SystemExit):
        cli.main(["--suite", "relations", "--seed", str(1 << 64)])


# -- suite mode ---------------------------------------------------------------------


def test_unknown_suite_exit_code(capsys):
    assert cli.main(["--suite", "nonesuch"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_suite_pass_exit_code_and_stdout_json(capsys):
    assert cli.main(["--suite", "relations", "--algebra", "cw:2,2"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["pass"] is True
    assert data["cases"] == 12
    assert data["params"] == {"algebra": "cw:2,2"}


def test_suite_failure_exit_code(capsys, monkeypatch):
    broken = SuiteResult(
        suite="relations",
        seed=0,
        params={},
        cases=1,
        failures=[{"inputs": ["x"], "lhs": "0", "rhs": "1"}],
    )
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: broken)
    assert cli.main(["--suite", "relations"]) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False


def test_json_file_is_byte_identical_across_runs(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["--suite", "cocycle", "--seed", "42", "--cases", "5", "--json"]
    assert cli.main(argv + [str(first)]) == 0
    assert cli.main(argv + [str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    data = json.loads(first.read_bytes())
    assert data["seed"] == 42
    assert data["details"]["constants"] == {"ore:0": "-2", "ore:1": "-2"}


def test_unwritable_json_path_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    assert cli.main(["--suite", "relations", "--algebra", "cw:1,2", "--json", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not path.exists()


def test_case_count_above_the_cap_is_a_usage_error(capsys):
    # the cap is checked before any case runs, so this returns at once
    argv = ["--suite", "associativity", "--algebra", "cw:1,2", "--cases"]
    assert cli.main(argv + ["99999999999"]) == 2
    assert "cases must be at most %d" % MAX_CASES in capsys.readouterr().err
    assert cli.main(argv + [str(MAX_CASES + 1)]) == 2
    with pytest.raises(SuiteUsageError):
        run_suite("relations", cases=MAX_CASES + 1)


def test_different_seeds_differ():
    a = report_bytes(run_suite("associativity", seed=1, cases=5))
    b = report_bytes(run_suite("associativity", seed=2, cases=5))
    assert a != b


def test_wall_time_not_serialized():
    result = run_suite("relations", seed=0)
    assert result.wall_time > 0
    assert b"wall" not in report_bytes(result)
    assert "wall_time" not in result.to_json()


# -- suite parameter validation -------------------------------------------------------


def test_invalid_suite_params():
    with pytest.raises(SuiteUsageError):
        run_suite("relations", algebra=parse_algebra("ore:0"))
    with pytest.raises(SuiteUsageError):
        run_suite("ghost", algebra=parse_algebra("cw:1,2"))
    with pytest.raises(SuiteUsageError):
        run_suite("verma", algebra=parse_algebra("ore:0"))
    with pytest.raises(SuiteUsageError):
        run_suite("associativity", cases=0)
    with pytest.raises(SuiteUsageError):
        run_suite("center", maxdeg=-1)
    with pytest.raises(SuiteUsageError):
        run_suite("matrix-iso", algebra=parse_algebra("cw:1,2"))
    # each used to end in AttributeError or TypeError
    bad = [("algebra", "cw:2,2"), ("algebra", 3), ("cases", "3"), ("cases", 2.5), ("maxdeg", 1.5)]
    # a bool is no count: it used to run and be recorded as `true`
    for arg, value in bad + [("cases", True), ("maxdeg", False)]:
        with pytest.raises(SuiteUsageError, match="^%s must be " % arg):
            run_suite("associativity", **{arg: value})
    # a name that is no str, and a seed outside the CLI's 0..2^64-1, used to
    # end in TypeError or run and be recorded
    for name in (["relations"], 3, None):
        with pytest.raises(SuiteUsageError, match="^unknown suite "):
            run_suite(name)
    for seed in ([1], 1.5, True, -1, 1 << 64, 2**70, "1"):
        with pytest.raises(SuiteUsageError, match="^seed must be "):
            run_suite("relations", seed=seed)
    assert run_suite("relations", seed=(1 << 64) - 1).seed == (1 << 64) - 1


# -- individual suite content ----------------------------------------------------------


def test_center_suite_reports_basis():
    result = run_suite("center")
    assert result.passed
    assert result.details["basis"] == {"ore:0": ["1", "L", "L^2"]}
    smaller = run_suite("center", maxdeg=3)
    assert smaller.details["basis"] == {"ore:0": ["1", "L"]}


@pytest.mark.parametrize("argv", [["--algebra", "ore:12"], ["--maxdeg", "80"]], ids=["ore12", "maxdeg80"])
def test_center_probe_above_the_monomial_bound_is_an_input_error(argv, capsys):
    # 21,997 and 91,881 monomials; the listing stops at MAX_PROBE_MONOMIALS + 1
    start = time.perf_counter()
    assert cli.main(["--suite", "center"] + argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: rank ")
    assert "more than %d monomials" % MAX_PROBE_MONOMIALS in captured.err
    assert cli.main(["--suite", "center"]) == 0


def test_center_probe_counts_its_monomials(monkeypatch):
    # the listing by Fermi degree against a scan of every mask, filtered
    for n, degree in [(0, 0), (0, 4), (1, 3), (2, 5)]:
        scan = [
            OreMonomial(mask, a, b, r)
            for mask in range(1 << (2 * n + 1))
            for a, b, r in itertools.product(range(degree + 1), repeat=3)
            if mask.bit_count() + a + b + 2 * r <= degree
        ]
        canonical = sorted(scan, key=lambda m: (m.degree(), m.lam, m.cliff, m.e_plus, m.e_minus))
        assert bounded_monomials(n, degree) == canonical
    monkeypatch.setattr(deform, "MAX_PROBE_MONOMIALS", 10**6)
    assert [len(bounded_monomials(*probe)) for probe in [(0, 40), (12, 4)]] == [12_341, 21_997]
    monkeypatch.setattr(deform, "MAX_PROBE_MONOMIALS", 35)
    assert len(bounded_monomials(0, 4)) == 35
    with pytest.raises(exprs.AlgebraError, match="more than 35 monomials"):
        bounded_monomials(0, 5)


def test_center_probe_work_follows_its_listing_at_every_rank(capsys):
    # 64 monomials at ore:30; a scan of the 2^61 Fermi masks never finished
    start = time.perf_counter()
    assert cli.main(["--suite", "center", "--algebra", "ore:30", "--maxdeg", "1"]) == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["cases"] == 64


@pytest.mark.parametrize(
    "suite", ["associativity", "periodicity1", "periodicity2", "matrix-iso", "a0-iso", "center"]
)
def test_maxdeg_zero_is_honoured(suite, capsys):
    assert cli.main(["--suite", suite, "--maxdeg", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["params"]["maxdeg"] == 0
    if suite == "center":
        assert report["details"]["basis"] == {"ore:0": ["1"]}
        assert report["cases"] == 4


@pytest.mark.parametrize("algebra", ["cw:2,0", "cw:4,0"])
def test_matrix_iso_runs_without_bose_pairs(algebra, capsys):
    # the basis images are the Fermi words times the unit alone: there is no p1
    assert cli.main(["--suite", "matrix-iso", "--algebra", algebra]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True
    assert (data["cases"], data["failures"]) == (12, [])
    assert run_suite("matrix-iso").cases == 24  # the default grid keeps its p1 rows


def test_parastat_suite_counts_exhaustive_triples():
    # 3 generators -> 27 ordered triples (+1 dimension check)
    small = run_suite("parastat", algebra=parse_algebra("cw:1,2"))
    assert small.passed and small.cases == 28
    assert small.details["dims"] == {"cw:1,2": 8}
    # 5 generators -> 125 ordered triples (+1 dimension check)
    big = run_suite("parastat", algebra=parse_algebra("cw:1,4"))
    assert big.passed and big.cases == 126
    assert big.details["dims"] == {"cw:1,4": 19}


def test_commutant_suite_reports_scalar_dimensions():
    result = run_suite("commutant")
    assert result.passed
    assert set(result.details["commutant_dims"].values()) == {1}


@pytest.mark.parametrize("name", ALL_SUITES)
def test_every_suite_passes_under_default_params(name):
    fast = {"cases": 5} if name not in ("verma", "hochschild") else {"cases": 3}
    result = run_suite(name, seed=11, **fast)
    assert result.passed, result.failures[:1]
    assert result.cases > 0
    payload = report_bytes(result)
    parsed = json.loads(payload)
    assert parsed["suite"] == name and parsed["pass"] is True


# -- work bounds ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "algebra, text, column",
    [("cw:0,2", "2^99999999", 3), ("cw:0,2", "q1^99999999", 4), ("ore:0", "E+^99999999", 4)],
    ids=["cw-constant", "cw-generator", "ore"],
)
def test_exponent_above_the_budget_is_an_input_error(algebra, text, column, capsys, monkeypatch):
    from cliffordweyl import exprs, sparse

    def no_power(self, n):
        raise AssertionError("a power was computed")

    monkeypatch.setattr(sparse.SparseElement, "__pow__", no_power)
    assert cli.main(["--algebra", algebra, text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == (
        "error: exponent above the budget of %d (column %d)" % (exprs.MAX_EXPONENT, column)
    )
    head = text.partition("^")[0]
    assert exprs.parse("%s^%d" % (head, exprs.MAX_EXPONENT))[2] == exprs.MAX_EXPONENT


@pytest.mark.parametrize("descriptor", ["cw:0,2000000000", "cw:1001,2", "cw:0,1002", "ore:1001"])
def test_algebra_above_the_size_bound_is_a_usage_error(descriptor, capsys, monkeypatch):
    from cliffordweyl import exprs

    def no_algebra(*args):
        raise AssertionError("an algebra was built")

    monkeypatch.setattr(exprs, "AlgebraSignature", no_algebra)
    monkeypatch.setattr(exprs, "OreContext", no_algebra)
    with pytest.raises(SystemExit) as err:
        cli.main(["--algebra", descriptor, "1"])
    assert err.value.code == 2
    assert "above the size bound of %d" % exprs.MAX_ALGEBRA_SIZE in capsys.readouterr().err
    monkeypatch.undo()
    assert parse_algebra("cw:1000,1000").describe() == "cw:1000,1000"
    assert parse_algebra("ore:1000").describe() == "ore:1000"


@pytest.mark.parametrize(
    "algebra, text", [("cw:1,2", "(1+q1)^3000"), ("ore:0", "(1+E+)^3000")], ids=["cw", "ore"]
)
def test_work_above_the_budget_is_an_input_error(algebra, text, capsys):
    # each step of the power multiplies a growing sum by a two-term one
    assert cli.main(["--algebra", algebra, text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == (
        "error: expression above the work budget of %d monomial pairs" % exprs.MAX_PAIRS
    )


def test_work_budget_counts_monomial_pairs(monkeypatch):
    ctx = parse_algebra("cw:0,2")
    # the largest power of a generator charges one pair per step and fits
    assert exprs.MAX_PAIRS >= exprs.MAX_EXPONENT
    monkeypatch.setattr(exprs, "MAX_PAIRS", 12)
    # (p1+q1)^2 charges 1*2 + 2*2 pairs and has three terms; a bracket
    # charges twice; a constant power charges nothing
    for text in ["q1^12", "(1+q1)*(p1+q1)^2", "[p1+q1,p1+q1+1]", "(1+i)^99 * q1^11"]:
        evaluate_text(text, ctx)
    for text in ["q1^13", "(1+q1)*(p1+q1)^2*1", "[p1+q1,p1+q1+1] + p1*q1"]:
        with pytest.raises(exprs.AlgebraError, match="work budget of 12 "):
            evaluate_text(text, ctx)


def test_lowering_above_the_budget_is_an_input_error(capsys):
    # E-^3000 is built one E- at a time and charges nothing; the product
    # charges 3000 * 3001 before any lowering
    start = time.perf_counter()
    assert cli.main(["--algebra", "ore:0", "E-^3000*E+^3000"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: expression above the lowering budget of %d" % exprs.MAX_LOWERING
    assert cli.main(["--algebra", "ore:0", "E-^100*E+^100"]) == 0


def test_lowering_budget_charges_each_kernel(monkeypatch):
    ctx = parse_algebra("ore:0")
    monkeypatch.setattr(exprs, "MAX_LOWERING", 12)
    # E-^2*E+^3 charges 2 * (3 + 1); each distinct (E-, E+) exponent pair of
    # the two factors is charged; a bracket charges both orders; a power of
    # one generator lowers nothing
    for text in ["E-^2*E+^3", "(E- + E-^2)*E+^3", "[E-^2,E+^3] + E-*E+", "E-^13 * E+^0"]:
        evaluate_text(text, ctx)
    for text in ["E-^2*E+^3 + E-*E+^4", "(E- + E-^2)*(E+ + E+^3)", "[E-^2,E+^3] + E-^2*E+^2"]:
        with pytest.raises(exprs.AlgebraError, match="lowering budget of 12$"):
            evaluate_text(text, ctx)
    # the cw families have no lowering kernel
    evaluate_text("p1^5*q1^5", parse_algebra("cw:0,2"))


# -- grammar fuzz ---------------------------------------------------------------------

_FUZZ_ATOMS = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["i", "L", "w1", "w2", "w3", "p1", "p2", "q1", "q2", "E+", "E-", "P"]),
)

# text built by the rules of the exprs grammar; generators outside the
# algebra, L in cw, division by non-constants and the precedence of "^"
# give input errors, not tracebacks
_FUZZ_TEXT = st.recursive(
    _FUZZ_ATOMS,
    lambda kids: st.one_of(
        st.builds("({})".format, kids),
        st.builds("-{}".format, kids),
        st.builds("{}{}{}".format, kids, st.sampled_from(["+", "-", "*", "/", " ", " - "]), kids),
        st.builds("{}^{}".format, kids, st.integers(0, 4)),
        st.builds(
            "{}{},{}{}".format,
            st.sampled_from(["[", "{"]),
            kids,
            kids,
            st.sampled_from(["]", "]+", "}"]),
        ),
    ),
    max_leaves=8,
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(["cw:2,2", "cw:0,4", "cw:3,0", "ore:0", "ore:1"]), _FUZZ_TEXT)
def test_grammar_fuzz_exits_0_or_2(algebra, text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--algebra", algebra, "--", text])
    assert code in (0, 2), (algebra, text)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), (algebra, text)
    else:
        assert out.getvalue().strip(), (algebra, text)
