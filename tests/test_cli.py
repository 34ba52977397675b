"""Command-line behavior: modes, exit codes, deterministic reports."""

import json

import pytest

from cliffordweyl import cli
from cliffordweyl.exprs import parse_algebra
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


# -- individual suite content ----------------------------------------------------------


def test_center_suite_reports_basis():
    result = run_suite("center")
    assert result.passed
    assert result.details["basis"] == {"ore:0": ["1", "L", "L^2"]}
    smaller = run_suite("center", maxdeg=3)
    assert smaller.details["basis"] == {"ore:0": ["1", "L"]}


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
