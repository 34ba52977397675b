"""The suite table: README's Suites table, the flags run_suite resolves, and
the bound on the rejection samplers.

`suites._SUITES` is the one place that knows a suite's `--algebra` kinds,
its default grid and its default `--cases` and `--maxdeg`; README's table
must say the same.  The samplers draw by rejection, and `_draws_per_term`
counts their expected draws exactly, so a suite refuses an algebra and a
degree that would make one random term take more than `MAX_DRAWS` draws.
"""

import pathlib
import time
from fractions import Fraction
from itertools import product

import pytest

from cliffordweyl import cli, suites
from cliffordweyl.exprs import parse_algebra
from cliffordweyl.suites import MAX_DRAWS, SuiteUsageError, run_suite, suite_names

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _readme_rows():
    """suite name -> (its --algebra, --cases and --maxdeg cells) in README's Suites table."""
    text = README.read_text(encoding="utf-8")
    table = text.split("### Suites", 1)[1].split("\n\n", 2)[1]
    rows = {}
    for line in table.splitlines()[2:]:
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = (cells[2], cells[3], cells[4])
    return rows


def _default(cell):
    return None if cell == "—" else int(cell)


def test_readme_has_a_row_for_every_suite():
    assert sorted(_readme_rows()) == suite_names()


@pytest.mark.parametrize("name", suite_names())
def test_readme_row_matches_the_table(name):
    algebra, cases, maxdeg = _readme_rows()[name]
    _fn, kinds, _grid, default_cases, default_maxdeg = suites._SUITES[name]
    named = tuple(kind for kind in ("cw", "ore") if "`%s`" % kind in algebra)
    assert ("fixed grid" in algebra, named) == (not kinds, kinds)
    assert (_default(cases), _default(maxdeg)) == (default_cases, default_maxdeg)


@pytest.mark.parametrize("name", suite_names())
def test_readme_refusals_raise_before_any_work(name, monkeypatch):
    # every suite function is replaced, so a refusal that waited for one fails
    for key, (fn, *rest) in list(suites._SUITES.items()):
        monkeypatch.setitem(suites._SUITES, key, (None, *rest))
    algebra = _readme_rows()[name][0]
    refused = []
    if "fixed grid" in algebra:
        refused.append("cw:2,2")
    if "`ore`" not in algebra:
        refused.append("ore:0")
    if "`cw`" not in algebra:
        refused.append("cw:1,2")
    if not refused:  # either family, as test_either_family_runs_in_associativity checks
        assert "`cw`" in algebra and "`ore`" in algebra
    for descriptor in refused:
        with pytest.raises(SuiteUsageError):
            run_suite(name, algebra=parse_algebra(descriptor))


def test_either_family_runs_in_associativity():
    for descriptor in ("cw:1,2", "ore:0"):
        result = run_suite("associativity", algebra=parse_algebra(descriptor), cases=2)
        assert result.passed and result.params["algebra"] == descriptor


def test_unread_flags_are_ignored():
    # suites without a default for a flag take it and ignore it
    base = run_suite("relations")
    assert run_suite("relations", cases=7, maxdeg=1).to_json() == base.to_json()
    assert "maxdeg" not in base.params


# -- the sampler bound ----------------------------------------------------------------


SLOTS = [(0, 0, 0), (1, 2, 0), (3, 4, 0), (0, 6, 0), (1, 2, 1), (5, 2, 1)]


@pytest.mark.parametrize("fermi, bose, lam", SLOTS)
def test_draws_per_term_counts_every_slot_choice(fermi, bose, lam):
    weights = [(0, 1)] * fermi + [(0, 1, 2)] * bose + [(0, 2)] * lam
    degrees = [sum(choice) for choice in product(*weights)]
    for maxdeg in range(max(degrees) + 2):
        kept = sum(d <= maxdeg for d in degrees)
        assert suites._draws_per_term(fermi, bose, lam, maxdeg) == Fraction(len(degrees), kept)


# (Fermi slots, Bose slots, L slots) of cw:<n>,<2k> and ore:<n>, and the
# expected draws per term at the default degree 4
FIGURES = {
    "cw:1,2": ((1, 2, 0), 1.059),
    "cw:4,8": ((4, 8, 0), 77.3),
    "cw:6,10": ((6, 10, 0), 1001.9),
    "cw:12,12": ((12, 12, 0), 1.332e5),
    "ore:2": ((5, 2, 1), 3.291),
    "ore:12": ((25, 2, 1), 2.753e4),
}


@pytest.mark.parametrize("descriptor", sorted(FIGURES))
def test_draws_per_term_at_the_default_degree(descriptor):
    slots, figure = FIGURES[descriptor]
    assert float(suites._draws_per_term(*slots, 4)) == pytest.approx(figure, rel=1e-3)


def test_the_bound_admits_every_default_and_maxdeg_zero():
    # the largest a default or a --maxdeg 0 run asks for: ore:2 in periodicity2
    assert suites._draws_per_term(5, 2, 1, 0) == 576 <= MAX_DRAWS
    assert suites._draws_per_term(6, 10, 0, 4) > MAX_DRAWS


@pytest.mark.parametrize("algebra", ["cw:12,12", "ore:12", "cw:1000,1000", "ore:1000"])
def test_a_wide_algebra_is_refused_before_drawing(algebra, capsys):
    start = time.perf_counter()
    assert cli.main(["--suite", "associativity", "--algebra", algebra]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error: a random term would take more than 1000 draws")


def test_a_higher_degree_admits_the_algebra():
    # the bound reads --maxdeg: cw:4,8 needs 1,207 draws at degree 2 and 77 at 4
    with pytest.raises(SuiteUsageError):
        run_suite("associativity", algebra=parse_algebra("cw:4,8"), maxdeg=2, cases=1)
    assert run_suite("associativity", algebra=parse_algebra("cw:4,8"), cases=1).passed


# a suite whose draws a flag can refuse: (an algebra and --maxdeg it refuses,
# a larger --maxdeg, a smaller algebra); None where the suite reads no
# --maxdeg.  periodicity1 draws on a fixed grid that every --maxdeg admits,
# and odd-split and hochschild at fixed algebras and degrees.
REFUSED_DRAWS = {
    "a0-iso": ("ore:9", 3, 5, "ore:1"),
    "associativity": ("cw:6,10", 4, 5, "cw:2,2"),
    "cocycle": ("ore:7", None, None, "ore:1"),
    "matrix-iso": ("cw:2,10", 0, 3, "cw:2,2"),
    "periodicity2": ("ore:4", 0, 4, "ore:1"),
}


@pytest.mark.parametrize("suite", sorted(REFUSED_DRAWS))
def test_a_draw_refusal_names_only_flags_the_suite_reads_and_taking_one_helps(suite):
    algebra, maxdeg, higher, smaller = REFUSED_DRAWS[suite]
    _, kinds, _, _, default_maxdeg = suites._SUITES[suite]
    with pytest.raises(SuiteUsageError) as refused:
        run_suite(suite, algebra=parse_algebra(algebra), maxdeg=maxdeg, cases=1)
    message = str(refused.value)
    assert message.startswith("a random term would take more than %d draws" % MAX_DRAWS)
    advice = message.split("; ")[1].split(" or ")
    assert advice == ["raise --maxdeg"] * (default_maxdeg is not None) + ["shrink --algebra"] * bool(kinds)
    taken = {"raise --maxdeg": (algebra, higher), "shrink --algebra": (smaller, maxdeg)}
    for flag in advice:
        alg, deg = taken[flag]
        try:
            assert run_suite(suite, algebra=parse_algebra(alg), maxdeg=deg, cases=1).passed
        except SuiteUsageError as e:
            assert str(e) != message


def test_cocycle_refusal_names_no_maxdeg(capsys):
    # cocycle draws at a fixed degree 2 and ignores --maxdeg
    assert cli.main(["--suite", "cocycle", "--algebra", "ore:12", "--maxdeg", "30"]) == 2
    assert capsys.readouterr().err == (
        "error: a random term would take more than %d draws at degree 2; shrink --algebra\n" % MAX_DRAWS
    )


# -- the matrix-iso size bound --------------------------------------------------------


@pytest.mark.parametrize("algebra", ["cw:12,2", "cw:16,2", "cw:1000,2"])
def test_matrix_iso_refuses_a_wide_fermi_count_before_any_work(algebra, capsys):
    # its independence check maps all 2^n Fermi words: cw:16,2 used to run for minutes
    start = time.perf_counter()
    assert cli.main(["--suite", "matrix-iso", "--algebra", algebra, "--cases", "1"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith(
        "error: matrix-iso takes at most %d Fermi generators" % suites.MATRIX_ISO_MAX_FERMI
    )


def test_matrix_iso_bound_is_in_the_readme_row():
    assert "at most %d Fermi generators" % suites.MATRIX_ISO_MAX_FERMI in _readme_rows()["matrix-iso"][0]
