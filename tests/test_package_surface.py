"""The package namespace: its exported names, the `--help` text, lazy loading.

`PUBLIC_NAMES` lists, by the submodule that provides them, the 127 names
that `cliffordweyl` exports, and `HELP_SHA256` is the sha256 of
`cliffordweyl --help` at 80 columns; both were recorded while the package
still imported every submodule eagerly.  The package now loads a submodule
when one of its names is first read, so an expression evaluated by the CLI
does not import the verification suites or the modules only they need.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys

import pytest

import cliffordweyl
from cliffordweyl import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PUBLIC_NAMES = {
    "scalars": "GaussianRational Scalar",
    "algebra": "AlgebraError AlgebraSignature BiDegree CwElement CwMonomial SignatureMismatch"
    " bidegree bose_p bose_q canonicalize fermi_gen generators scalar_element unit z_degree zero",
    "starprod": "ProductKind anti_bracket lie_bracket poisson star super_bracket supertrace_weyl"
    " to_star_words trace_clifford wedge",
    "linalg": "Matrix MatrixError sparse_nullspace sparse_rank sparse_rref",
    "osp": "OspContext build_g expected_dimension form twisted_adjoint verify_invariance verify_ps",
    "periodicity": "TensorElement cw_to_matrix matrix_star module_transport odd_join"
    " odd_projections odd_split periodicity1_forward periodicity1_inverse tensor_of tensor_star"
    " volume_involution",
    "reps": "GrassPolyVector RepDescriptor RepKind act clifford_op_to_symbol metaplectic"
    " rep_matrix spin spin_metaplectic spin_metaplectic_minus spin_metaplectic_plus spin_minus"
    " spin_plus spin_rep_odd_sign_check",
    "ore": "OreElement OreMonomial ghost_theta ore_anti_bracket ore_e_minus ore_e_plus ore_fermi"
    " ore_generators ore_lambda ore_lie_bracket ore_product ore_relations_report ore_scalar"
    " ore_super_bracket ore_unit ore_zero specialize specialized_product",
    "deform": "PolyOperator center_probe commutant_probe compare_cocycle cw_odd_signature"
    " deformation_cochain_c1 finite_irrep_pi_h ghost_identities iso_a0_to_cw iso_cw_to_a0"
    " ore_to_matrix osp22_check periodicity2 periodicity2_forward periodicity2_inverse"
    " pi_h_lambda pi_h_matrix verma_apply verma_operator volume_word_element",
    "hochschild": "CochainEvaluator coboundary cochain_from_element d_squared_check element_tag"
    " identity_cochain is_cocycle multiplication_cochain relative_normalized_check",
    "exprs": "CwContext OreContext ParseError evaluate evaluate_text parse parse_algebra"
    " print_expr tokenize",
    "suites": "SuiteResult SuiteUsageError report_bytes run_suite suite_names",
}
ALL_NAMES = sorted(name for names in PUBLIC_NAMES.values() for name in names.split())

HELP_SHA256 = "b83dea9fa00f7eb014856e8f12607e75cbcae7db1cc307f54a1801161744db1f"

# loaded only by the suites and by direct imports, never by an expression
SUITE_ONLY = ("suites", "deform", "periodicity", "osp", "hochschild", "linalg", "reps")


def test_public_names_are_pinned():
    assert len(ALL_NAMES) == 127
    assert sorted(cliffordweyl.__all__) == ALL_NAMES
    assert set(ALL_NAMES) <= set(dir(cliffordweyl))


@pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
def test_names_resolve_to_their_submodule_objects(module):
    source = importlib.import_module("cliffordweyl." + module)
    for name in PUBLIC_NAMES[module].split():
        assert getattr(cliffordweyl, name) is getattr(source, name), name


def test_submodules_and_unknown_names():
    for module in ("sparse", "textform", *PUBLIC_NAMES):
        assert getattr(cliffordweyl, module) is importlib.import_module("cliffordweyl." + module)
    assert not hasattr(cliffordweyl, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        cliffordweyl.no_such_name  # noqa: B018
    assert cliffordweyl.__version__ == "0.1.0"


def test_names_follow_a_patched_and_restored_submodule(monkeypatch):
    from cliffordweyl import starprod

    def fake(a, b):
        return a

    real = starprod.star
    with monkeypatch.context() as patch:
        patch.setattr(starprod, "star", fake)
        assert cliffordweyl.star is fake
    assert starprod.star is real
    assert cliffordweyl.star is starprod.star


def test_help_bytes_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as err:
        cli.main(["--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == HELP_SHA256


def _child_modules(call):
    """Run `call` in a fresh interpreter; its stdout and the package modules it loaded."""
    code = (
        "import json, sys\n"
        "%s\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('cliffordweyl'))))"
        % call
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout.splitlines()
    return out[:-1], {m.partition(".")[2] for m in json.loads(out[-1])}


def test_import_loads_no_submodule():
    _, loaded = _child_modules("import cliffordweyl")
    assert loaded == {""}


def test_expression_child_skips_the_suite_modules():
    out, loaded = _child_modules(
        "from cliffordweyl import cli\n"
        "assert cli.main(['--algebra', 'cw:0,2', 'p1*q1']) == 0"
    )
    assert out == ["1/2 + p1 q1"]
    assert {"cli", "exprs", "algebra", "starprod"} <= loaded
    assert loaded.isdisjoint(SUITE_ONLY)


def test_suite_child_loads_the_suites():
    out, loaded = _child_modules(
        "from cliffordweyl import cli\n"
        "assert cli.main(['--suite', 'relations', '--algebra', 'cw:1,2']) == 0"
    )
    assert json.loads("\n".join(out))["pass"] is True
    assert set(SUITE_ONLY) <= loaded
