"""The package namespace: its exported names, the `--help` text, lazy loading.

`PUBLIC_NAMES` lists, by the submodule that provides them, the 122 names
that `cliffordweyl` exports, and `HELP_SHA256` is the sha256 of
`cliffordweyl --help` at 80 columns; both were recorded while the package
still imported every submodule eagerly.  Five names have left since:
`to_star_words`, with the star-word expansion that `act` no longer uses;
`PolyOperator` and `verma_operator`, with the generator-by-generator
polynomial action that `verma_apply` replaced by its closed form; and
`ProductKind` and `periodicity2`, two selectors that only picked a function
their caller could name directly (`wedge` or `star`, and
`periodicity2_forward` or `periodicity2_inverse`).  The package now loads a submodule when one of its names is first read, so an
expression evaluated by the CLI does not import the verification suites or
the modules only they need.

No module of the package imports a name it never reads, unless the package
exports that name from it, and every module-level function is exported or
read, directly or through other such functions, by exported code or by
module-level code outside a function.  The text writer keeps no state
between calls: `textform` binds no dict, list or set at module level and
caches no function.  Every cache in the package is a kernel declared by
`sparse.kernel` and registered in `sparse.KERNELS`: no other code imports or
reads a functools cache.  Only the modules that hold cw coefficients name
`Scalar`, its constants or its coercion.
"""

import ast
import hashlib
import importlib
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import cliffordweyl
from cliffordweyl import cli
from cliffordweyl.sparse import KERNELS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PUBLIC_NAMES = {
    "scalars": "GaussianRational Scalar",
    "algebra": "AlgebraError AlgebraSignature BiDegree CwElement CwMonomial SignatureMismatch"
    " bidegree bose_p bose_q canonicalize fermi_gen generators scalar_element unit z_degree zero",
    "starprod": "anti_bracket lie_bracket poisson star super_bracket supertrace_weyl"
    " trace_clifford wedge",
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
    "deform": "center_probe commutant_probe compare_cocycle cw_odd_signature"
    " deformation_cochain_c1 finite_irrep_pi_h ghost_identities iso_a0_to_cw iso_cw_to_a0"
    " ore_to_matrix osp22_check periodicity2_forward periodicity2_inverse"
    " pi_h_lambda pi_h_matrix verma_apply volume_word_element",
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
    assert len(ALL_NAMES) == 122
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


def _unread_imports(path):
    """The names a module's imports bind and its code never reads."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_no_module_imports_a_name_it_never_reads():
    package = pathlib.Path(cliffordweyl.__file__).parent
    unread = {}
    for path in sorted(package.glob("*.py")):
        module = path.stem
        names = _unread_imports(path) - set(PUBLIC_NAMES.get(module, "").split())
        if names:
            unread[module] = sorted(names)
    assert unread == {}


def _reads(node):
    """The names and attribute names that the code under `node` reads."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_every_src_function_is_exported_or_read():
    # names are matched without their module, so a helper that shares its
    # name with a live function goes unseen; dunders are interpreter hooks
    package = pathlib.Path(cliffordweyl.__file__).parent
    functions, live = {}, set(ALL_NAMES)
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                functions[path.stem, node.name] = _reads(node)
                if node.name.startswith("__"):
                    live.add(node.name)
            else:
                live |= _reads(node)
    size = None
    while size != len(live):
        size = len(live)
        for (_module, name), names in functions.items():
            if name in live:
                live |= names
    assert sorted(key for key in functions if key[1] not in live) == []


def _container_bindings(tree):
    """Module-level statements of `tree` that bind a dict, list or set."""
    containers = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
    for node in tree.body:  # a class that subclasses a container makes containers too
        if isinstance(node, ast.ClassDef) and any(_reads(b) & containers for b in node.bases):
            containers.add(node.name)
    displays = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            value = node.value
            call = isinstance(value, ast.Call) and _reads(value.func) & containers
            if isinstance(value, displays) or call:
                found.append(ast.unparse(node))
    return found


def test_text_writer_keeps_no_state_between_calls():
    tree = ast.parse((pathlib.Path(cliffordweyl.__file__).parent / "textform.py").read_text())
    assert _container_bindings(tree) == []
    # it declares no kernel, and `test_every_cache_is_a_declared_kernel`
    # finds any other cache
    importlib.import_module("cliffordweyl.textform")
    assert [name for name in KERNELS if name.startswith("textform.")] == []
    # the check sees what it looks for
    probe = ast.parse("class T(dict): pass\nA = {}\nB: list = []\nC = set()\nD = T(f)\n")
    assert len(_container_bindings(probe)) == 4


# the functools caches; `cache` is a common local name, so it is matched
# only as an import or as `functools.cache`
_CACHES = {"lru_cache", "cache", "cached_property"}


def _cache_sites(tree, keeper=None):
    """Lines where `tree` imports or reads a functools cache, other than the
    `lru_cache` that the module-level function `keeper` is given and reads."""
    kept = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == keeper]
    inside = {id(sub) for node in kept for sub in ast.walk(node)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found = {alias.name for alias in node.names} & _CACHES - ({"lru_cache"} if kept else set())
        elif isinstance(node, ast.Attribute):
            found = node.attr in _CACHES - {"cache"} or node.attr == "cache" and ast.unparse(node.value) == "functools"
        else:
            found = isinstance(node, ast.Name) and node.id in _CACHES - {"cache"} and id(node) not in inside
        if found:
            lines.append(node.lineno)
    return sorted(lines)


def test_every_cache_is_a_declared_kernel():
    sites = {}
    for path in pathlib.Path(cliffordweyl.__file__).parent.glob("*.py"):
        keeper = "kernel" if path.stem == "sparse" else None
        sites[path.stem] = _cache_sites(ast.parse(path.read_text()), keeper)
    assert {module: lines for module, lines in sites.items() if lines} == {}
    # every module is loaded before the registry is read
    modules = [importlib.import_module("cliffordweyl." + info.name) for info in pkgutil.iter_modules(cliffordweyl.__path__)]
    kernels = {id(kernel) for kernel in KERNELS.values()}
    for module in modules:
        undeclared = [name for name, v in vars(module).items() if hasattr(v, "cache_info") and id(v) not in kernels]
        assert undeclared == [], module.__name__
    # the scan sees what it looks for
    probe = ast.parse(
        "from functools import lru_cache, cache, wraps\nimport functools\n@lru_cache(None)\ndef f(): pass\n"
        "@functools.cache\ndef g(): pass\nclass C:\n    @functools.cached_property\n    def h(self): pass\n"
        "import functools as ft\nk = ft.lru_cache(8)(len)\ncache = {}\nx = cache.get(1)\n"
    )
    assert _cache_sites(probe) == [1, 3, 5, 8, 11]
    assert _cache_sites(probe, "f") == [1, 5, 8, 11]


# the modules that hold cw coefficients as polynomials in L; every other
# module passes plain numbers, which the containers coerce, and reads a
# number off a coefficient through `Scalar.constant()`
SCALAR_HOLDERS = {"scalars", "algebra", "linalg", "periodicity", "reps", "starprod"}


def _is_scalar_name(name):
    return name in ("Scalar", "_coerce_scalar") or name.startswith("S_")


def _scalar_names(tree):
    """`Scalar`, the S_* constants and `_coerce_scalar`, where `tree` imports
    them from the package's `scalars` module or reads them off it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module, node.level) in (
            ("scalars", 1),
            ("cliffordweyl.scalars", 0),
        ):
            found |= {alias.name for alias in node.names if _is_scalar_name(alias.name)}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "scalars" and _is_scalar_name(node.attr):
                found.add(node.attr)
    return found


def test_only_the_coefficient_holders_name_scalar():
    package = pathlib.Path(cliffordweyl.__file__).parent
    importers, naming = {}, 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        names = _scalar_names(ast.parse(text))
        if names:
            importers[path.stem] = sorted(names)
        if path.stem != "scalars":
            naming += sum(bool(re.search(r"\bScalar\b", line)) for line in text.splitlines())
    assert set(importers) - SCALAR_HOLDERS == set(), importers
    assert naming <= 20
    # the check sees what it looks for
    probe = ast.parse(
        "from .scalars import S_ONE, gaussian\nfrom cliffordweyl.scalars import Scalar\n"
        "from . import scalars\nscalars._coerce_scalar(1)\nscalars.i_power(1)\n"
    )
    assert _scalar_names(probe) == {"S_ONE", "Scalar", "_coerce_scalar"}


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
