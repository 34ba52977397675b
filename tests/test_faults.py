"""The fault matrix (under each fault of `faults.FAULTS` the suites that do not
pass are exactly its pin), the registry's self-check, which a renamed target
fails loudly, a guard that keeps every fault and refusal on its finder, and
one that `inject` leaves every cache of the package empty."""

import ast
from pathlib import Path

import pytest
from faults import FAULTS, bindings, failing_suites, inject, resolve

from cliffordweyl import starprod
from cliffordweyl.sparse import KERNELS
from cliffordweyl.suites import suite_names

LAYERS = {"products", "brackets", "transports", "writer", "weight module", "linear algebra"}


@pytest.mark.parametrize("name", FAULTS)
def test_fault_matrix(name, monkeypatch):
    inject(monkeypatch, name)
    assert failing_suites(**FAULTS[name].params) == FAULTS[name].pin


@pytest.mark.parametrize("name", FAULTS)
def test_every_target_resolves_and_is_replaced(name, monkeypatch):
    fault = FAULTS[name]
    assert fault.layer in LAYERS and fault.params in ({}, {"cases": 3}) and set(fault.pin) <= set(suite_names())
    targets = fault.target.split()
    reals = [getattr(*resolve(target)) for target in targets]
    inject(monkeypatch, name)
    for target, real in zip(targets, reals):
        assert getattr(*resolve(target)) is not real
        # a function target keeps no binding of the real function
        assert ":" in target or not bindings(real)


def test_every_cache_is_emptied_around_a_fault():
    # a cache that `inject` does not empty serves a correct entry under a
    # fault, or a faulty one after it.  `cliff-parity` rebinds a cached
    # kernel, so its real cache is bound only outside the fault.
    caches = list(KERNELS.values())

    def sizes():
        return [cache.cache_info().currsize for cache in caches] + [len(starprod._weyl_word_cache)]

    failing_suites(cases=1)
    assert all(sizes())
    with pytest.MonkeyPatch.context() as patch:
        inject(patch, "cliff-parity")
        assert not any(sizes())
        failing_suites(cases=1)
        assert all(sizes())
    assert not any(sizes())


def test_every_layer_has_a_fault():
    assert len(FAULTS) == 20 and {fault.layer for fault in FAULTS.values()} == LAYERS


def test_no_test_but_the_registry_lists_bindings():
    # no call of sys.modules.items(), no patch of an owner that is not an
    # import (a loop variable), and no attribute patched on two owners
    for path in sorted(Path(__file__).parent.glob("*.py")):
        if path.name == "faults.py":
            continue
        tree = ast.parse(path.read_text())
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        imports = {alias.asname or alias.name for n in imports for alias in n.names}
        owners = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                assert ast.unparse(node.func) != "sys.modules.items", (path.name, node.lineno)
                if node.func.attr == "setattr":
                    owner, attr = node.args[:2]
                    assert not isinstance(owner, ast.Name) or owner.id in imports, (path.name, node.lineno)
                    owners.setdefault(ast.unparse(attr), set()).add(ast.unparse(owner))
        assert all(len(o) == 1 for o in owners.values()), (path.name, owners)
