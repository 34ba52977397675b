"""The 19 suite reports at seed 0, byte for byte, passing and failing.

Each digest in `REPORT_SHA256` is the sha256 of `report_bytes(run_suite(name))`
at default parameters.  A change that alters any report, even by reordering
keys or reformatting a coefficient, fails here; refactors of the arithmetic
and the matrix code must keep them.

Those reports all pass, so they never show a failure record.
`FAULTY_REPORT_SHA256` pins the reports under a deterministic fault instead:
every binding of `star` and `ore_product` in the package adds the unit to
the true product (the fault `bench/selftest.py` injects), with `cases=3`.
The brackets read their families' bracket kernels and call neither product,
so the suites that check only brackets pass under it; the bracket kernels'
own faults are pinned in `test_kernel_faults.py`.
"""

import hashlib
import sys

import pytest

from cliffordweyl import ore, starprod
from cliffordweyl.algebra import AlgebraSignature, bose_p, fermi_gen, unit
from cliffordweyl.periodicity import tensor_of, tensor_star
from cliffordweyl.starprod import wedge
from cliffordweyl.suites import report_bytes, run_suite, suite_names

REPORT_SHA256 = {
    "a0-iso": "d542df1543a3f119afe7e005efbd2ce275de7bb69f929362580a51745316b23c",
    "associativity": "7f905caf51c0f021bdd8a50e00ab20ba1cefc7f7edce251103fcd825334fbe7e",
    "center": "1bd27ffe43ca3fcf822ee2ff855bee02c50067d46228ae52ee6bff58c048d56a",
    "cocycle": "13f761035713be46b1b6f4ac6a9995377983b48025f257d09a479938e905ff66",
    "commutant": "2fdd682c3190ca9db0df16c4ee1d53397a87728c782c0141bf1bcd49a646d9c3",
    "ghost": "1e118b0c9b70d35bb82201f9da884538676f6d484876ba16548d0023ce7db193",
    "hochschild": "d32586643a535c7d1fe6163a6d9f4b15a117b070d6f7f653e78f097372d829ac",
    "matrix-iso": "dfb9c481077e00f01624787e0c0e4748a39ffdc1440063598804d81402bddd9b",
    "odd-split": "6c30bd92faadf396d471bca6777f29324754e358994f7f31eaa89753f9300dba",
    "ore-relations": "ba1927541076ccdebda452b1eb648fe83a9ef3cf466a8fcf3acc334093ea11cf",
    "osp22": "889536ffd2cdb3506fcd8fa1739f9b23010ae3698aef5c2fb0336c6038fdb0b0",
    "parastat": "ad70781fd76932271dfabfc90f7ccb58aa28a2026e29f86c8c2689003de102f6",
    "periodicity1": "191a919bea48b3388b04bfc0c24602725ba1431471cab12d4635e815bda2010e",
    "periodicity2": "fea5af8d83f77615b65263fa3c816b77ed8e15496a4e2ff05c177ec799c6d240",
    "pi-h": "8a496efd81f9856cfb42158efa8951b330a67f903c44903f419d2ee90944c8d6",
    "relations": "deb969c7afc82de282617c19bcd89381db5f0b49ec1a7c07d2889020d05264b7",
    "spin-lemma": "11d0ae269b96b8a4c3052d1a9493eac9e12a8ed903e7020238fe8bae25cb9b06",
    "twisted-adjoint": "46d6f58942ab285a8ac59453a3600e75f5e0a18d09dc6d26ec862995931924e7",
    "verma": "74a935078146a7475a2139fb30ba7d84efe7d32715a06b9adab92edce3ac64f4",
}


def test_digest_table_covers_every_suite():
    assert sorted(REPORT_SHA256) == suite_names()


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_bytes_unchanged(name):
    digest = hashlib.sha256(report_bytes(run_suite(name))).hexdigest()
    assert digest == REPORT_SHA256[name]


FAULTY_REPORT_SHA256 = {
    "a0-iso": "fc5151695ac1a7de26b9a15b5d2a91d34c51d91b25406a1b454d7c5bc97685ca",
    "associativity": "6a9b6cb4b9f299c0e74cb62a2dfa838eb07b69edb15d683aee12b8388422c9fc",
    "center": "1bd27ffe43ca3fcf822ee2ff855bee02c50067d46228ae52ee6bff58c048d56a",
    "cocycle": "9a8ff8d85efbba00361ab4626e99d3fc4d08103fd70a46e6b21339d8519c3175",
    "commutant": "2fdd682c3190ca9db0df16c4ee1d53397a87728c782c0141bf1bcd49a646d9c3",
    "ghost": "921118f3414684ff195712e36c04d41eaa321b216125fdeca444d8cd2dbf9bce",
    "hochschild": "28cd8631e9c8ea771de4f27ca14052fa7d6015ef9172efb59a66e7ea81bbea40",
    "matrix-iso": "43aabdc5d3b7470666a0010364c22cf4f7c269700e7b38e73c57a84b1de962c3",
    "odd-split": "adbda40e924c739c09379c263deff451e6f8ad06f95ef2230736b3b928245730",
    # 48 of 119 cases fail, all in the rank-0 normal forms of E-^beta E+^gamma
    # acting on z^m: the relations themselves are brackets
    "ore-relations": "a05dcf58f50b2871a62bf0119f2ed313c00f443410899af15bc62dd8586722c0",
    "osp22": "889536ffd2cdb3506fcd8fa1739f9b23010ae3698aef5c2fb0336c6038fdb0b0",
    "parastat": "ad70781fd76932271dfabfc90f7ccb58aa28a2026e29f86c8c2689003de102f6",
    "periodicity1": "d3a3b2390f1373e8f0ddabae2d5bc88811faebafa25505a736c10673b9f2375e",
    "periodicity2": "5f597c5c13e92b99fa4fd2040df9a1a92f7b9cda86a1029af423517fa8a4a94b",
    "pi-h": "8a496efd81f9856cfb42158efa8951b330a67f903c44903f419d2ee90944c8d6",
    "relations": "deb969c7afc82de282617c19bcd89381db5f0b49ec1a7c07d2889020d05264b7",
    "spin-lemma": "872843e823d8d7ee668a14f59a5655a737464b2ade025919e172e6e524a48cb9",
    "twisted-adjoint": "46d6f58942ab285a8ac59453a3600e75f5e0a18d09dc6d26ec862995931924e7",
    # 153 of 619 cases fail: the left sides act one generator at a time, and
    # only the right side L P of [E+,E-] + 1/4 is a product
    "verma": "7fbb7e83363301d6d1bf7429d934760cb84375dcf46845870d22ceee0a66413e",
}


def _replace_products(monkeypatch, wrap):
    """Rebind every package binding of `star` and `ore_product` to wrap(it)."""
    replaced = {f: wrap(f) for f in (starprod.star, ore.ore_product)}
    for name, mod in list(sys.modules.items()):
        if mod is None or name.partition(".")[0] != "cliffordweyl":
            continue
        for key, value in list(vars(mod).items()):
            if any(value is f for f in replaced):
                monkeypatch.setattr(mod, key, replaced[value])


@pytest.fixture
def faulty_products(monkeypatch):
    """Every package binding of `star` and `ore_product` adds the unit."""

    def wrong(product):
        if product is starprod.star:
            return lambda a, b: product(a, b) + unit(a.signature)
        return lambda x, y: product(x, y) + ore.ore_unit(x.n)

    _replace_products(monkeypatch, wrong)


def test_replaced_products_reach_every_product(monkeypatch):
    # bench/selftest.py swaps `star` and `ore_product` as these fixtures do and
    # relies on the swap reaching `*`; the brackets and the tensor slots read
    # the families' pair kernels, so they call neither product
    calls = []

    def recorded(product):
        def wrapper(a, b):
            calls.append(product.__name__)
            return product(a, b)

        return wrapper

    _replace_products(monkeypatch, recorded)
    sig = AlgebraSignature(1, 1)
    w, p = fermi_gen(sig, 1), bose_p(sig, 1)
    assert w * p == wedge(w, p)
    assert calls == ["star"]
    ep, em = ore.ore_e_plus(1), ore.ore_e_minus(1)
    assert ep * em == ore.ore_product(ep, em)
    assert calls == ["star"] + ["ore_product"] * 2
    del calls[:]
    starprod.lie_bracket(w, p), starprod.anti_bracket(w, p), starprod.super_bracket(w, p)
    ore.ore_lie_bracket(ep, em), ore.ore_anti_bracket(ep, em), ore.ore_super_bracket(ep, em)
    tensor_star(tensor_of(w, ep), tensor_of(w, em))
    assert calls == []


def test_faulty_digest_table_covers_every_suite():
    assert sorted(FAULTY_REPORT_SHA256) == suite_names()


@pytest.mark.parametrize("name", sorted(FAULTY_REPORT_SHA256))
def test_faulty_report_bytes_unchanged(name, faulty_products):
    # suites without a case count ignore `cases`
    result = run_suite(name, cases=3)
    # the commutators of `center` cancel the added unit; `pi-h` and `commutant`
    # check irrep matrices built by the closed-form `periodicity2_forward`,
    # which calls no product; `a0-iso` and `cocycle` transport through the
    # closed-form isos, which call no product either: the iso maps the added
    # unit to the unit on both sides of each check, and the cochain reads
    # the L^1 coefficient, past the unit, whose two copies in the coboundary
    # cancel (`test_transport.py` faults the iso itself); `osp22`, `parastat`,
    # `relations` and `twisted-adjoint` check brackets only, which call no
    # product, so their digests are the passing ones
    passing = ("a0-iso", "center", "cocycle", "pi-h", "commutant")
    passing += ("osp22", "parastat", "relations", "twisted-adjoint")
    assert result.passed == (name in passing)
    digest = hashlib.sha256(report_bytes(result)).hexdigest()
    assert digest == FAULTY_REPORT_SHA256[name]
