"""The 19 suite reports at seed 0, byte for byte, passing and failing.

Each digest in `REPORT_SHA256` is the sha256 of `report_bytes(run_suite(name))`
at default parameters.  A change that alters any report, even by reordering
keys or reformatting a coefficient, fails here; refactors of the arithmetic
and the matrix code must keep them.

Those reports all pass, so they never show a failure record.
`FAULTY_REPORT_SHA256` pins the reports under a deterministic fault instead:
every binding of `star` and `ore_product` in the package adds the unit to
the true product (the fault `bench/selftest.py` injects), with `cases=3`.
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
    "ore-relations": "9735dbb4cb49bb628cb73c4f0771414956826b057bc15c9228cdd52970fb1df3",
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
    "a0-iso": "37517c4429f18a929d97b15afcd9d2959b5adfec015f0baa209a6447f990d9a0",
    "associativity": "6a9b6cb4b9f299c0e74cb62a2dfa838eb07b69edb15d683aee12b8388422c9fc",
    "center": "1bd27ffe43ca3fcf822ee2ff855bee02c50067d46228ae52ee6bff58c048d56a",
    "cocycle": "48637fe047c1e3c6e1d9d564044d526763ef75beab0f09f820d69af9fe2c1997",
    "commutant": "f8f9d882d4249ef23a8d2bee9210c420fb044e80b727da7d25ae1939c32919dc",
    "ghost": "b212a26a95c6dc59701459c0aadc54efac2e0a4eca9a289b83f6c85b96591442",
    "hochschild": "ce19d61dc975c978adccc2a794af9e9ae536de960502f222716ab6052614a96a",
    "matrix-iso": "514bedcb4498fc47fa207d67bb2596b80888dc1aedfca718af71b6bd1d224e20",
    "odd-split": "607f645b0ec9be2499b9d320322fd671de8a983a48b074548c7403884a7138e5",
    "ore-relations": "08d9b6293eb0c4363a64242c2aa6e1fcf87919c5fba99acaa375130199c94a29",
    "osp22": "661e2a82a074726a7e316a691bb69ea62ff5af87147f565e473d045910c4c0c9",
    "parastat": "6a4d8227f0bc9f0a3542f8a5ff73ead774707c0ff95f96a300cdb1ed100fd623",
    "periodicity1": "06eec58678efbca425e3749de7c7f440270eb84552ef548c5b9fa7b738aed32a",
    "periodicity2": "581557765cf99ef780c9bd9508ab028f7d6f3200060c0360adcbd1ba3fd6eef8",
    "pi-h": "f400da720255e403632c51d890a7f7ba7e993cca6482a012289233aa8234c45d",
    "relations": "3ef611a2eb14f2a7ad590b8e52dd4afd25de86b5891007e0b1943f7a25170b9f",
    "spin-lemma": "872843e823d8d7ee668a14f59a5655a737464b2ade025919e172e6e524a48cb9",
    "twisted-adjoint": "de6bbccdf53c9603abd2238cda2d6affa84175874f3f4995aec04403877bf833",
    "verma": "0d486177e1d3693b84580a9f8d0d6b2464dda3d2da5b49d1b24bca4bf78baeeb",
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
    # relies on the swap reaching `*`, the brackets and the tensor slots
    calls = []

    def recorded(product):
        def wrapper(a, b):
            calls.append(product.__name__)
            return product(a, b)

        return wrapper

    _replace_products(monkeypatch, recorded)
    sig = AlgebraSignature(1, 1)
    assert fermi_gen(sig, 1) * bose_p(sig, 1) == wedge(fermi_gen(sig, 1), bose_p(sig, 1))
    assert calls == ["star"]
    ep, em = ore.ore_e_plus(1), ore.ore_e_minus(1)
    assert ep * em == ore.ore_product(ep, em)
    ore.ore_lie_bracket(ep, em)
    assert calls == ["star"] + ["ore_product"] * 4
    del calls[:]
    tensor_star(tensor_of(fermi_gen(sig, 1), ep), tensor_of(fermi_gen(sig, 1), em))
    assert sorted(calls) == ["ore_product", "star"]


def test_faulty_digest_table_covers_every_suite():
    assert sorted(FAULTY_REPORT_SHA256) == suite_names()


@pytest.mark.parametrize("name", sorted(FAULTY_REPORT_SHA256))
def test_faulty_report_bytes_unchanged(name, faulty_products):
    # suites without a case count ignore `cases`
    result = run_suite(name, cases=3)
    # the commutators of `center` cancel the added unit
    assert result.passed == (name == "center")
    digest = hashlib.sha256(report_bytes(result)).hexdigest()
    assert digest == FAULTY_REPORT_SHA256[name]
