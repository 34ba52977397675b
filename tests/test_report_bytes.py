"""The 19 suite reports at seed 0 and default parameters, byte for byte.

Each digest is the sha256 of `report_bytes(run_suite(name))`.  A change that
alters any report, even by reordering keys or reformatting a coefficient,
fails here; refactors of the arithmetic and the matrix code must keep them.
"""

import hashlib

import pytest

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
