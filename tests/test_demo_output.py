"""The five demos' stdout, byte for byte.

Each digest is the sha256 of a demo's stdout, run as a script in a fresh
interpreter with the checkout's `src/` on the path.  The output does not
depend on the hash seed, so a change that alters any printed element,
matrix or report line fails here.
"""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")

DEMO_SHA256 = {
    "01_star_product_basics.py": "722eb33edf591a9b981b68505d65be3b31f6eb61b257cd13f0f3ed866df3293c",
    "02_representations.py": "b275596e42d4ef8382d0cb367a519ba6e344f87ef4196437308290701a3d8a38",
    "03_periodicity.py": "922e3a577a28996702e3e4c2a9aed7c91cf834b7e329658cd1688d482b9a4806",
    "04_degree_one_bracket_algebra.py": "1cafd1baaff9ed5f28ca6407534d7fff8afbb7e3d8c37d0cf9817612c3208f68",
    "05_deformed_family.py": "518a3d122f5239f8b7bdb0261a6ffa49be02f07091a250fd7e4846ad06f1b4b3",
}


def test_digest_table_covers_every_demo():
    assert sorted(DEMO_SHA256) == sorted(f for f in os.listdir(DEMOS) if f.endswith(".py"))


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_stdout_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "7"
    out = subprocess.run(
        [sys.executable, os.path.join(DEMOS, name)],
        capture_output=True,
        env=env,
        cwd=ROOT,
        check=True,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_SHA256[name]
