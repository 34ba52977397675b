"""`cliffordweyl` with a wrong star and ore_product, for the benchmark's self-test.

    PYTHONPATH=src python3 bench/faulty_cli.py [cliffordweyl arguments]
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from cliffordweyl import cli  # noqa: E402
from layers import inject_faults  # noqa: E402

if __name__ == "__main__":
    inject_faults()
    raise SystemExit(cli.main())
