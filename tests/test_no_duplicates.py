"""No function is written twice: a guard against the next copied helper.

Two functions of four or more lines in `src/` or `tests/` may not share
their arguments and body, their names and docstrings aside.  A helper that
two test files need lives once in a helper module, as `sampling.py` and
`faults.py` do.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_LINES = 4


def _shape(fn):
    """The AST text of fn's arguments and body, its docstring left out."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    return ast.dump(fn.args) + "".join(map(ast.dump, body))


def test_no_two_functions_share_a_body():
    seen = defaultdict(list)
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.end_lineno - node.lineno + 1 >= MIN_LINES:
                    seen[_shape(node)].append("%s:%d %s" % (path.relative_to(ROOT), node.lineno, node.name))
    copies = [places for places in seen.values() if len(places) > 1]
    assert not copies, "functions written more than once: %s" % copies
