"""Every source file parses under the Python 3.10 grammar.

The package supports Python 3.10 (``requires-python``), so neither the
package, its tests nor its demos may use newer syntax such as ``except*``.
``ast.parse`` with ``feature_version=(3, 10)`` checks that on any newer
interpreter, without a 3.10 one.
"""

import ast
from pathlib import Path

import pytest

import genmeas

SRC = Path(genmeas.__file__).parent
TESTS = Path(__file__).parent
DEMOS = TESTS.parent / "demos"


def parses_as_3_10(source: str) -> bool:
    try:
        ast.parse(source, feature_version=(3, 10))
    except SyntaxError:
        return False
    return True


def test_sources_parse_as_python_3_10():
    demos = sorted(DEMOS.glob("*.py"))
    assert len(demos) >= 3
    sources = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")) + demos
    assert len(sources) > 20
    rejected = [path.name for path in sources if not parses_as_3_10(path.read_text())]
    assert rejected == [], f"syntax newer than Python 3.10 in {rejected}"


@pytest.mark.parametrize("code, ok", [
    ("try:\n    pass\nexcept* ValueError:\n    pass\n", False),
    ("try:\n    pass\nexcept ValueError:\n    pass\n", True),
    ("match 1:\n    case _:\n        pass\n", True),
])
def test_grammar_check_rejects_newer_syntax(code, ok):
    assert parses_as_3_10(code) == ok
