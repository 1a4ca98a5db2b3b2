"""Every name that a `cvplab` module imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cvplab"


def _unused_imports(source: str) -> list[str]:
    """The names bound by the imports of `source` that no expression reads.

    `from __future__` imports bind no name; `import a.b` binds `a`.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_an_orphaned_import():
    source = ("from __future__ import annotations\nimport csv\nimport os.path\n"
              "from pathlib import Path\nfrom numpy import abs as magnitude\n"
              "def f(p: Path):\n    return os.path.join(str(p), 'x')\n")
    assert _unused_imports(source) == ["csv", "magnitude"]


# __init__.py imports only to re-export
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []
