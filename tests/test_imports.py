"""Every name a module under src/emrcache/ or tests/ imports is referenced in it.

`from __future__` imports are exempt. perfbench/ is not scanned: its
`import emrcache` is there to be timed.
"""

import ast
import pathlib

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_MODULES = sorted([*(_ROOT / "src" / "emrcache").glob("*.py"), *(_ROOT / "tests").glob("*.py")])


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`.
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: str(path.relative_to(_ROOT)))
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nfrom re import match as m\nos\n"
    assert _unused_imports(source) == ["m"]
