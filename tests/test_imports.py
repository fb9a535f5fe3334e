"""Every name a package module imports is used, or marked as kept on purpose.

No linter ships with the project, so this parses each module under
src/contextgraph with ast. An imported name counts as used when the module
reads it anywhere or lists it in __all__; an import kept for another reason
carries `# noqa: F401` on the line that names it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "contextgraph"


def unused_imports(source):
    """(line, name) of every imported name the module never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_and_honours_noqa():
    source = ("import os\n"
              "import sys  # noqa: F401\n"
              "import numpy as np\n"
              "from json import (dumps,\n"
              "                  loads)\n"
              "__all__ = ['dumps']\n"
              "np.zeros(1)\n")
    assert unused_imports(source) == [(1, "os"), (5, "loads")]
