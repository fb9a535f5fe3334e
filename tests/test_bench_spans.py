"""The benchmark's traced run wraps the program's functions by name."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
PACKAGE = ROOT / "src" / "contextgraph"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # a traced run replaces each (module, attribute) of TARGETS with a
    # wrapper; a name the program no longer has fails that run
    spans = load_spans()
    assert spans.TARGETS
    for module, attr, _, _ in spans.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_imports_kept_for_the_tracer_are_traced():
    # a module imports a name it never calls, marked `# noqa: F401`, only so
    # that the traced run can wrap it there; once TARGETS stops wrapping the
    # name on that module, this names the import to delete
    traced = {(module.__name__, attr) for module, attr, _, _ in load_spans().TARGETS}
    kept = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        module = "contextgraph" + ("" if path.stem == "__init__" else f".{path.stem}")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                kept.extend((module, alias.asname or alias.name)
                            for alias in node.names
                            if "# noqa: F401" in lines[alias.lineno - 1])
    assert kept
    assert [name for name in kept if name not in traced] == []
