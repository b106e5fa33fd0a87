"""No dead definitions in the library: every module-level function and every
method of src/fskel is used by the library, by the benchmark harness, or
is part of the package's exported API."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "fskel").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))


def _exported() -> set[str]:
    tree = ast.parse((ROOT / "src" / "fskel" / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _texts_without(path: Path, node: ast.AST, texts: dict[Path, str]) -> list[str]:
    """Every text, with the lines of node's own definition cut from its
    module's, so a function that only calls itself is not counted as used."""
    lines = texts[path].splitlines()
    own = "\n".join(lines[:node.lineno - 1] + lines[node.end_lineno:])
    return [own if p == path else text for p, text in texts.items()]


def _unused() -> list[str]:
    texts = {p: p.read_text() for p in READERS}
    exported = _exported()
    unused = []
    for path in SOURCES:
        for node in ast.parse(texts[path]).body:
            if isinstance(node, ast.FunctionDef) and node.name not in exported:
                named = re.compile(rf"\b{node.name}\b")
                if not any(named.search(t) for t in _texts_without(path, node, texts)):
                    unused.append(f"{path.name}:{node.name}")
            elif isinstance(node, ast.ClassDef):
                for m in node.body:
                    if not isinstance(m, ast.FunctionDef):
                        continue
                    if m.name.startswith("__") and m.name.endswith("__"):
                        continue  # called by the language, not by name
                    called = re.compile(rf"\.{m.name}\b")
                    if not any(called.search(t) for t in _texts_without(path, m, texts)):
                        unused.append(f"{path.name}:{node.name}.{m.name}")
    return unused


def test_every_function_and_method_is_used():
    # a module-level function is named outside its own definition in
    # src/fskel or bench/*.py, or exported by fskel/__init__.py; a method
    # is called as .name outside its own definition there
    assert _unused() == []
