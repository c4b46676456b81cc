"""Every name a `vqs` module imports is used in that module, and every function,
class and method `vqs` defines is referenced by `vqs` itself or by perfbench, not
only by the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vqs"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# Definitions that neither src nor perfbench names in code, each with the reason it stays.
KEPT_UNREFERENCED = {
    ("masks.py", "mask_iou"): "perfbench's TRACED wraps it by name, given as a string",
    ("pipeline.py", "amg_weights"): "reserved for the decision trace of the AMG weights (ROADMAP item 5)",
}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other node of `source` reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_detector_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]
    assert unused_imports("from typing import Optional as Opt\nx: Opt[int] = None\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def definitions(source: str) -> list[tuple[str, int, bool]]:
    """Module-level functions and classes, and the methods of those classes,
    except dunders, as (name, line, is_method)."""
    found = []
    for node in ast.parse(source).body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for item in [node, *members]:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (item.name.startswith("__") and item.name.endswith("__")):
                    found.append((item.name, item.lineno, item is not node))
    return found


def referenced_names(sources: list[str]) -> tuple[set[str], set[str]]:
    """The names read as variables and the names read as attributes (`.name`)
    anywhere in `sources`."""
    variables, attributes = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                variables.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return variables, attributes


def unreferenced(source: str, refs: tuple[set[str], set[str]]) -> list[tuple[str, int]]:
    """Definitions of `source` that `refs` (from `referenced_names`) never name; a
    method counts only when read as an attribute, since a local variable of the
    same name is not it."""
    variables, attributes = refs
    return [(name, line) for name, line, is_method in definitions(source)
            if name not in attributes and (is_method or name not in variables)]


def test_detector_finds_an_unreferenced_definition():
    source = ("class A:\n    def used(self): pass\n    def idle(self): pass\n"
              "    def shadowed(self): pass\n    def __repr__(self): return ''\n"
              "def helper(): pass\ndef orphan(): pass\n")
    uses = "A().used()\nhelper()\nshadowed = 1\nprint(shadowed)\n"
    assert unreferenced(source, referenced_names([source, uses])) == [("idle", 3), ("shadowed", 4), ("orphan", 7)]


def test_every_definition_is_referenced():
    # a definition only the tests name is dead code that the tests keep alive
    files = [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    refs = referenced_names([p.read_text() for p in files])
    defined = {(path.name, name): line for path in MODULES for name, line, _ in definitions(path.read_text())}
    dead = [f"{path.name}:{line}: {name}" for path in MODULES
            for name, line in unreferenced(path.read_text(), refs)
            if (path.name, name) not in KEPT_UNREFERENCED]
    assert dead == []
    assert [key for key in KEPT_UNREFERENCED if key not in defined] == []
