"""Stdlib-only lints: the package imports only the standard library, every
module of the package uses each name it imports, and everything the package
defines, self attributes included, is read by the package itself."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eulerlab"
# The benchmark's tracer names package functions in strings such as
# "jsonio.document_to_polytope", so those count as uses too.
PERFBENCH = ROOT / "perfbench" / "run.py"


def _annotation_strings(tree: ast.AST):
    """String annotations such as -> "Hyperplane", parsed as expressions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a]
            annotations = [a.annotation for a in every] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for ann in annotations:
            for sub in ast.walk(ann) if ann else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield ast.parse(sub.value, mode="eval")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for root in [tree, *_annotation_strings(tree)]:
        used |= {n.id for n in ast.walk(root) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def absolute_imports(source: str) -> list[str]:
    """The top-level module of every absolute import in the source."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_finds_absolute_imports_only():
    source = "import os.path, hypothesis as h\nfrom . import linalg\nfrom json import dumps\n"
    assert absolute_imports(source) == ["os", "hypothesis", "json"]


def test_package_imports_only_the_standard_library():
    # The runtime has no dependency outside the standard library.
    outside = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in absolute_imports(path.read_text())
        if name not in sys.stdlib_module_names
    ]
    assert outside == []


def test_detects_unused_import():
    source = "from typing import Optional, Union\nimport math\nx: Optional[int] = math.pi\n"
    assert unused_imports(source) == ["line 1: Union"]


def test_counts_string_annotations_as_use():
    source = "from a import B\ndef f() -> 'B':\n    pass\n"
    assert unused_imports(source) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def definitions(tree: ast.AST):
    """Functions, methods and classes defined in a module, dunders aside."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.lineno, node.name


def attributes_stored(tree: ast.AST):
    """Attributes that methods set on self, as `self.X = ...`."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            yield node.lineno, node.attr


def names_used(tree: ast.AST) -> set[str]:
    """Names read (loaded) as variables or attributes, string annotations
    included; a store is no use."""
    used = set()
    for root in [tree, *_annotation_strings(tree)]:
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


def attributes_read(tree: ast.AST) -> set[str]:
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unnamed_in(trees: dict[str, ast.AST], perfbench: str) -> list[str]:
    """Definitions that no module of the package names, and self attributes
    that none reads as an attribute, unless a string of the benchmark names
    them."""
    named = set()
    for node in ast.walk(ast.parse(perfbench)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            named.update(re.findall(r"\w+", node.value))
    used = named.union(*map(names_used, trees.values()))
    read = named.union(*map(attributes_read, trees.values()))
    return [
        f"{name}:{line} {defined}"
        for name, tree in trees.items()
        for line, defined in definitions(tree)
        if defined not in used
    ] + [
        f"{name}:{line} {attr}"
        for name, tree in trees.items()
        for line, attr in attributes_stored(tree)
        if attr not in read
    ]


def test_a_stored_attribute_needs_a_reader():
    source = """\
class A:
    def __init__(self):
        self.kept = 1
        self.read = 2

    def f(self):
        self.kept = self.read


A().f()
"""
    assert unnamed_in({"a.py": ast.parse(source)}, "") == ["a.py:3 kept", "a.py:7 kept"]


def test_every_definition_is_named_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert unnamed_in(trees, PERFBENCH.read_text()) == []
