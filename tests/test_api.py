"""The library's public surface is used by the library itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "carnot"

# public names the library does not read: the left-invariance and uniqueness
# checks behind acceptance criteria 7 and 11, which no command runs yet, and
# the dense frame that the tests and the benchmark compare against
ALLOWED = {"check_left_invariance", "verify_uniqueness", "vector_field_coeffs"}


def _definitions(tree):
    """(name, node) of every public module-level function and class, and of
    every public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item.name, item


def _reads(tree):
    """(name, node) of every name or attribute read; an import or an
    `__all__` entry is not a read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node


def test_every_public_name_is_read_outside_its_definition():
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    reads = {}
    for tree in trees:
        for name, node in _reads(tree):
            reads.setdefault(name, []).append(id(node))
    unused = []
    for tree in trees:
        for name, definition in _definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if name not in ALLOWED and all(r in own for r in reads.get(name, [])):
                unused.append(name)
    assert unused == []
