"""No code that only tests call: every function, method and class defined
under ``src/dvesim``, and every module-level constant bound there to one
name, is named by the code in ``src/`` or ``perfbench/`` outside the lines
that define that name.  Code that only tests need belongs in ``tests/``, as
an oracle, or goes.  Dunder names are read by the interpreter, so they are
exempt.

A method or property counts as named only where code reaches it: as an
attribute (``x.name``), as a keyword argument, or by a string literal that
holds only its name.  A bare name does not count, since a local such as
``link`` would hide a method of that name."""

import ast
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: a string literal that is one identifier, as getattr and the span tracer
#: name an attribute
NAME_STRING = re.compile(r"[rRuU]?(['\"])(\w+)\1")


def definitions(path: Path):
    """(line number, name, is a method) of every function, method and class
    in a file, and of every module-level ``NAME = ...`` or ``NAME: T = ...``."""
    tree = ast.parse(path.read_text(), str(path))
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name, id(node) in methods
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        if len(targets) == 1 and isinstance(targets[0], ast.Name):
            yield node.lineno, targets[0].id, False


def names(path: Path):
    """(line number, name, whether a string) of every identifier that a
    file's code names: its name tokens and its one-identifier string
    literals, but not its comments or docstrings."""
    with tokenize.open(path) as f:
        for tok in tokenize.generate_tokens(f.readline):
            if tok.type == tokenize.NAME:
                yield tok.start[0], tok.string, False
            elif tok.type == tokenize.STRING and (m := NAME_STRING.fullmatch(tok.string)):
                yield tok.start[0], m.group(2), True


def reaches(path: Path):
    """(line number, name) of every attribute, keyword argument and
    one-identifier string literal in a file's code: the ways code reaches a
    method or a property."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute):
            yield node.end_lineno, node.attr
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.lineno, node.arg
    yield from ((line, name) for line, name, string in names(path) if string)


def test_every_definition_is_named_outside_the_tests():
    package = ROOT / "src" / "dvesim"
    sources = [path for tree in ("src", "perfbench") for path in sorted((ROOT / tree).rglob("*.py"))]
    assert package / "actors.py" in sources
    named, reached = Counter(), Counter()
    for path in sources:
        own = {(line, name) for line, name, _ in definitions(path)}
        named.update(name for line, name, _ in names(path) if (line, name) not in own)
        reached.update(name for line, name in reaches(path) if (line, name) not in own)
    unnamed = sorted(
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sources if package in path.parents
        for line, name, method in definitions(path)
        if not (name.startswith("__") and name.endswith("__"))
        and not (reached if method else named)[name])
    assert unnamed == []
