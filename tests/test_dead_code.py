"""No code that only tests call: every function, method and class defined
under ``src/dvesim``, and every module-level constant bound there to one
name, is named by the code in ``src/`` or ``perfbench/`` outside the lines
that define that name.  Code that only tests need belongs in ``tests/``, as
an oracle, or goes.  Dunder names are read by the interpreter, so they are
exempt."""

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
    """(line number, name) of every function, method and class in a file,
    and of every module-level ``NAME = ...`` or ``NAME: T = ...``."""
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        if len(targets) == 1 and isinstance(targets[0], ast.Name):
            yield node.lineno, targets[0].id


def names(path: Path):
    """(line number, name) of every identifier that a file's code names:
    its name tokens and its one-identifier string literals, but not its
    comments or docstrings."""
    with tokenize.open(path) as f:
        for tok in tokenize.generate_tokens(f.readline):
            if tok.type == tokenize.NAME:
                yield tok.start[0], tok.string
            elif tok.type == tokenize.STRING and (m := NAME_STRING.fullmatch(tok.string)):
                yield tok.start[0], m.group(2)


def test_every_definition_is_named_outside_the_tests():
    package = ROOT / "src" / "dvesim"
    sources = [path for tree in ("src", "perfbench") for path in sorted((ROOT / tree).rglob("*.py"))]
    assert package / "actors.py" in sources
    named = Counter()
    for path in sources:
        own = set(definitions(path))
        named.update(name for line, name in names(path) if (line, name) not in own)
    unnamed = sorted(
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sources if package in path.parents
        for line, name in definitions(path)
        if not (name.startswith("__") and name.endswith("__")) and not named[name])
    assert unnamed == []
