"""No code that only tests call: every function, method and class defined
under ``src/dvesim`` is named by the code in ``src/`` or ``perfbench/``
outside the lines that define that name.  Code that only tests need belongs
in ``tests/``, as an oracle, or goes.  Dunder methods are called by the
interpreter, so they are exempt."""

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
    """(line number, name) of every function, method and class in a file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name


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
