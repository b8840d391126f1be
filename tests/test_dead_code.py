"""No code that only tests call: every function, method and class defined
under ``src/dvesim``, and every module-level constant bound there to one
name, is named by the code in ``src/`` or ``perfbench/`` outside the lines
that define that name and outside a package's ``__init__.py``, whose
re-exports use nothing.  Code that only tests need belongs in ``tests/``,
as an oracle, or goes.  Dunder names are read by the interpreter, so they
are exempt.

A method or property counts as named only where code reaches it: as an
attribute (``x.name``), as a keyword argument, or by a string literal that
holds only its name.  A bare name does not count, since a local such as
``link`` would hide a method of that name.

Nor does a record keep a field, or a class an attribute, that no code
reads: every field of a ``NamedTuple`` or a dataclass under ``src/dvesim``,
and every attribute that a class there stores on ``self``, is read by the
code in ``src/`` or ``perfbench/``.  A read is an attribute loaded and not
called, so that ``xs.mean()`` reads no field ``mean``; a read through
``self`` in the field's own class is one of them.  A string literal of one
identifier reads an attribute only where getattr or attrgetter takes it,
directly or through the variable of a loop over it: a path part such as
``"src"`` names no field.  A store, ``self.n += 1`` included, is no read.
A class that is written out whole, by ``asdict`` into an exported file, has
a reader for every field; ``WRITTEN_WHOLE`` names each such class and why."""

import ast
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: a string literal that is one identifier, as getattr and the span tracer
#: name an attribute
NAME_STRING = re.compile(r"[rRuU]?(['\"])(\w+)\1")
#: the calls that read the attribute a string names
GETTERS = {"getattr", "attrgetter"}
#: class -> why each of its fields has a reader though no code names it
WRITTEN_WHOLE = {
    "LoginReport": "asdict writes it into login_report.json, which the login pins hash",
}


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
        # a package's __init__.py only re-exports: a name that it imports or
        # lists in __all__ is not thereby used
        if path.name == "__init__.py":
            continue
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


def _name(node) -> str | None:
    """The name a decorator, base class or callee ends in."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def records(tree: ast.Module):
    """(line number, class, name) of every field of a ``NamedTuple`` or a
    dataclass in a module, and of every attribute that a class stores on
    ``self``, at the first line that declares or stores it."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        first: dict[str, int] = {}
        if "NamedTuple" in map(_name, cls.bases) or "dataclass" in map(_name, cls.decorator_list):
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    first.setdefault(node.target.id, node.lineno)
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                first[node.attr] = min(node.lineno, first.get(node.attr, node.lineno))
        yield from ((line, cls.name, name) for name, line in first.items())


def _strings(node: ast.AST):
    """The one-identifier string literals in a node."""
    return (n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier())


def reads(tree: ast.Module):
    """Every attribute name that a module's code reads: an attribute loaded
    and not called, a string that getattr or attrgetter takes, and each
    string in what a loop iterates when the loop hands its variable to one."""
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    called = {id(call.func) for call in calls}
    getters = {id(call): call.args for call in calls if _name(call.func) in GETTERS}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                and id(node) not in called:
            yield node.attr
        for arg in getters.get(id(node), []):
            yield from _strings(arg)
        for loop in [node] if isinstance(node, ast.For) else getattr(node, "generators", []):
            variables = {n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)}
            if any(isinstance(arg, ast.Name) and arg.id in variables
                   for inner in ast.walk(node) for arg in getters.get(id(inner), [])):
                yield from _strings(loop.iter)


def unread(sources: dict[str, str], exempt=()) -> list[str]:
    """``path:line Class.name`` of every field and stored attribute in the
    sources (path -> code) that none of them reads, outside the classes in
    ``exempt``; dunder names, which the interpreter reads, are left out."""
    trees = {path: ast.parse(code, path) for path, code in sources.items()}
    read = {name for tree in trees.values() for name in reads(tree)}
    return sorted(f"{path}:{line} {cls}.{name}"
                  for path, tree in trees.items() for line, cls, name in records(tree)
                  if cls not in exempt and name not in read
                  and not (name.startswith("__") and name.endswith("__")))


def test_every_field_and_stored_attribute_is_read_outside_the_tests():
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for tree in ("src", "perfbench") for path in sorted((ROOT / tree).rglob("*.py"))}
    assert "src/dvesim/netsim.py" in sources
    assert [entry for entry in unread(sources, WRITTEN_WHOLE)
            if entry.startswith("src/dvesim/")] == []
    # an exemption that covers no unread field is stale
    everything = unread(sources)
    assert [cls for cls in WRITTEN_WHOLE if not any(f" {cls}." in e for e in everything)] == []


RECORD = """
from typing import NamedTuple

class Verdict(NamedTuple):
    metric: str
    mean: float

class Counter:
    def __init__(self):
        self.ticks = 0
        self.steps = 0

    def tick(self, xs):
        self.ticks += 1
        self.steps = self.steps + len(xs)
        return Verdict("m", xs.mean())
"""


def test_a_field_or_attribute_that_only_tests_read_is_flagged():
    # the test that reads Verdict.mean and Counter.ticks is not scanned,
    # and neither a store nor an augmented store is a read
    assert unread({"m.py": RECORD, "use.py": "print(v.metric)"}) == [
        "m.py:10 Counter.ticks", "m.py:6 Verdict.mean"]
    assert unread({"m.py": RECORD, "use.py": "print(v.metric, v.mean, c.ticks)"}) == []


def test_a_called_method_of_the_same_name_is_no_read():
    assert "m.py:6 Verdict.mean" in unread(
        {"m.py": RECORD, "use.py": "print(v.metric, c.ticks, np.zeros(3).mean())"})


def test_only_a_string_that_getattr_takes_reads_a_field():
    message = "from typing import NamedTuple\nclass Message(NamedTuple):\n    src: str\n"
    assert unread({"m.py": message, "w.py": 'ROOT = ROOT / "src"'}) == ["m.py:3 Message.src"]
    assert unread({"m.py": message, "w.py": 'getattr(msg, "src")'}) == []
    assert unread({"m.py": message,
                   "w.py": '[getattr(m, name) for name in ("src",) for m in msgs]'}) == []


def test_a_class_written_out_whole_is_exempt():
    result = ("from dataclasses import asdict, dataclass\n"
              "@dataclass\nclass Result:\n    units: float\n    completed: bool\n"
              "def save(r):\n    return json.dumps(asdict(r))\n")
    assert unread({"m.py": result}) == ["m.py:4 Result.units", "m.py:5 Result.completed"]
    assert unread({"m.py": result}, exempt={"Result"}) == []
