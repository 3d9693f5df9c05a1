"""``src/`` keeps only what the program runs.

Every function, class and method defined in ``src/hightrans``, and every
name a module assigns at its top level (dunders aside), must be named
somewhere in ``src/`` or ``bench/`` other than its own definition and the
package's re-exports: the command line and the benchmark are the users.
A name that only the demos or the tests call belongs in
``tests/oracles.py`` (the demos drive the program's own paths instead),
and a table nothing reads goes.  Each top-level name of ``tests/oracles.py``
in turn must be named in some file under ``tests/``, so that an oracle or
test bed whose tests are gone goes with them.  And an object's private
attributes are its own: no statement in ``src/`` assigns a
single-underscore attribute of anything but ``self``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hightrans"


def _docstrings(tree):
    """The docstring nodes of a module and of its classes and functions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                yield body[0].value


def _referenced_names(path):
    """Identifiers a file refers to: names, attributes, imported names and
    the words of its string literals (``bench/tracer.py`` hooks by string),
    leaving out comments and docstrings."""
    tree = ast.parse(path.read_text(), str(path))
    skip = {id(node) for node in _docstrings(tree)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in skip:
            out.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return out


def _module_assignments(tree):
    """(line, name) of each name a module assigns at its top level."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield node.lineno, name.id


def _named(line_names):
    return [(line, name) for line, name in line_names
            if not (name.startswith("__") and name.endswith("__"))]


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined = [(node.lineno, node.name) for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for line, name in _named(defined + list(_module_assignments(tree))):
            yield path.name, line, name


def test_every_definition_in_src_is_used_outside_tests():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*(_referenced_names(p) for p in files))
    unused = [f"{module}:{line} {name}" for module, line, name in _definitions()
              if name not in used]
    assert not unused, "defined in src/ but used only by tests (move to tests/oracles.py " \
                       "or delete): " + ", ".join(unused)


def test_every_top_level_name_in_oracles_is_used_by_the_tests():
    oracles = ROOT / "tests" / "oracles.py"
    tree = ast.parse(oracles.read_text(), str(oracles))
    defined = [(node.lineno, node.name) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    used = set().union(*(_referenced_names(p) for p in sorted((ROOT / "tests").rglob("*.py"))))
    unused = [f"oracles.py:{line} {name}"
              for line, name in _named(defined + list(_module_assignments(tree)))
              if name not in used]
    assert not unused, "defined in tests/oracles.py but named by no test (delete): " + \
        ", ".join(unused)


def test_private_attributes_are_assigned_only_on_self():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                    and node.attr.startswith("_") and not node.attr.startswith("__") \
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                foreign.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not foreign, "a private attribute assigned on another object: " + ", ".join(foreign)
