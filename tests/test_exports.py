"""Every name the sbdsim namespace exports has a caller outside the tests
that check it: another module of the package, a script, the benchmark or
the acceptance criteria. A name that only its own tests call is surface to
delete, not to export. The benchmark's tracer names the functions it wraps
in strings such as "Configuration.points_array", so a dotted name in a
string counts as a reference too.
"""

import ast
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "sbdsim")


def python_files(*parts):
    path = os.path.join(ROOT, *parts)
    if path.endswith(".py"):
        return [path]
    return sorted(os.path.join(path, name) for name in os.listdir(path) if name.endswith(".py"))


def referenced_names(path, skip=()):
    """The names and attribute names a file reads, outside the top-level
    definitions named in skip."""
    tree = ast.parse(open(path).read())
    nodes = [node for node in tree.body
             if not (isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Assign))
                     and _defined(node) & set(skip))]
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                    and all(part.isidentifier() for part in sub.value.split(".")):
                names.update(sub.value.split("."))
    return names


def _defined(node):
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    return {node.name}


def test_every_export_has_a_caller_outside_its_tests():
    init = os.path.join(PACKAGE, "__init__.py")
    exports = sorted(alias.asname or alias.name for node in ast.parse(open(init).read()).body
                     if isinstance(node, ast.ImportFrom) for alias in node.names)
    callers = (python_files("scripts") + python_files("perfbench")
               + python_files("tests", "test_acceptance.py"))
    outside = set().union(*(referenced_names(p) for p in callers))
    modules = [p for p in python_files("src", "sbdsim") if p != init]
    unused = [name for name in exports if name not in outside
              and not any(name in referenced_names(p, skip=[name]) for p in modules)]
    assert len(exports) > 50
    assert unused == []
