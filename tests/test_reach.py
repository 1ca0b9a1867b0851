"""src/ holds what the product reaches.

Every function, class and method defined in the package must be named
somewhere in the package or in perfbench/, outside its own definition.
Code that only the tests call belongs in the tests, as a helper or an
oracle.  The check is by name.  A function or class is reached by any
name or attribute reference.  A method is reached only by an attribute
reference (x.name), or by its bare name in its own class body, as an
alias (alias = method), so a local variable of the same name does not
count; an attribute of that name on any object still does.
"""

import ast
import pathlib
from collections import Counter

import f4workbench

PACKAGE = pathlib.Path(f4workbench.__file__).parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"

# Matrix is the dense test oracle; it stays in exactnum because
# perfbench/sample.py counts its eliminations, and these methods are
# called only by the tests that use it.
ALLOWED = {"Matrix.from_columns", "Matrix.transpose", "Matrix.apply",
           "Matrix.det"}


def _names(node):
    """Every name and attribute referenced under node."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _attributes(node):
    """Every attribute referenced under node."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute))


def _class_level_names(cls):
    """The bare names the body of cls reads outside its defs."""
    out = Counter()
    for stmt in cls.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            out.update(sub.id for sub in ast.walk(stmt)
                       if isinstance(sub, ast.Name))
    return out


def _definitions(tree):
    """(qualified name, node, enclosing class or None) of every non-dunder
    def and class."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    owner = node if isinstance(node, ast.ClassDef) else None
                    out.append((prefix + name, child, owner))
                visit(child, prefix + name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def test_every_definition_is_reached():
    sources = sorted(PACKAGE.glob("*.py"))
    bench = sorted(PERFBENCH.glob("*.py"))
    assert sources and bench
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sources + bench}
    refs = Counter()
    attrs = Counter()
    for tree in trees.values():
        refs.update(_names(tree))
        attrs.update(_attributes(tree))
    unreached = []
    for path in sources:
        for qualname, node, owner in _definitions(trees[path]):
            name = node.name
            if owner is None:
                count = refs[name] - _names(node)[name]
            else:
                count = (attrs[name] - _attributes(node)[name]
                         + _class_level_names(owner)[name])
            if count <= 0 and qualname not in ALLOWED:
                unreached.append("%s:%d %s" % (path.name, node.lineno,
                                               qualname))
    assert unreached == []


def _unused_imports(tree):
    """Names an import statement anywhere in tree binds and nothing in
    tree reads, with the line of the import."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((name, node.lineno))
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    return [(name, line) for name, line in imported if name not in used]


def test_every_import_is_used():
    tests = pathlib.Path(__file__).parent
    paths = [path for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"] + sorted(tests.glob("*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in _unused_imports(tree)]
    assert unused == []


# The modules past the model read the named vectors in mixed coordinates
# from ModelEngine.named, converted once when the engine is built; the
# Chevalley-coordinate vectors stay behind liealg, uea and the tests.  They
# build no orthocomplement either: the degree machine's Casimir tensor is
# that of k, with the labels in m dropped.
PAST_THE_MODEL = ("balg.py", "combin.py", "cli.py", "repth.py")


def test_named_vectors_cross_once():
    found = []
    for name in PAST_THE_MODEL:
        path = PACKAGE / name
        refs = _names(ast.parse(path.read_text(), str(path)))
        found += ["%s names %s" % (name, attr)
                  for attr in ("distinguished", "uea_of", "orthocomplement")
                  if refs[attr]]
    assert found == []
