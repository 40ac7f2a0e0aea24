"""List the functions and methods of `tilecohom` that nothing in it calls.

For each function defined at the top level of a module of `src/tilecohom`,
and each method defined in a class there, the name is looked for on every
other line of the package: as a name, an attribute, an imported name or a
string constant.  A member is listed when no other line uses its name (a
recursive call inside its own body does not count), `__init__.py` does not
export it, and it is not a dunder method.  What is listed is called, if at
all, only from outside the package: by the tests, the console script or
the benchmark.

The match is by name alone, so a member that shares its name with another
member, or with any other name in the package, is missed: `GroupHom.zero`
is not listed, because `GroupExpr.zero` and its uses carry the same name.
The list is a report, not a check; the script always exits 0.

Usage:
    python tests/check_test_only_api.py [SRC_PACKAGE_DIR]

SRC_PACKAGE_DIR defaults to `src/tilecohom` beside this file's directory.
"""
import ast
import sys
from pathlib import Path


def definitions(tree):
    """(qualified name, name, first line, last line) of each module-level
    function and each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield (f"{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def uses(tree):
    """(name, line) of each use of a name in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.asname or node.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value, node.lineno


def unused(package):
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    exported = {alias.asname or alias.name
                for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = {}
    for module, tree in trees.items():
        for name, line in uses(tree):
            used.setdefault(name, []).append((module, line))
    out = []
    for module, tree in trees.items():
        for qualname, name, first, last in definitions(tree):
            if name in exported or (name.startswith("__")
                                    and name.endswith("__")):
                continue
            if all(m == module and first <= line <= last
                   for m, line in used.get(name, ())):
                out.append(f"{module}:{first} {qualname}")
    return out


def main(argv):
    package = Path(argv[1]) if len(argv) > 1 else \
        Path(__file__).resolve().parents[1] / "src" / "tilecohom"
    listed = unused(package)
    for line in listed:
        print(line)
    print(f"{len(listed)} functions and methods of {package.name} that no "
          "other line of it names")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
