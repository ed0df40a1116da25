"""No module-level import in src/cellmesh goes unused.

A name bound by a top-level `import` or `from ... import` must be read
somewhere in its module.  __init__.py is exempt: its imports are the
package's public names, re-exported through __all__.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "cellmesh")


def _unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_import_detector():
    source = "import os\nfrom math import comb, gcd\nimport a.b as c\nprint(gcd, c)\n"
    assert _unused_imports(source) == [(1, "os"), (2, "comb")]


def test_no_unused_module_imports():
    unused = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py") and fname != "__init__.py":
            with open(os.path.join(SRC, fname)) as fh:
                found = _unused_imports(fh.read())
            if found:
                unused[fname] = found
    assert unused == {}
