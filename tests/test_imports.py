"""No module-level import in src/cellmesh goes unused, `import cellmesh`
imports none of its submodules, and `import cellmesh.cli` builds no
argument parser.

A name bound by a top-level `import` or `from ... import` must be read
somewhere in its module.  __init__.py is exempt: it resolves the package's
public names, listed in __all__, on first access.
"""

import ast
import os
import subprocess
import sys

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


def test_package_import_is_lazy():
    # a fresh interpreter: `import cellmesh` loads no submodule, every
    # __all__ name then resolves (the submodule names to the submodules),
    # and an unknown name is an AttributeError
    probe = (
        "import sys, types, cellmesh\n"
        "assert [m for m in sys.modules if m.startswith('cellmesh.')] == []\n"
        "for name in cellmesh.__all__:\n"
        "    value = getattr(cellmesh, name)\n"
        "    assert not isinstance(value, types.ModuleType) or value.__name__ == "
        "'cellmesh.' + name, name\n"
        "assert cellmesh.verify_theorem1 is sys.modules['cellmesh.spectra'].verify_theorem1\n"
        "assert set(cellmesh.__all__) <= set(dir(cellmesh))\n"
        "assert not hasattr(cellmesh, 'no_such_name')\n"
        "namespace = {}\n"
        "exec('from cellmesh import *', namespace)\n"
        "assert set(cellmesh.__all__) <= set(namespace)\n"
        "print(len(cellmesh.__all__))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(SRC, ".."))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "64\n"


def test_cli_import_builds_no_parser():
    # a fresh interpreter: importing the CLI constructs no ArgumentParser;
    # the parser is built on the first run, so importing stays cheap
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import cellmesh.cli\n"
        "assert built == [], built\n"
        "cellmesh.cli.build_parser()\n"
        "print(built[0], len(built))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(SRC, ".."))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "cellmesh 9\n"
