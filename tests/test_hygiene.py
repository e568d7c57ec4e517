"""Source hygiene: no dead imports and no dead private names in the library.

Stdlib ``ast`` checks in place of a linter.  Every name a module imports
is used there; ``__init__.py`` is skipped, since its imports are
re-exports, and so are ``__future__`` imports.  Every private top-level
name (one leading underscore) of a module is referenced somewhere in the
package beyond its definition, so that helpers whose last caller went
do not linger as test-only code.  The exact stack's command line loads
no module it does not need: ``numpy.polynomial`` (a few milliseconds) is
not imported by ``stein-check``, nor ``numpy.random`` (about 6 MB) by the
seeded matrix battery, and ``stein`` imports no numpy at all.  The
lattice, the transforms and the word algebra import nothing from
``analytic``: the number rule they share lives in ``errors``, so they do
not pull in the Cauchy-transform engine.  The
version is written once, as ``freestein.__version__``, and
``pyproject.toml`` reads it from there.  Every (module, function) pair the
benchmark's tracer wraps is a callable of that module, so renaming a
traced function fails here rather than in a benchmark run, and the kernel
arguments the tracer reads by position keep their positions.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "freestein"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_unused_and_used_names():
    source = "import os\nimport numpy as np\nfrom . import a, b as c\nnp.zeros(1)\nc.f()\n"
    assert unused_imports(source) == [(1, "os"), (3, "a")]


def private_definitions(source: str) -> list:
    """(line, name) of the top-level private names a module defines."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for n in nodes for t in ast.walk(n) if isinstance(t, ast.Name)]
        else:
            continue
        out += [(node.lineno, t) for t in targets if t.startswith("_") and not t.startswith("__")]
    return out


def references(source: str) -> set:
    """Names read or imported in a module, as plain names or attributes."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_every_private_name_is_used(path):
    used = set().union(*(references(p.read_text()) for p in ALL_MODULES))
    assert [d for d in private_definitions(path.read_text()) if d[1] not in used] == []


def test_private_checker_sees_defined_and_referenced_names():
    source = (
        "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    _tmp = 3\n"
        "class _C: pass\ndef g(): return _A + m._f()\n"
    )
    assert private_definitions(source) == [(1, "_A"), (2, "_B"), (4, "_f"), (6, "_C")]
    refs = references(source)
    assert {"_A", "_f"} <= refs and not {"_B", "_C", "_tmp", "__all__"} & refs


def package_imports(source: str) -> set:
    """Modules of the package a module imports from: ``from .x import ...`` gives x,
    ``from . import x`` gives x."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            out.update([node.module] if node.module else (alias.name for alias in node.names))
    return out


@pytest.mark.parametrize("name", ["ncpart", "momentalg", "ncsymb"])
def test_exact_stack_does_not_import_analytic(name):
    assert "analytic" not in package_imports((SRC / f"{name}.py").read_text())


def test_package_import_checker_sees_both_forms():
    source = "from .errors import a\nfrom . import analytic, metrics as m\nimport numpy\n"
    assert package_imports(source) == {"errors", "analytic", "metrics"}


def external_imports(source: str) -> set:
    """Top-level packages a module imports by absolute name: ``import numpy as np`` and
    ``from numpy.linalg import eigh`` both give numpy."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


def test_stein_imports_no_numpy():
    # the Gauss-Legendre rule is Newton on the Legendre recurrence, in plain floats
    assert "numpy" not in external_imports((SRC / "stein.py").read_text())


def test_external_import_checker_sees_every_form():
    source = "import numpy as np\nfrom scipy.linalg import eigh\nimport os.path\nfrom .errors import a\n"
    assert external_imports(source) == {"numpy", "scipy", "os"}


def imported_modules(*args) -> set:
    """Modules a new interpreter imports while running ``python -X importtime <args>``."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, check=True,
    )
    # every import is logged to stderr as "import time: self | cumulative | name"
    return {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


def test_stein_check_does_not_import_numpy_polynomial():
    bern = '{"type":"atomic","atoms":[[1.0,0.5],[-1.0,0.5]]}'
    modules = imported_modules("-m", "freestein.cli", "stein-check", "--measure", bern)
    assert "freestein.stein" in modules
    assert not {m for m in modules if m.startswith("numpy.polynomial")}


def test_import_log_sees_numpy_polynomial():
    assert "numpy.polynomial" in imported_modules("-c", "import numpy.polynomial")


def test_matrix_battery_does_not_import_numpy_random():
    draw = "from freestein import ncsymb; ncsymb.random_matrix_battery(5, 6)"
    modules = imported_modules("-c", draw)
    assert "freestein.ncsymb" in modules
    assert not {m for m in modules if m.startswith("numpy.random")}


def test_import_log_sees_numpy_random():
    assert "numpy.random" in imported_modules("-c", "import numpy.random")


def test_version_has_one_source():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in project["project"]
    assert "version" in project["project"]["dynamic"]
    dynamic = project["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "freestein.__version__"}


def traced_targets(source: str) -> list:
    """The literal ``TARGETS`` tuple of a module's source, read without importing it."""
    for node in ast.parse(source).body:
        names = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if names == ["TARGETS"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError("no TARGETS assignment")


def test_traced_functions_exist():
    targets = traced_targets((ROOT / "perfbench" / "tracing.py").read_text())
    assert ("ncsymb", "expand_power") in targets
    missing = [
        (module, name) for module, name in targets
        if not callable(getattr(importlib.import_module(f"freestein.{module}"), name, None))
    ]
    assert missing == []


def test_target_reader_sees_only_the_literal():
    source = "X = 1\na, b = 2, 3\nTARGETS = (\n    ('a', 'f'),\n    ('_b', 'g'),\n)\nTARGETS_TOO = ()\n"
    assert traced_targets(source) == [("a", "f"), ("_b", "g")]


@pytest.mark.parametrize("name", ["nfold_omega", "cauchy_vals"])
def test_traced_kernels_keep_kind_and_xs_positions(name):
    # perfbench/tracing.py reads a call's kind at args[1] and its xs at args[4]
    kernel = getattr(importlib.import_module("freestein._kernels"), name)
    params = list(inspect.signature(kernel).parameters)
    assert (params[1], params[4]) == ("kind", "xs")
