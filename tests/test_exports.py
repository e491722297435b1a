import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import releq

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(releq.__path__))


def test_every_package_export_resolves():
    missing = [name for name in releq.__all__ if not hasattr(releq, name)]
    assert not missing


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_submodule_export_resolves(name):
    module = importlib.import_module(f"releq.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing


def _dead_imports(path: Path) -> dict:
    """``{name: line}`` of the names that the module-level imports of the
    module at ``path`` bind, and that it neither reads nor lists in ``__all__``."""
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__" for target in node.targets):
            used |= set(ast.literal_eval(node.value))
    dead = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    dead[name] = node.lineno
    return dead


def test_no_module_level_import_is_dead():
    # An import that a module neither reads nor re-exports is left over from
    # deleted code.
    dead = {path.name: _dead_imports(path) for path in sorted(Path(releq.__file__).parent.glob("*.py"))}
    assert not {name: imports for name, imports in dead.items() if imports}


def _definitions_and_reads(path: Path) -> tuple[dict, list]:
    """``{name: line}`` of the module-level definitions (functions, classes,
    assignments) of the module at ``path``, not dunders, and per top-level
    statement the names it defines and the names and attributes it reads."""
    tree = ast.parse(path.read_text())
    defined, statements = {}, []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {leaf.id for target in targets for leaf in ast.walk(target) if isinstance(leaf, ast.Name)}
        else:
            names = set()
        for name in names:
            if not name.startswith("__"):
                defined[name] = node.lineno
        reads = {leaf.id for leaf in ast.walk(node) if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load)}
        reads |= {leaf.attr for leaf in ast.walk(node) if isinstance(leaf, ast.Attribute)}
        statements.append((names, reads))
    return defined, statements


def _read_elsewhere(name: str, statements: list) -> bool:
    """Whether a statement other than the definition of ``name`` reads it."""
    return any(name in reads and name not in names for names, reads in statements)


def test_no_private_function_is_unused_by_the_library():
    # A private name that no statement of the library reads, other than its
    # own definition, is left over from deleted code (or kept for the tests
    # alone).
    paths = sorted(Path(releq.__file__).parent.glob("*.py"))
    scanned = {path.name: _definitions_and_reads(path) for path in paths}
    statements = [statement for _, module in scanned.values() for statement in module]
    unused = {
        f"{module}:{line} {name}"
        for module, (defined, _) in scanned.items()
        for name, line in defined.items()
        if name.startswith("_") and not _read_elsewhere(name, statements)
    }
    assert not unused


def test_no_public_name_is_read_by_the_tests_alone():
    # A public name that no statement of the library reads, other than its
    # own definition, must be documented in the README or checked by the
    # acceptance tests; otherwise only the unit tests keep it.  odeint.py is
    # exempt: no run calls it, and it goes with its own test cases.
    root = Path(releq.__file__).parent
    paths = sorted(path for path in root.glob("*.py") if path.name != "odeint.py")
    scanned = {path.name: _definitions_and_reads(path) for path in paths}
    statements = [statement for _, module in scanned.values() for statement in module]
    documents = (Path(__file__).parent.parent / "README.md", Path(__file__).parent / "test_acceptance.py")
    words = set().union(*(re.findall(r"\w+", path.read_text()) for path in documents))
    unread = {
        f"{module}:{line} {name}"
        for module, (defined, _) in scanned.items()
        for name, line in defined.items()
        if not name.startswith("_") and name not in words and not _read_elsewhere(name, statements)
    }
    assert not unread


def _oracles_read(path: Path) -> set:
    """Names of ``oracles`` that the module at ``path`` reads: imported
    from it and then read, or read as attributes of the imported module."""
    tree = ast.parse(path.read_text())
    loads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "oracles":
            read |= {alias.name for alias in node.names if (alias.asname or alias.name) in loads}
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "oracles":
            read.add(node.attr)
    return read


def test_no_oracle_is_unused_by_the_tests():
    # An oracle that no test module reads, and no other oracle, is left over
    # from a deleted test.
    tests = Path(__file__).parent
    defined, statements = _definitions_and_reads(tests / "oracles.py")
    read = set().union(*(_oracles_read(path) for path in tests.glob("*.py") if path.name != "oracles.py"))
    unused = {
        f"oracles.py:{line} {name}"
        for name, line in defined.items()
        if name not in read and not _read_elsewhere(name, statements)
    }
    assert not unused


def test_a_fock_solve_through_the_cli_imports_no_scipy(tmp_path):
    # scipy serves only the kernels' reference quadrature; its import costs
    # a max-ent run a fifth of a second and about 25 MB.  The start F = 0
    # makes the solve take Newton steps, so the Jacobian runs too.
    config = tmp_path / "fock.json"
    config.write_text(json.dumps({
        "model": "maxent_solve",
        "operator_set": {"kind": "fock", "dim": 64},
        "targets": [[0.2, -0.1], [1.5, 0.0], [0.2, 0.1]],
        "initial": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        "output_path": str(tmp_path / "fock.csv"),
    }))
    code = (
        "import sys, releq.cli; "
        f"assert releq.cli.main(['maxent_solve', '--config', {str(config)!r}]) == 0; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    src = str(Path(releq.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
    assert (tmp_path / "fock.csv").read_text().count("\n") == 4
