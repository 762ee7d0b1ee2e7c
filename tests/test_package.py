"""The package namespace: `cobweb` re-exports each layer module's public names."""

from __future__ import annotations

import ast
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import cobweb
from cobweb import chains, fibcalc, poset, zeta

MODULES = (fibcalc, poset, zeta, chains)


def test_exports_are_the_module_lists_plus_version():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == 26
    assert cobweb.__all__ == ["__version__", *names]
    assert len(set(cobweb.__all__)) == len(cobweb.__all__)


def test_each_export_is_its_module_attribute():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(cobweb, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from cobweb import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(cobweb.__all__)
    assert namespace["__version__"] == cobweb.__version__


def test_block_listing_stays_internal():
    # The `chains` verb's text listing exists in `chains` and is exported by neither namespace.
    for name in ("_chain_text", "_walk_text"):
        assert callable(getattr(chains, name))
        assert name not in chains.__all__ and name not in cobweb.__all__
        assert not hasattr(cobweb, name)


def test_console_script_target_is_callable():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    scripts = pyproject["project"]["scripts"]
    assert scripts == {"cobweb": "cobweb.cli:main"}
    assert callable(EntryPoint(name="cobweb", value=scripts["cobweb"], group="console_scripts").load())


def test_naive_imports_only_the_standard_library():
    # The tests' reference values must not come from the code they check.
    tree = ast.parse((Path(__file__).parent / "naive.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported and not any(name.split(".")[0] == "cobweb" for name in imported)
    assert {name.split(".")[0] for name in imported} <= sys.stdlib_module_names
