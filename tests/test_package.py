"""The package imports its exports lazily, on first access (PEP 562)."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blowup_collections

EXPORTS = [name for name in blowup_collections.__all__ if name != "__version__"]


def fresh(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter."""
    src = Path(blowup_collections.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout


LOADED = "print(sorted(m for m in sys.modules if m.startswith('blowup_collections')))"


def test_importing_the_package_loads_no_module():
    assert fresh(f"import sys, blowup_collections; {LOADED}") == "['blowup_collections']\n"


def test_an_export_loads_only_the_modules_it_needs():
    out = fresh(f"import sys, blowup_collections; blowup_collections.coh_zero; {LOADED}")
    assert out == (
        "['blowup_collections', 'blowup_collections.geometry', "
        "'blowup_collections.vanishing']\n"
    )


@pytest.mark.parametrize("name", EXPORTS)
def test_each_export_is_the_object_its_module_defines(name):
    module = importlib.import_module(
        f"blowup_collections.{blowup_collections._EXPORTS[name]}"
    )
    assert name in module.__all__
    assert blowup_collections.__getattr__(name) is getattr(module, name)
    assert getattr(blowup_collections, name) is getattr(module, name)


def test_the_export_table_lists_all_but_the_version():
    assert len(blowup_collections.__all__) == len(set(blowup_collections.__all__)) == 36
    assert sorted(blowup_collections._EXPORTS) == sorted(EXPORTS)


def test_dir_lists_every_export_before_any_is_read():
    out = fresh(
        "import blowup_collections as p; "
        "print(sorted(set(p.__all__) - set(dir(p))))"
    )
    assert out == "[]\n"


def test_star_import_binds_every_export():
    namespace = {}
    exec("from blowup_collections import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(blowup_collections.__all__)
    assert len(namespace) == 36


def test_a_module_that_defines_exports_is_an_attribute():
    out = fresh("import blowup_collections as p; print(p.tables.__name__)")
    assert out == "blowup_collections.tables\n"


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        blowup_collections.no_such_name
    with pytest.raises(ImportError):
        from blowup_collections import no_such_name  # noqa: F401
