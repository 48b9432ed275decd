"""The ``EXAMPLES::`` blocks of the package docstrings, run as doctests."""

import doctest
import importlib
import pkgutil

import blowup_collections

MODULES = [blowup_collections.__name__] + sorted(
    info.name
    for info in pkgutil.iter_modules(
        blowup_collections.__path__, blowup_collections.__name__ + "."
    )
)


def test_docstring_examples():
    # Examples may use any name the package exports, whether or not their
    # module imports it.
    namespace = {
        name: getattr(blowup_collections, name) for name in blowup_collections.__all__
    }
    failed = {}
    attempted = 0
    for name in MODULES:
        result = doctest.testmod(
            importlib.import_module(name), extraglobs=namespace, report=False
        )
        attempted += result.attempted
        if result.failed:
            failed[name] = result.failed
    assert failed == {}
    assert attempted == 35
