"""Exceptional collections of line bundles on three blow-ups of P^3.

Exact integer machinery for the blow-up of projective 3-space
at a point, along a line, or along a twisted cubic curve:

* :mod:`~blowup_collections.geometry` -- rank-2 Picard lattices, triple
  intersection products, Euler characteristics by two independent routes;
* :mod:`~blowup_collections.vanishing` -- the three-valued
  cohomology-vanishing oracle and its supporting predicates;
* :mod:`~blowup_collections.sequences` -- ordered collections, their
  verdicts, helix rotations and transpositions (each reading the variety
  from the collection), and the lift from projective 3-space;
* :mod:`~blowup_collections.families` -- candidate families, the full
  type catalogue, and classification of collections
  (``families.matching_type_labels``);
* :mod:`~blowup_collections.enumeration` -- exhaustive bitset search for
  length-6 exceptional collections over one matrix of pair verdicts;
* :mod:`~blowup_collections.tables` -- certified pairwise-compatibility
  tables;
* :mod:`~blowup_collections.diophantine` -- the conic Diophantine system
  on the twisted-cubic model;
* :mod:`~blowup_collections.verify` -- named end-to-end checks, run from
  the token table of :mod:`~blowup_collections.registry`, among them the
  walk of the declared mutation-relation chains, each step one right
  helix rotation;
* :mod:`~blowup_collections.cli` -- the ``blowup-collections`` command.

Importing the package imports none of these: each export loads its
module when it is first read.
"""

from importlib import import_module

# Export -> the module that defines it.  The package imports nothing
# eagerly: ``__getattr__`` loads a module when one of its exports is
# first read, so a cold ``blowup_collections.cli`` call compiles only the
# modules its command uses.
_EXPORTS = {
    name: module
    for module, names in (
        ("geometry", (
            "DivisorClass", "VarietyModel", "VARIETY_TAGS", "ZERO_CLASS",
            "variety_model", "triple_product", "euler_char",
            "euler_char_closed", "serre_dual",
        )),
        ("vanishing", (
            "LineBundleFamily", "VanishingVerdict", "h0_vanishes",
            "h3_vanishes", "coh_zero",
        )),
        ("sequences", (
            "Collection", "make_collection", "normalize", "collection_verdict",
            "helix_rotate_right", "helix_rotate_left", "transpose_orthogonal",
            "augment_point_blowup",
        )),
        ("families", ("TypeLabel", "expected_instances", "type_instance")),
        ("enumeration", ("EnumerationReport", "enumerate_collections")),
        ("tables", ("CellCondition", "PairTable", "pair_table")),
        ("diophantine", ("solve_claim_6_3",)),
        ("verify", ("CheckResult", "run_check")),
    )
    for name in names
}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    """An export, or a module that defines one, imported on first access."""
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
