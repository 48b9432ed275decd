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
* :mod:`~blowup_collections.relations` -- mutation-relation chains
  realized by breadth-first search over moves;
* :mod:`~blowup_collections.diophantine` -- the conic Diophantine system
  on the twisted-cubic model;
* :mod:`~blowup_collections.verify` -- named end-to-end checks;
* :mod:`~blowup_collections.cli` -- the ``blowup-collections`` command.
"""

from .geometry import (
    DivisorClass,
    VarietyModel,
    VARIETY_TAGS,
    ZERO_CLASS,
    variety_model,
    triple_product,
    euler_char,
    euler_char_closed,
    serre_dual,
)
from .vanishing import (
    LineBundleFamily,
    VanishingVerdict,
    h0_vanishes,
    h3_vanishes,
    coh_zero,
)
from .sequences import (
    Collection,
    make_collection,
    normalize,
    collection_verdict,
    helix_rotate_right,
    helix_rotate_left,
    transpose_orthogonal,
    augment_point_blowup,
)
from .families import (
    TypeLabel,
    expected_instances,
    type_instance,
)
from .enumeration import EnumerationReport, enumerate_collections
from .tables import CellCondition, PairTable, pair_table
from .relations import RelationReport, verify_mutation_relations
from .diophantine import solve_claim_6_3
from .verify import CheckResult, run_check

__version__ = "0.1.0"

__all__ = [
    "DivisorClass",
    "VarietyModel",
    "VARIETY_TAGS",
    "ZERO_CLASS",
    "variety_model",
    "triple_product",
    "euler_char",
    "euler_char_closed",
    "serre_dual",
    "LineBundleFamily",
    "VanishingVerdict",
    "h0_vanishes",
    "h3_vanishes",
    "coh_zero",
    "Collection",
    "make_collection",
    "normalize",
    "collection_verdict",
    "helix_rotate_right",
    "helix_rotate_left",
    "transpose_orthogonal",
    "augment_point_blowup",
    "TypeLabel",
    "expected_instances",
    "type_instance",
    "EnumerationReport",
    "enumerate_collections",
    "CellCondition",
    "PairTable",
    "pair_table",
    "RelationReport",
    "verify_mutation_relations",
    "solve_claim_6_3",
    "CheckResult",
    "run_check",
    "__version__",
]
