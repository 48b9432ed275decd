"""The registry of named checks: each ``verify`` token and its check.

Pure data, so the command-line interface builds the ``verify`` token
choices without importing :mod:`~blowup_collections.verify`, which
imports every other module.  :mod:`~blowup_collections.verify` runs its
checks from the same table and describes each token.
"""

__all__ = ["VERIFY_TOKENS"]

# Token -> (check function in ``verify``, leading arguments, the override
# it passes on).  Declaration order is the order of ``verify all`` and its
# status lines.  Checks are looked up by name when they run, so a rebound
# module attribute (a wrapper or a test double) is the one called.
_TOKENS = {
    "claim4.5": ("check_family_chains", ("point",), "window"),
    "claim6.2": ("check_family_chains", ("cubic",), "window"),
    "claim6.3": ("check_diophantine", (), "window"),
    "prop4.3": ("check_point_vanishing", (), "window"),
    "prop5.5": ("check_line_vanishing", (), "window"),
    "prop6.4": ("check_cubic_vanishing", (), "window"),
    "relations": ("check_relations", (), "param_range"),
    "tables": ("check_tables", (), "window"),
    "thm4.4": ("check_enumeration", ("point",), "window"),
    "thm5.6": ("check_enumeration", ("line",), "window"),
    "thm6.5": ("check_enumeration", ("cubic",), "window"),
    "chi-agreement": ("check_chi_agreement", (), "window"),
    "augmentation": ("check_augmentation", (), None),
}

VERIFY_TOKENS = tuple(_TOKENS)
