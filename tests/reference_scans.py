"""Plain references that the package's faster routes must equal.

The package finds family members and conic points without scanning the
plane (:func:`blowup_collections.families.family_members`,
:func:`blowup_collections.diophantine.dual_conic_points`).  The 2-D scans
here test every class of the square box directly, so they share nothing
with the generator but the vanishing cases and the cofactor polynomial.

The package combines pair verdicts inside one loop over the verdict memo
(:func:`blowup_collections.sequences.collection_verdict`).
:func:`pair_verdict` and :func:`meet_verdicts` are the same rule spelled
out one pair at a time through the public oracle.
"""

from blowup_collections.families import family_label_of
from blowup_collections.geometry import DivisorClass, cubic_chi_cofactor
from blowup_collections.vanishing import VanishingVerdict, coh_zero

# Precedence for combining verdicts: one provably nonzero group spoils the
# whole statement, and an undecided group spoils certainty of vanishing.
_VERDICT_RANK = {
    VanishingVerdict.ZERO: 0, VanishingVerdict.UNKNOWN: 1, VanishingVerdict.NONZERO: 2,
}


def pair_verdict(model, earlier, later):
    """Verdict for ``earlier`` before ``later``: does ``O(earlier - later)`` vanish?"""
    return coh_zero(model, earlier - later)


def meet_verdicts(verdicts):
    """Combine verdicts, ``NONZERO > UNKNOWN > ZERO``; the empty meet is ``ZERO``."""
    result = VanishingVerdict.ZERO
    for v in verdicts:
        if _VERDICT_RANK[v] > _VERDICT_RANK[result]:
            result = v
        if result is VanishingVerdict.NONZERO:
            break
    return result


def grid_candidates(model, window):
    """Every class with ``|a|, |b| <= window`` in some family, with its label, sorted."""
    found = []
    for a in range(-window, window + 1):
        for b in range(-window, window + 1):
            d = DivisorClass(a, b)
            label = family_label_of(model, d)
            if label is not None:
                found.append((d, label))
    return found


def cofactor_scan(window):
    """Every class with ``|a|, |b| <= window`` whose dual is on the conic, sorted."""
    return [
        DivisorClass(a, b)
        for a in range(-window, window + 1)
        for b in range(-window, window + 1)
        if cubic_chi_cofactor(-a, -b) == 0
    ]
