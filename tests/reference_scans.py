"""Plain 2-D grid scans: the references the family-member generator must equal.

The package finds family members and conic points without scanning the
plane (:func:`blowup_collections.families.family_members`,
:func:`blowup_collections.diophantine.dual_conic_points`).  These scans
test every class of the square box directly, so they share nothing with
the generator but the vanishing cases and the cofactor polynomial.
"""

from blowup_collections.families import family_label_of
from blowup_collections.geometry import DivisorClass, cubic_chi_cofactor


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
