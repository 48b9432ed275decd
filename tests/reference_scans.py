"""Plain references that the package's faster routes must equal.

The package finds family members and conic points without scanning the
plane (:func:`blowup_collections.families.family_members`,
:func:`blowup_collections.diophantine.dual_conic_points`).  The 2-D scans
here test every class of the square box directly, through the oracle's
row lookup (:func:`family_label_of`), so they share nothing with the
generator but the case table (the families and the two conic regions'
inequalities) and the cofactor polynomial.

The package reads the claim 6.3 solutions off its bitset chain search
(:func:`blowup_collections.diophantine.solve_claim_6_3`), testing ``chi``
through the closed form.  :func:`conic_triples` is the plain loop over
every ordered triple of conic points, testing ``chi`` by Riemann--Roch.

The package combines pair verdicts inside one loop over the verdict memo
(:func:`blowup_collections.sequences.collection_verdict`).
:func:`pair_verdict` and :func:`meet_verdicts` are the same rule spelled
out one pair at a time through the public oracle.

The package certifies its pre-encoded table cells by reading them off
one verdict matrix (:func:`blowup_collections.tables.pair_table`).
:func:`fit_cell_from_scan` runs the other way: it derives a cell from
the raw verdicts of every member pair, and the tests compare the result
with each golden cell.

The package decides the cubic model's sporadic ``Zero`` classes from a
hand-written case table (:func:`blowup_collections.vanishing.coh_zero`).
:func:`restrict_to_E_cubic` and :func:`restrict_to_Q_cubic` map a class
to the two quadric surfaces of the twisted-cubic blow-up, where
:func:`p1p1_coh_zero` decides vanishing by the Kuenneth formula; the
tests check that case 1 and four of the sporadic classes restrict to
vanishing classes there.
"""

from typing import NamedTuple

from blowup_collections.diophantine import dual_conic_points
from blowup_collections.geometry import (
    DivisorClass, cubic_chi_cofactor, euler_char, variety_model,
)
from blowup_collections.tables import CellCondition
from blowup_collections.vanishing import VanishingVerdict, _case_row, coh_zero

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


def family_label_of(model, d):
    """Label of the candidate family holding ``d``, read as the case of ``-d``."""
    fam = _case_row(model.tag, -d.a, range(-d.b, 1 - d.b))[0]
    return None if fam is None else fam.label


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


def conic_triples(window):
    """Ordered triples of conic points with pairwise vanishing ``chi``, sorted."""
    points = dual_conic_points(window)
    n = len(points)
    cubic = variety_model("cubic")

    def chi_vanishes(earlier, later):
        return euler_char(cubic, earlier - later) == 0

    # pair_ok[i][j]: points[i] may precede points[j] (chi of the backward
    # difference vanishes).
    pair_ok = [
        [chi_vanishes(points[i], points[j]) for j in range(n)] for i in range(n)
    ]
    solutions = []
    for i in range(n):
        for j in range(n):
            if not pair_ok[i][j]:
                continue
            for k in range(n):
                if pair_ok[i][k] and pair_ok[j][k]:
                    d1, d2, d3 = points[i], points[j], points[k]
                    solutions.append((d1.a, d1.b, d2.a, d2.b, d3.a, d3.b))
    solutions.sort()
    return solutions


def fit_cell_from_scan(
    scan: dict[tuple[int, int], VanishingVerdict],
    row_parameterized: bool,
    col_parameterized: bool,
    window: int,
) -> CellCondition:
    """Rederive a decided cell condition from raw scan data.

    The inverse of verification, used as a cross-check: given the verdicts
    of every member pair over the window, reconstruct the unique condition
    shape.  Raises ``ValueError`` when the data does not fit any shape or
    touches the window boundary (where finiteness cannot be judged).
    """
    if any(v is VanishingVerdict.UNKNOWN for v in scan.values()):
        raise ValueError("scan contains undecided verdicts; cell is not decided")
    zeros = {key for key, v in scan.items() if v is VanishingVerdict.ZERO}
    if not zeros:
        return CellCondition("never")
    if len(zeros) == len(scan):
        return CellCondition("always")
    if row_parameterized and col_parameterized:
        offsets = sorted({q - p for p, q in zeros})
        if any(abs(off) > window - 2 for off in offsets):
            raise ValueError("difference pattern touches the scan boundary")
        predicted = {
            (p, q) for (p, q) in scan if q - p in offsets
        }
        if predicted != zeros:
            raise ValueError("compatible pairs do not follow a difference pattern")
        return CellCondition("diff_in", tuple(offsets))
    if row_parameterized:
        values = sorted({p for p, _ in zeros})
        kind = "row_in"
    elif col_parameterized:
        values = sorted({q for _, q in zeros})
        kind = "col_in"
    else:
        raise ValueError("a pair of sporadic families admits only never/always")
    if any(abs(v) > window - 2 for v in values):
        raise ValueError("value pattern touches the scan boundary")
    predicted = {
        (p, q)
        for (p, q) in scan
        if (p in values if kind == "row_in" else q in values)
    }
    if predicted != zeros:
        raise ValueError("compatible pairs are not uniform in the other parameter")
    return CellCondition(kind, tuple(values))


class RuledSurfaceClass(NamedTuple):
    """Divisor class ``s*S + f*F`` on a smooth quadric surface.

    ``S`` and ``F`` are the two rulings; the class of a ``(p, q)``-curve in
    the product picture corresponds to ``s = p`` sections and ``f = q``
    fibres.
    """

    s: int
    f: int

    def __add__(self, other: "RuledSurfaceClass") -> "RuledSurfaceClass":
        return RuledSurfaceClass(self.s + other.s, self.f + other.f)

    def __sub__(self, other: "RuledSurfaceClass") -> "RuledSurfaceClass":
        return RuledSurfaceClass(self.s - other.s, self.f - other.f)


def p1p1_coh_zero(c: RuledSurfaceClass) -> bool:
    """All cohomology of ``O(s, f)`` on the quadric surface vanishes.

    By the product Kuenneth formula this happens exactly when ``s = -1``
    or ``f = -1``.
    """
    return c.s == -1 or c.f == -1


def restrict_to_E_cubic(d: DivisorClass) -> RuledSurfaceClass:
    """Restrict a class on the cubic blow-up to the exceptional divisor.

    The exceptional divisor over the twisted cubic is a ruled surface over
    the curve isomorphic to the quadric; with the section/fibre basis used
    here, ``H`` restricts to three fibres and ``E`` restricts to
    ``-S + 5F``.
    """
    return RuledSurfaceClass(-d.b, 3 * d.a + 5 * d.b)


def restrict_to_Q_cubic(d: DivisorClass) -> RuledSurfaceClass:
    """Restrict a class on the cubic blow-up to the distinguished quadric.

    The strict transform of a smooth quadric through the twisted cubic is
    again a quadric, on which the curve sits as a ``(2, 1)``-divisor; the
    induced restriction sends ``(a, b)`` to ``(a + 2b)S + (a + b)F``.
    """
    return RuledSurfaceClass(d.a + 2 * d.b, d.a + d.b)
