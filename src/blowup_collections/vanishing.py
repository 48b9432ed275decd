"""Cohomology-vanishing oracle for line bundles on the three blow-ups.

For a divisor class ``D`` the question is whether *all* cohomology groups
``H^0..H^3`` of the line bundle ``O(D)`` vanish.  The answer is encoded as
a three-valued verdict:

* ``ZERO`` -- every cohomology group vanishes;
* ``NONZERO`` -- some group is provably nonzero;
* ``UNKNOWN`` -- undecided (occurs only on the twisted-cubic model, inside
  two infinite families of classes lying on an integral conic).

The decided part is a finite case analysis per variety, written once, as
the candidate families :data:`FAMILIES`: the classes ``D`` that can follow
the trivial bundle in an exceptional collection, those with all cohomology
of ``O(-D)`` vanishing (or, on the cubic model, undecided).  Each case is
one family negated, and the case lookup returns the family itself; the
paper's case ``k`` is family ``B(k-1)``, a number that survives only in
the printed failure lines of the grid checks:

* point model, 7 cases: the line ``a + b = -1`` (``B0``) plus the sporadic
  classes ``(-1,1), (-1,2), (-2,0), (-2,2), (-3,0), (-3,1)`` (``B1..B6``);
* line model, 4 cases: the lines ``a + b = -1`` and ``a + b = -2``
  (``B0, B1``) plus ``(-1,1)`` and ``(-3,0)`` (``B2, B3``);
* cubic model, 9 decided cases: the line ``a + 2b = -1`` (``B0``) plus
  ``(-1,1), (-2,0), (-2,1), (-3,0), (-4,2), (-7,4), (0,-1), (3,-3)``
  (``B1..B8``); and two undecided cases (``B9, B10``), where the quadratic
  cofactor of ``chi`` vanishes: ``a < -3, a + 2b > 3`` (case 10) and
  ``a > -1, a + 2b < -3`` (case 11).

The lookup runs a row at a time: for a fixed ``a`` it solves each case
once, a line for its one ``b``, the conic by one integer square root,
and returns the family of every class of a range of ``b``.  It is the
only reader of the case table; the verdict memo is its one-element row.

Supporting predicates: effectivity-driven vanishing of ``H^0`` and (via
Serre duality) ``H^3``.  With ``chi = 0`` they are necessary for a ``ZERO``
or ``UNKNOWN`` verdict, and sufficient for ``ZERO`` on the point and line
models; the verification layer checks every verdict against them.

EXAMPLES::

    >>> X = variety_model("cubic")
    >>> coh_zero(X, DivisorClass(0, -1))
    <VanishingVerdict.ZERO: 'Zero'>
    >>> coh_zero(X, DivisorClass(-23, 15))
    <VanishingVerdict.UNKNOWN: 'Unknown'>
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import isqrt
from typing import NamedTuple, Optional

from .geometry import (
    DivisorClass,
    VarietyModel,
    ZERO_CLASS,
    cubic_chi_cofactor,
)

__all__ = [
    "LineBundleFamily",
    "FAMILIES",
    "VanishingVerdict",
    "h0_vanishes",
    "h3_vanishes",
    "coh_zero",
]


class VanishingVerdict(Enum):
    """Three-valued answer to "do all cohomology groups of O(D) vanish?"."""

    ZERO = "Zero"
    NONZERO = "Nonzero"
    UNKNOWN = "Unknown"


# Each ``VanishingVerdict.X`` lookup goes through the enum's class machinery;
# the hot loops compare against these module-level bindings instead, unpacked
# in declaration order.
_ZERO, _NONZERO, _UNKNOWN = VanishingVerdict


def h0_vanishes(model: VarietyModel, d: tuple[int, int]) -> bool:
    """Whether ``H^0(O(D)) = 0``, i.e. ``D`` is not effective.

    ``d`` is a :class:`DivisorClass` or any integer pair ``(a, b)``.
    Global sections are pulled-back forms vanishing along the center with
    prescribed multiplicity, so ``H^0 = 0`` exactly when ``a < 0`` or the
    multiplicity budget goes negative: ``a + b < 0`` for the point and line
    centers and ``a + 2b < 0`` for the twisted cubic (whose secants force
    the doubled weight).
    """
    a, b = d
    if a < 0:
        return True
    if model.tag in ("point", "line"):
        return a + b < 0
    if model.tag == "cubic":
        return a + 2 * b < 0
    raise ValueError(f"no effectivity rule for tag {model.tag!r}")  # pragma: no cover


def h3_vanishes(model: VarietyModel, d: tuple[int, int]) -> bool:
    """Whether ``H^3(O(D)) = 0``; by Serre duality ``H^3(D) = H^0(K - D)^*``."""
    (ka, kb), (a, b) = model.canonical, d
    return h0_vanishes(model, (ka - a, kb - b))


class LineBundleFamily(NamedTuple):
    """One named family of candidate classes.

    ``kind`` is ``"parameterized"`` (affine line ``base + t*direction``),
    ``"sporadic"`` (a single class, ``direction == (0, 0)``), or
    ``"undecided"`` (cubic model only: the classes whose duals fall in one
    of the two undecided vanishing regions; membership is by predicate, not
    by affine formula).  ``param_name`` is the letter a parameterized
    family's parameter is printed with in the tables.
    """

    label: str
    kind: str
    base: DivisorClass = ZERO_CLASS
    direction: DivisorClass = ZERO_CLASS
    param_name: str = ""

    def member(self, t: int) -> DivisorClass:
        if self.kind == "sporadic" and t != 0:
            raise ValueError(f"family {self.label} has a single member")
        if self.kind == "undecided":
            raise ValueError(f"family {self.label} has no affine parameterization")
        (a, b), (da, db) = self.base, self.direction
        return DivisorClass(a + t * da, b + t * db)


def _sporadic(first: int, *bases: tuple[int, int]) -> tuple[LineBundleFamily, ...]:
    # Single-class families, labelled ``B<first>``, ``B<first + 1>``, ...
    return tuple(
        LineBundleFamily(f"B{k}", "sporadic", DivisorClass(*base))
        for k, base in enumerate(bases, first)
    )


FAMILIES: dict[str, tuple[LineBundleFamily, ...]] = {
    "point": (
        LineBundleFamily(
            "B0", "parameterized", DivisorClass(0, 1), DivisorClass(1, -1), "a"
        ),
        *_sporadic(1, (1, -1), (1, -2), (2, 0), (2, -2), (3, 0), (3, -1)),
    ),
    "line": (
        LineBundleFamily(
            "B0", "parameterized", DivisorClass(0, 1), DivisorClass(1, -1), "a"
        ),
        LineBundleFamily(
            "B1", "parameterized", DivisorClass(0, 2), DivisorClass(1, -1), "b"
        ),
        *_sporadic(2, (1, -1), (3, 0)),
    ),
    "cubic": (
        LineBundleFamily(
            "B0", "parameterized", DivisorClass(1, 0), DivisorClass(2, -1), "b"
        ),
        *_sporadic(1, (1, -1), (2, 0), (2, -1), (3, 0), (4, -2), (7, -4), (0, 1),
                   (-3, 3)),
        LineBundleFamily("B9", "undecided"),
        LineBundleFamily("B10", "undecided"),
    ),
}


# The undecided families of the cubic model, negated: the classes on the
# conic ``cubic_chi_cofactor(a, b) == 0`` in the region of their sign.  The
# two regions are Serre dual: ``D -> K - D`` negates both ``a + 2`` and
# ``a + 2b``.
_CONIC_REGIONS = {"B9": -1, "B10": 1}


def _in_conic_region(sign: int, a: int, b: int) -> bool:
    # The case lookup and ``families.family_members`` both read the regions
    # through here, each on its own solve of the conic.
    return sign * (a + 2) > 1 and sign * (a + 2 * b) < -3


def _compile_cases(families: tuple[LineBundleFamily, ...]):
    """One model's lines ``(p, q, c, fam)``, sporadic classes and regions.

    A parameterized family with base ``(a0, b0)`` and direction ``(da, db)``
    negates to the line ``-db*a + da*b == db*a0 - da*b0``, a sporadic family
    to its negated class, and an undecided family to its conic region's
    sign.
    """
    lines, sporadic, regions = [], {}, []
    for fam in families:
        (a0, b0), (da, db) = fam.base, fam.direction
        if fam.kind == "parameterized":
            lines.append((-db, da, db * a0 - da * b0, fam))
        elif fam.kind == "sporadic":
            sporadic[(-a0, -b0)] = fam
        else:
            regions.append((_CONIC_REGIONS[fam.label], fam))
    return lines, sporadic, regions


_CASES = {tag: _compile_cases(families) for tag, families in FAMILIES.items()}


def _case_row(tag: str, a: int, bs: range) -> list[Optional[LineBundleFamily]]:
    """For each ``b`` of ``bs``, the family whose negation holds ``(a, b)``.

    The family is one of ``FAMILIES[tag]``, or ``None``; the negated
    families are pairwise disjoint, so it is well defined and the cases
    can be written in any order.  ``bs`` is a range of step 1.  A line is
    solved for ``b`` once: every family direction has ``da != 0``, so
    ``q != 0``.  In ``b`` the conic is
    ``5b^2 + (2a - 1)*b - (a^2 + 5a + 6) = 0``, whose discriminant is
    ``24a^2 + 96a + 121``: one :func:`math.isqrt` gives its two candidate
    roots, each certified on the cofactor and sorted into its region.
    """
    if tag not in _CASES:
        raise ValueError(f"no case analysis for tag {tag!r}")
    lines, sporadic, regions = _CASES[tag]
    row, lo = [None] * len(bs), bs.start
    if regions:
        s = isqrt(24 * a * a + 96 * a + 121)
        for b in (1 - 2 * a - s) // 10, (1 - 2 * a + s) // 10:
            if b in bs and cubic_chi_cofactor(a, b) == 0:
                for sign, fam in regions:
                    if _in_conic_region(sign, a, b):
                        row[b - lo] = fam
    for (a0, b0), fam in sporadic.items():
        if a0 == a and b0 in bs:
            row[b0 - lo] = fam
    for p, q, c, fam in lines:
        b, rest = divmod(c - p * a, q)
        if not rest and b in bs:
            row[b - lo] = fam
    return row


def _verdict_row(tag: str, a: int, bs: range) -> list[VanishingVerdict]:
    """The verdict of each class of :func:`_case_row`.

    ``Zero`` in a decided family's negation, ``Unknown`` in an undecided
    one's and ``Nonzero`` outside every case: the one rule from family to
    verdict, read by the memo and by the grid checks.
    """
    return [
        _NONZERO if fam is None else _UNKNOWN if fam.kind == "undecided" else _ZERO
        for fam in _case_row(tag, a, bs)
    ]


@lru_cache(maxsize=None)
def _cached_verdict(tag: str, a: int, b: int) -> VanishingVerdict:
    # The verdict memo, keyed by integers: the one-element row.
    return _verdict_row(tag, a, range(b, b + 1))[0]


def coh_zero(model: VarietyModel, d: tuple[int, int]) -> VanishingVerdict:
    """Three-valued vanishing verdict for all cohomology of ``O(D)``.

    ``d`` is a :class:`DivisorClass` or any integer pair ``(a, b)``.
    ``UNKNOWN`` can occur only on the twisted-cubic model.  Results are
    memoized by the integer key ``(tag, a, b)``; the pair scans and the
    leaf re-check of the enumeration read that memo directly, while the
    grid checks read whole rows of verdicts and leave it alone.

    EXAMPLES::

        >>> coh_zero(variety_model("point"), DivisorClass(-2, 2))
        <VanishingVerdict.ZERO: 'Zero'>
        >>> coh_zero(variety_model("line"), DivisorClass(0, 0))
        <VanishingVerdict.NONZERO: 'Nonzero'>
    """
    return _cached_verdict(model.tag, *d)
