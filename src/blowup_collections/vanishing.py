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
of ``O(-D)`` vanishing (or, on the cubic model, undecided).  Case ``k`` is
family ``B(k-1)`` negated:

* point model, 7 cases: the line ``a + b = -1`` (``B0``) plus the sporadic
  classes ``(-1,1), (-1,2), (-2,0), (-2,2), (-3,0), (-3,1)`` (``B1..B6``);
* line model, 4 cases: the lines ``a + b = -1`` and ``a + b = -2``
  (``B0, B1``) plus ``(-1,1)`` and ``(-3,0)`` (``B2, B3``);
* cubic model, 9 decided cases: the line ``a + 2b = -1`` (``B0``) plus
  ``(-1,1), (-2,0), (-2,1), (-3,0), (-4,2), (-7,4), (0,-1), (3,-3)``
  (``B1..B8``); and two undecided cases (``B9, B10``), where the quadratic
  cofactor of ``chi`` vanishes: ``a < -3, a + 2b > 3`` (case 10) and
  ``a > -1, a + 2b < -3`` (case 11).

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
from typing import NamedTuple, Optional, Union

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
# the hot loops compare against these module-level bindings instead.
_ZERO = VanishingVerdict.ZERO
_NONZERO = VanishingVerdict.NONZERO
_UNKNOWN = VanishingVerdict.UNKNOWN


def h0_vanishes(model: VarietyModel, d: Union[DivisorClass, tuple[int, int]]) -> bool:
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


def h3_vanishes(model: VarietyModel, d: Union[DivisorClass, tuple[int, int]]) -> bool:
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
        if self.kind == "sporadic":
            if t != 0:
                raise ValueError(f"family {self.label} has a single member")
            return self.base
        if self.kind != "parameterized":
            raise ValueError(f"family {self.label} has no affine parameterization")
        (a, b), (da, db) = self.base, self.direction
        return DivisorClass(a + t * da, b + t * db)


def _parameterized(
    label: str, base: tuple[int, int], direction: tuple[int, int], letter: str
) -> LineBundleFamily:
    return LineBundleFamily(
        label=label,
        kind="parameterized",
        base=DivisorClass(*base),
        direction=DivisorClass(*direction),
        param_name=letter,
    )


def _sporadic(label: str, base: tuple[int, int]) -> LineBundleFamily:
    return LineBundleFamily(label=label, kind="sporadic", base=DivisorClass(*base))


def _undecided(label: str) -> LineBundleFamily:
    return LineBundleFamily(label=label, kind="undecided")


FAMILIES: dict[str, tuple[LineBundleFamily, ...]] = {
    "point": (
        _parameterized("B0", (0, 1), (1, -1), "a"),
        _sporadic("B1", (1, -1)),
        _sporadic("B2", (1, -2)),
        _sporadic("B3", (2, 0)),
        _sporadic("B4", (2, -2)),
        _sporadic("B5", (3, 0)),
        _sporadic("B6", (3, -1)),
    ),
    "line": (
        _parameterized("B0", (0, 1), (1, -1), "a"),
        _parameterized("B1", (0, 2), (1, -1), "b"),
        _sporadic("B2", (1, -1)),
        _sporadic("B3", (3, 0)),
    ),
    "cubic": (
        _parameterized("B0", (1, 0), (2, -1), "b"),
        _sporadic("B1", (1, -1)),
        _sporadic("B2", (2, 0)),
        _sporadic("B3", (2, -1)),
        _sporadic("B4", (3, 0)),
        _sporadic("B5", (4, -2)),
        _sporadic("B6", (7, -4)),
        _sporadic("B7", (0, 1)),
        _sporadic("B8", (-3, 3)),
        _undecided("B9"),
        _undecided("B10"),
    ),
}


# The undecided families of the cubic model, negated: the classes on the
# conic in one of two regions.
_CONIC_REGIONS = {
    "B9": lambda a, b: a < -3 and a + 2 * b > 3 and cubic_chi_cofactor(a, b) == 0,
    "B10": lambda a, b: a > -1 and a + 2 * b < -3 and cubic_chi_cofactor(a, b) == 0,
}


def _compile_cases(families: tuple[LineBundleFamily, ...]):
    """One model's lines ``(p, q, c, case)``, sporadic classes and regions.

    A parameterized family with base ``(a0, b0)`` and direction ``(da, db)``
    negates to the line ``-db*a + da*b == db*a0 - da*b0``, a sporadic family
    to its negated class, and an undecided family to its conic region.
    """
    lines, sporadic, regions = [], {}, []
    for case, fam in enumerate(families, 1):
        (a0, b0), (da, db) = fam.base, fam.direction
        if fam.kind == "parameterized":
            lines.append((-db, da, db * a0 - da * b0, case))
        elif fam.kind == "sporadic":
            sporadic[(-a0, -b0)] = case
        else:
            regions.append((_CONIC_REGIONS[fam.label], case))
    return tuple(lines), sporadic, tuple(regions)


_CASES = {tag: _compile_cases(families) for tag, families in FAMILIES.items()}

# The verdict of case ``k`` at index ``k - 1``, compiled beside ``_CASES``.
_CASE_VERDICTS = {
    tag: tuple(_UNKNOWN if fam.kind == "undecided" else _ZERO for fam in families)
    for tag, families in FAMILIES.items()
}


def _case(tag: str, a: int, b: int) -> Optional[int]:
    """Index of the vanishing case containing ``(a, b)``, or ``None``.

    Case ``k`` is family ``B(k-1)`` of :data:`FAMILIES` negated.  The cases
    are pairwise disjoint, so the index is well defined.
    """
    try:
        lines, sporadic, regions = _CASES[tag]
    except KeyError:
        raise ValueError(f"no case analysis for tag {tag!r}") from None
    for p, q, c, case in lines:
        if p * a + q * b == c:
            return case
    case = sporadic.get((a, b))
    if case is not None:
        return case
    for inside, case in regions:
        if inside(a, b):
            return case
    return None


@lru_cache(maxsize=None)
def _cached_verdict(tag: str, a: int, b: int) -> VanishingVerdict:
    # The verdict memo, keyed by integers.
    case = _case(tag, a, b)
    if case is None:
        return _NONZERO
    return _CASE_VERDICTS[tag][case - 1]


def coh_zero(
    model: VarietyModel, d: Union[DivisorClass, tuple[int, int]]
) -> VanishingVerdict:
    """Three-valued vanishing verdict for all cohomology of ``O(D)``.

    ``d`` is a :class:`DivisorClass` or any integer pair ``(a, b)``.
    ``UNKNOWN`` can occur only on the twisted-cubic model.  Results are
    memoized by the integer key ``(tag, a, b)``; the pair and class scans
    and the leaf re-check of the enumeration read that memo directly.

    EXAMPLES::

        >>> coh_zero(variety_model("point"), DivisorClass(-2, 2))
        <VanishingVerdict.ZERO: 'Zero'>
        >>> coh_zero(variety_model("line"), DivisorClass(0, 0))
        <VanishingVerdict.NONZERO: 'Nonzero'>
    """
    a, b = d
    return _cached_verdict(model.tag, a, b)


def _numerically_trivial(
    model: VarietyModel, d: Union[DivisorClass, tuple[int, int]], chi: int
) -> bool:
    """Whether ``chi = 0`` and ``H^0 = H^3 = 0``, read without the case table.

    ``chi`` is ``euler_char(model, d)``, which the caller passes in: the
    grid checks read it from their table, and it is tested first, so the
    section rules run only on the classes with ``chi = 0``.  ``d`` is a
    :class:`DivisorClass` or any integer pair ``(a, b)``.

    Necessary for all cohomology of ``O(D)`` to vanish, or to be undecided,
    on every model; sufficient on the point and line models, where ``H^1``
    and ``H^2`` cannot both be nonzero.
    """
    return chi == 0 and h0_vanishes(model, d) and h3_vanishes(model, d)
