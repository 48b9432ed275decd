"""Cohomology-vanishing oracle for line bundles on the three blow-ups.

For a divisor class ``D`` the question is whether *all* cohomology groups
``H^0..H^3`` of the line bundle ``O(D)`` vanish.  The answer is encoded as
a three-valued verdict:

* ``ZERO`` -- every cohomology group vanishes;
* ``NONZERO`` -- some group is provably nonzero;
* ``UNKNOWN`` -- undecided (occurs only on the twisted-cubic model, inside
  two infinite families of classes lying on an integral conic).

The decided part is a finite case analysis per variety:

* point model, 7 cases: the line ``a + b = -1`` plus the sporadic classes
  ``(-1,1), (-1,2), (-2,0), (-2,2), (-3,0), (-3,1)``;
* line model, 4 cases: the lines ``a + b = -1`` and ``a + b = -2`` plus
  ``(-1,1)`` and ``(-3,0)``;
* cubic model, 9 decided cases: the line ``a + 2b = -1`` plus
  ``(-1,1), (-2,0), (-2,1), (-3,0), (-4,2), (-7,4), (0,-1), (3,-3)``;
  and two undecided regions where the quadratic cofactor of ``chi``
  vanishes:  ``a < -3, a + 2b > 3`` (case index 10) and
  ``a > -1, a + 2b < -3`` (case index 11).

Supporting predicates: effectivity-driven vanishing of ``H^0`` and (via
Serre duality) ``H^3``; and an independent reconstruction of the verdict
from ``chi`` alone on the point and line models, where the intermediate
cohomology of a line bundle cannot survive in both degrees at once.

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
from typing import Optional

from .geometry import (
    DivisorClass,
    VarietyModel,
    cubic_chi_cofactor,
    euler_char,
    serre_dual,
)

__all__ = [
    "VanishingVerdict",
    "h0_vanishes",
    "h3_vanishes",
    "coh_zero",
    "classified_case",
    "coh_zero_via_chi",
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


def h0_vanishes(model: VarietyModel, d: DivisorClass) -> bool:
    """Whether ``H^0(O(D)) = 0``, i.e. ``D`` is not effective.

    Global sections are pulled-back forms vanishing along the center with
    prescribed multiplicity, so ``H^0 = 0`` exactly when ``a < 0`` or the
    multiplicity budget goes negative: ``a + b < 0`` for the point and line
    centers and ``a + 2b < 0`` for the twisted cubic (whose secants force
    the doubled weight).
    """
    if d.a < 0:
        return True
    if model.tag in ("point", "line"):
        return d.a + d.b < 0
    if model.tag == "cubic":
        return d.a + 2 * d.b < 0
    raise ValueError(f"no effectivity rule for tag {model.tag!r}")  # pragma: no cover


def h3_vanishes(model: VarietyModel, d: DivisorClass) -> bool:
    """Whether ``H^3(O(D)) = 0``; by Serre duality ``H^3(D) = H^0(K - D)^*``."""
    return h0_vanishes(model, serre_dual(model, d))


_POINT_SPORADIC = {
    (-1, 1): 2,
    (-1, 2): 3,
    (-2, 0): 4,
    (-2, 2): 5,
    (-3, 0): 6,
    (-3, 1): 7,
}

_LINE_SPORADIC = {
    (-1, 1): 3,
    (-3, 0): 4,
}

_CUBIC_SPORADIC = {
    (-1, 1): 2,
    (-2, 0): 3,
    (-2, 1): 4,
    (-3, 0): 5,
    (-4, 2): 6,
    (-7, 4): 7,
    (0, -1): 8,
    (3, -3): 9,
}


def classified_case(model: VarietyModel, d: DivisorClass) -> Optional[int]:
    """Index of the vanishing case containing ``d``, or ``None``.

    Cases are numbered per variety as in the module docstring; on the cubic
    model indices 10 and 11 are the two *undecided* regions.  The cases are
    pairwise disjoint, so the index is well defined.
    """
    return _case(model.tag, d.a, d.b)


def _case(tag: str, a: int, b: int) -> Optional[int]:
    """:func:`classified_case` on bare coordinates, as the verdict memo asks it."""
    if tag == "point":
        if a + b == -1:
            return 1
        return _POINT_SPORADIC.get((a, b))
    if tag == "line":
        if a + b == -1:
            return 1
        if a + b == -2:
            return 2
        return _LINE_SPORADIC.get((a, b))
    if tag == "cubic":
        if a + 2 * b == -1:
            return 1
        sporadic = _CUBIC_SPORADIC.get((a, b))
        if sporadic is not None:
            return sporadic
        if cubic_chi_cofactor(a, b) == 0:
            if a < -3 and a + 2 * b > 3:
                return 10
            if a > -1 and a + 2 * b < -3:
                return 11
        return None
    raise ValueError(f"no case analysis for tag {tag!r}")  # pragma: no cover


@lru_cache(maxsize=None)
def _cached_verdict(tag: str, a: int, b: int) -> VanishingVerdict:
    # The verdict memo, keyed by integers.  Only the cubic model has the
    # undecided cases 10 and 11.
    case = _case(tag, a, b)
    if case is None:
        return _NONZERO
    return _UNKNOWN if case >= 10 else _ZERO


def coh_zero(model: VarietyModel, d: DivisorClass) -> VanishingVerdict:
    """Three-valued vanishing verdict for all cohomology of ``O(D)``.

    ``UNKNOWN`` can occur only on the twisted-cubic model.  Results are
    memoized by the integer key ``(tag, a, b)``, which the leaf re-check
    of the enumeration reads directly.

    EXAMPLES::

        >>> coh_zero(variety_model("point"), DivisorClass(-2, 2))
        <VanishingVerdict.ZERO: 'Zero'>
        >>> coh_zero(variety_model("line"), DivisorClass(0, 0))
        <VanishingVerdict.NONZERO: 'Nonzero'>
    """
    return _cached_verdict(model.tag, d.a, d.b)


def coh_zero_via_chi(model: VarietyModel, d: DivisorClass) -> VanishingVerdict:
    """Independent vanishing test through the Euler characteristic.

    On the point and line models the intermediate cohomology of a line
    bundle cannot be nonzero in degrees 1 and 2 simultaneously, so all
    cohomology vanishes exactly when ``H^0 = H^3 = 0`` and ``chi = 0``.
    That reasoning is *not* available on the twisted-cubic model, and this
    function refuses to run there.

    Used by the verification layer to cross-check :func:`coh_zero`.
    """
    if model.tag == "cubic":
        raise ValueError(
            "coh_zero_via_chi applies only to the point and line models; "
            "intermediate cohomology is not controlled on the cubic model"
        )
    return _ZERO if _numerically_trivial(model, d) else _NONZERO


def _numerically_trivial(model: VarietyModel, d: DivisorClass) -> bool:
    """Whether ``H^0 = H^3 = 0`` and ``chi = 0``.

    Necessary for all cohomology of ``O(D)`` to vanish on every model, and
    sufficient on the point and line models.
    """
    return (
        h0_vanishes(model, d)
        and h3_vanishes(model, d)
        and euler_char(model, d) == 0
    )
