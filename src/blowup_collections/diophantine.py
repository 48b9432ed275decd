"""The Diophantine system behind extending undecided classes on the cubic model.

Write ``f`` for the quadratic cofactor of ``chi`` on the twisted-cubic
blow-up (:func:`blowup_collections.geometry.cubic_chi_cofactor`) and ``g``
for the full ``chi`` numerator ``g(a, b) = (a + 2b + 1) * f(a, b) = 6*chi``,
which :func:`blowup_collections.geometry.euler_char_closed` states.  A
normalized length-4 exceptional collection ``(O, O(D_1), O(D_2), O(D_3))``
whose members all have numerically trivial dual cohomology forces the
integer system

* ``f(-a_i, -b_i) = 0`` for each ``i``  (each dual lies on the conic), and
* ``g(a_i - a_j, b_i - b_j) = 0`` for each pair ``i > j``  (each difference
  has ``chi = 0``).

:func:`solve_claim_6_3` enumerates all solutions with every ``|a_i|,
|b_i|`` bounded by a window: they are the length-3 index chains of
:func:`blowup_collections.sequences._chains` over one bitmask row of
vanishing pairwise ``chi`` per conic point.  Within window 50 there are exactly four
ordered solutions, and each has all three duals ``-D_i`` inside the
*decided* vanishing cases -- none reaches the undecided conic regions,
which is how the non-extension claim for those regions follows.

The conic ``f = 0`` reduces by the substitution ``m = 2a - 2b + 5,
gamma = 2b - 1`` to the Pell-type equation ``m^2 - 6*gamma^2 = -5``, so its
integer points are sparse and spread exponentially; window 50 holds 16
points with ``f(-a, -b) = 0`` and window ``10**5`` holds 42.
:func:`dual_conic_points` solves for them one row ``b`` at a time.

EXAMPLES::

    >>> sols = solve_claim_6_3(50)
    >>> len(sols)
    4
    >>> sols[0]
    (0, 1, 2, 0, -3, 3)
"""

from __future__ import annotations

from math import isqrt

from .geometry import DivisorClass, euler_char_closed, variety_model
from .sequences import _chains

__all__ = [
    "dual_conic_points",
    "solve_claim_6_3",
]


def dual_conic_points(window: int) -> list[DivisorClass]:
    """All ``D`` with ``|a|, |b| <= window`` whose dual lies on the conic.

    These are the classes satisfying the first equation family
    ``f(-a, -b) = 0``; sorted lexicographically.  Row ``b`` is the quadratic
    ``a^2 - (2b + 5)*a + (6 - b - 5b^2) = 0`` with discriminant
    ``24b^2 + 24b + 1``.  When that is the square of an (odd) ``s``, the
    roots ``(2b + 5 -+ s) / 2`` are ``b + 2 - s//2`` and ``b + 3 + s//2``,
    so one :func:`math.isqrt` per row finds every point.
    """
    points = []
    for b in range(-window, window + 1):
        disc = 24 * b * b + 24 * b + 1
        s = isqrt(disc)
        if s * s == disc:
            points += [DivisorClass(b + 2 - s // 2, b), DivisorClass(b + 3 + s // 2, b)]
    return sorted(d for d in points if abs(d.a) <= window)


def solve_claim_6_3(window: int = 50) -> list[tuple[int, int, int, int, int, int]]:
    """All ordered solutions ``(a_1, b_1, a_2, b_2, a_3, b_3)`` in the window.

    INPUT:

    - ``window`` -- coordinate bound, at least 10.

    The solver first collects the conic points (first equation family),
    then reads the ordered triples with pairwise vanishing ``chi`` off
    the bitset chain search.  The points are sorted, so the index chains,
    and with them the solutions, come out sorted lexicographically.
    """
    if window < 10:
        raise ValueError("solution windows below 10 would clip known solutions")
    points = dual_conic_points(window)
    cubic = variety_model("cubic")
    # Bit j of rows[i]: points[i] may precede points[j] (chi of the
    # backward difference vanishes).
    rows = [
        sum(1 << j for j, later in enumerate(points)
            if euler_char_closed(cubic, (earlier.a - later.a, earlier.b - later.b)) == 0)
        for earlier in points
    ]
    return [
        (points[i].a, points[i].b, points[j].a, points[j].b, points[k].a, points[k].b)
        for i, j, k in _chains(rows, (1 << len(points)) - 1, 3)
    ]
