"""Exact intersection theory on three rank-2 Picard lattices.

The package studies the blow-up of projective 3-space along one of three
smooth centers: a single point, a line, or a twisted cubic curve.  Each of
the resulting threefolds has Picard rank 2 with basis ``{H, E}``, where
``H`` is the pullback of the hyperplane class and ``E`` is the exceptional
divisor.  A divisor class is an integer pair ``(a, b)`` standing for
``a*H + b*E``.

This module fixes the numerical model of each variety -- the four triple
intersection numbers ``(H^3, H^2*E, H*E^2, E^3)``, the canonical class,
and the second Chern class of the tangent bundle -- and computes the
holomorphic Euler characteristic ``chi(D) = sum_i (-1)^i h^i(D)`` in two
independent ways:

* :func:`euler_char` expands the degree-3 Riemann-Roch polynomial

  ``chi(D) = c1*c2/24 + (c1^2 + c2)*D/12 + c1*D^2/4 + D^3/6``

  cleared of denominators.  The ten integer coefficients of the cubic
  ``24*chi(a, b)`` are derived once per model from its triple numbers,
  canonical class and ``c2`` (with :func:`triple_product`), and each call
  evaluates that cubic in plain integers and certifies that 24 divides
  the result.  Nothing on this route reads the closed forms below;

* :func:`euler_char_closed` evaluates a factored cubic polynomial in
  ``(a, b)`` specific to each variety, again as the integer ``6*chi(D)``
  with certified divisibility.

Only integer arithmetic is used; a remainder is never rounded away.

The two must agree everywhere, which the test-suite checks both
symbolically and on large integer inputs.

EXAMPLES::

    >>> X = variety_model("point")
    >>> euler_char(X, DivisorClass(0, 0))
    1
    >>> euler_char_closed(X, DivisorClass(-1, 2))
    0
    >>> serre_dual(X, DivisorClass(0, 0))
    DivisorClass(a=-4, b=2)
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import NamedTuple

__all__ = [
    "DivisorClass",
    "VarietyModel",
    "VARIETY_TAGS",
    "ZERO_CLASS",
    "H_CLASS",
    "E_CLASS",
    "variety_model",
    "triple_product",
    "euler_char",
    "euler_char_closed",
    "cubic_chi_cofactor",
    "serre_dual",
]


class DivisorClass(NamedTuple):
    """The divisor class ``a*H + b*E`` on a rank-2 Picard lattice.

    Instances are immutable, hashable and totally ordered (lexicographically
    by ``(a, b)``), so they can serve as dictionary keys and be sorted into
    deterministic reports.  The class is a named tuple: hashing and
    comparison are the tuple's own and run in C, and an instance compares
    equal to the bare pair ``(a, b)``.  The public constructor
    ``DivisorClass(a, b)`` is the named tuple's generated ``__new__``, a
    Python function and so one interpreter frame per instance.  Inside the
    package, arithmetic and the hot loops build classes with the private
    ``_divisor((a, b))`` instead, ``tuple.__new__`` bound to this class,
    which runs in C and takes one pair; its instances are the same in
    type, equality, hash, ``repr``, ordering and pickling.  ``+``, ``-``
    and ``*`` are lattice arithmetic, not tuple concatenation or
    repetition.

    The package's other records are named tuples too; those whose
    constructor validates, such as ``Collection`` and ``CellCondition``,
    subclass a private named-tuple base and check their fields in
    ``__new__``.  They are cheap to create at import, which every cold
    command-line call pays for.
    """

    a: int
    b: int

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return _divisor((self.a + other.a, self.b + other.b))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return _divisor((self.a - other.a, self.b - other.b))

    def __neg__(self) -> "DivisorClass":
        return _divisor((-self.a, -self.b))

    def __mul__(self, k: int) -> "DivisorClass":
        if not isinstance(k, int):
            return NotImplemented
        return _divisor((k * self.a, k * self.b))

    __rmul__ = __mul__

    def __str__(self) -> str:
        """Human-readable form, e.g. ``2H-E``, ``H``, ``-3H+2E``, ``0``."""
        terms = []
        for coeff, sym in ((self.a, "H"), (self.b, "E")):
            if coeff == 0:
                continue
            sign = "-" if coeff < 0 else ("+" if terms else "")
            mag = abs(coeff)
            terms.append(f"{sign}{'' if mag == 1 else mag}{sym}")
        return "".join(terms) or "0"


# ``_divisor((a, b))`` is ``DivisorClass(a, b)`` built in C, without the
# generated ``__new__`` frame.  Nothing checks that the argument is a pair
# of integers, so only package code that has just computed one calls it.
_divisor = partial(tuple.__new__, DivisorClass)

ZERO_CLASS = DivisorClass(0, 0)
H_CLASS = DivisorClass(1, 0)
E_CLASS = DivisorClass(0, 1)


class _ModelData(NamedTuple):
    tag: str
    triple_numbers: tuple[int, int, int, int]
    canonical: DivisorClass
    c2: tuple[int, int]


class VarietyModel(_ModelData):
    """Numerical model of one blow-up of projective 3-space.

    INPUT:

    - ``tag`` -- one of ``"point"``, ``"line"``, ``"cubic"`` (the center
      that was blown up: a point, a line, or a twisted cubic curve);
    - ``triple_numbers`` -- the tuple ``(H^3, H^2*E, H*E^2, E^3)`` of
      triple intersection numbers;
    - ``canonical`` -- the canonical divisor class ``K``;
    - ``c2`` -- coefficients ``(x, y)`` of the second Chern class of the
      tangent bundle written as ``x*H^2 + y*H*E`` in the degree-2 part of
      the intersection ring.

    A named tuple of these four fields: equality, ordering and hashing are
    the tuple's, so a model compares equal to the bare 4-tuple, and its
    fields cannot be assigned.  Unlike the other records it keeps an
    instance dictionary, where the Riemann-Roch coefficients behind
    :func:`euler_char` are stored when first derived from the fields; a
    model with other data never shares them, whatever its tag.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r} of a VarietyModel")

    @cached_property
    def _chi_coefficients(self) -> tuple[int, ...]:
        return _riemann_roch_coefficients(self)


_MODELS = {
    "point": VarietyModel(
        tag="point",
        triple_numbers=(1, 0, 0, 1),
        canonical=DivisorClass(-4, 2),
        c2=(6, 0),
    ),
    "line": VarietyModel(
        tag="line",
        triple_numbers=(1, 0, -1, -2),
        canonical=DivisorClass(-4, 1),
        c2=(7, -4),
    ),
    "cubic": VarietyModel(
        tag="cubic",
        triple_numbers=(1, 0, -3, -10),
        canonical=DivisorClass(-4, 1),
        c2=(9, -4),
    ),
}

VARIETY_TAGS = ("point", "line", "cubic")


def variety_model(tag: str) -> VarietyModel:
    """Return the fixed numerical model for one of the three varieties.

    Raises ``ValueError`` for an unrecognized tag.
    """
    try:
        return _MODELS[tag]
    except KeyError:
        raise ValueError(
            f"unknown variety tag {tag!r}; expected one of {', '.join(VARIETY_TAGS)}"
        ) from None


def triple_product(
    model: VarietyModel,
    d1: DivisorClass,
    d2: DivisorClass,
    d3: DivisorClass,
) -> int:
    """Symmetric trilinear intersection product ``d1 . d2 . d3``.

    Expanded multilinearly from the four generators recorded in
    ``model.triple_numbers``.

    EXAMPLES::

        >>> X = variety_model("cubic")
        >>> triple_product(X, H_CLASS, E_CLASS, E_CLASS)
        -3
    """
    h3, h2e, he2, e3 = model.triple_numbers
    a1, b1 = d1.a, d1.b
    a2, b2 = d2.a, d2.b
    a3, b3 = d3.a, d3.b
    return (
        a1 * a2 * a3 * h3
        + (a1 * a2 * b3 + a1 * b2 * a3 + b1 * a2 * a3) * h2e
        + (a1 * b2 * b3 + b1 * a2 * b3 + b1 * b2 * a3) * he2
        + b1 * b2 * b3 * e3
    )


def _c2_pair(model: VarietyModel, d: DivisorClass) -> int:
    """Degree pairing ``c2(TX) . d`` of the second Chern class with ``d``."""
    x, y = model.c2
    return x * triple_product(model, H_CLASS, H_CLASS, d) + y * triple_product(
        model, H_CLASS, E_CLASS, d
    )


def _exact_quotient(
    numerator: int, denominator: int, route: str, model: VarietyModel, d: DivisorClass
) -> int:
    """Certify that ``numerator / denominator`` is an integer and return it.

    Rounding is never performed: a remainder indicates broken model data
    and raises ``ArithmeticError`` naming the ``route`` that produced it.
    The two Euler-characteristic routes divide inline and call this only
    on a remainder, to raise the error; ``d`` may be a bare pair, and the
    message names it as a class either way.
    """
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(
            f"{route}({DivisorClass(*d)}) on the {model.tag} model evaluated to the "
            f"non-integer {numerator}/{denominator}"
        )
    return quotient


def _riemann_roch_coefficients(model: VarietyModel) -> tuple[int, ...]:
    """The ten coefficients of the cubic ``24*chi(a, b)`` on one model.

    Expands ``24*chi = c1*c2 + 2*(c1^2 + c2).D + 6*c1.D^2 + 4*D^3`` with
    ``c1 = -K`` and ``D = a*H + b*E`` trilinearly in the generators, and
    returns the coefficients of ``1, a, b, a^2, a*b, b^2, a^3, a^2*b,
    a*b^2, b^3`` in that order.
    """
    c1 = -model.canonical

    def t(d1: DivisorClass, d2: DivisorClass, d3: DivisorClass) -> int:
        return triple_product(model, d1, d2, d3)

    H, E = H_CLASS, E_CLASS
    return (
        _c2_pair(model, c1),
        2 * (t(c1, c1, H) + _c2_pair(model, H)),
        2 * (t(c1, c1, E) + _c2_pair(model, E)),
        6 * t(c1, H, H),
        12 * t(c1, H, E),
        6 * t(c1, E, E),
        4 * t(H, H, H),
        12 * t(H, H, E),
        12 * t(H, E, E),
        4 * t(E, E, E),
    )


def euler_char(model: VarietyModel, d: DivisorClass) -> int:
    """Holomorphic Euler characteristic via the Riemann-Roch expansion.

    Evaluates ``24*chi = c1*c2 + 2*(c1^2 + c2).d + 6*c1.d^2 + 4*d^3``
    (``c1 = -K``) as a cubic in ``(a, b)`` whose integer coefficients are
    derived once per model from its triple numbers, canonical class and
    ``c2``, then divides by 24 with exactness certified: ``divmod`` runs
    inline, and a remainder raises ``ArithmeticError`` through
    :func:`_exact_quotient`.  Nothing here reads the factored forms of
    :func:`euler_char_closed`.

    EXAMPLES::

        >>> euler_char(variety_model("line"), DivisorClass(-3, 0))
        0
    """
    k, ka, kb, kaa, kab, kbb, kaaa, kaab, kabb, kbbb = model._chi_coefficients
    a, b = d
    twenty_four_chi = (
        k
        + a * (ka + a * (kaa + a * kaaa + b * kaab) + b * (kab + b * kabb))
        + b * (kb + b * (kbb + b * kbbb))
    )
    chi, remainder = divmod(twenty_four_chi, 24)
    if remainder:
        return _exact_quotient(twenty_four_chi, 24, "chi", model, d)
    return chi


def cubic_chi_cofactor(a: int, b: int) -> int:
    """Quadratic cofactor of ``chi`` on the twisted-cubic model.

    On that variety ``6*chi(a, b) = (a + 2*b + 1) * cubic_chi_cofactor(a, b)``.
    The integer zero set of this quadratic form drives both the undecided
    vanishing regions and the Diophantine system solved in
    :mod:`blowup_collections.diophantine`.
    """
    return a * a + 5 * a + 6 - 2 * a * b - 5 * b * b + b


def euler_char_closed(model: VarietyModel, d: DivisorClass) -> int:
    """Holomorphic Euler characteristic via a factored closed form.

    Independent of :func:`euler_char`: per variety, a product of low-degree
    integer polynomials divided by 6, again with exactness certified.
    ``d`` is a :class:`DivisorClass` or any integer pair ``(a, b)``, as for
    :func:`euler_char`, so the grid checks pass plain coordinate pairs.

    EXAMPLES::

        >>> euler_char_closed(variety_model("cubic"), DivisorClass(3, -3))
        0
    """
    a, b = d
    if model.tag == "point":
        numerator = (a + 1) * (a + 2) * (a + 3) + b * (b - 1) * (b - 2)
    elif model.tag == "line":
        numerator = (a - 2 * b + 3) * (a + b + 1) * (a + b + 2)
    elif model.tag == "cubic":
        numerator = (a + 2 * b + 1) * cubic_chi_cofactor(a, b)
    else:  # pragma: no cover - models are closed under variety_model
        raise ValueError(f"no closed form registered for tag {model.tag!r}")
    chi, remainder = divmod(numerator, 6)
    if remainder:
        return _exact_quotient(numerator, 6, "closed-form chi", model, d)
    return chi


def serre_dual(model: VarietyModel, d: DivisorClass) -> DivisorClass:
    """Serre-dual divisor class ``K - d``.

    Satisfies ``h^i(d) = h^(3-i)(serre_dual(d))`` on a smooth projective
    threefold, whence ``chi(d) = -chi(serre_dual(d))``.
    """
    return model.canonical - d

