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
independent ways, each a row at a time (the classes ``(a, b)`` of one
``a`` for a sequence of ``b``):

* :func:`euler_char_row` expands the degree-3 Riemann-Roch polynomial

  ``chi(D) = c1*c2/24 + (c1^2 + c2)*D/12 + c1*D^2/4 + D^3/6``

  cleared of denominators.  The ten integer coefficients of the cubic
  ``24*chi(a, b)`` are derived once per model from its triple numbers,
  canonical class and ``c2`` (with :func:`triple_product`), and each row
  evaluates that cubic in plain integers and certifies that 24 divides
  every value.  Nothing on this route reads the closed forms below;

* :func:`euler_char_closed_row` evaluates a factored cubic polynomial in
  ``(a, b)`` specific to each variety, again as the integer ``6*chi(D)``
  with certified divisibility.

:func:`euler_char` and :func:`euler_char_closed` are the one-class rows.
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

from functools import lru_cache, partial
from typing import NamedTuple, Sequence

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

    # Any other operand is not a class: returning NotImplemented lets
    # Python raise its ``TypeError`` instead of an ``AttributeError``.
    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        try:
            return _divisor((self.a + other.a, self.b + other.b))
        except AttributeError:
            return NotImplemented

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        try:
            return _divisor((self.a - other.a, self.b - other.b))
        except AttributeError:
            return NotImplemented

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


class VarietyModel(NamedTuple):
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
    fields cannot be assigned.
    """

    tag: str
    triple_numbers: tuple[int, int, int, int]
    canonical: DivisorClass
    c2: tuple[int, int]


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


def _exact_row(
    route: str,
    model: VarietyModel,
    a: int,
    bs: Sequence[int],
    numerators: list[int],
    denominator: int,
) -> list[int]:
    """Certify that ``denominator`` divides each numerator; return the quotients.

    ``numerators[i]`` belongs to the class ``(a, bs[i])``.  Rounding is
    never performed: a remainder indicates broken model data, and the first
    one in the row raises ``ArithmeticError`` naming the ``route`` and the
    class.
    """
    for b, n in zip(bs, numerators):
        if n % denominator:
            raise ArithmeticError(
                f"{route}({_divisor((a, b))}) on the {model.tag} model evaluated to "
                f"the non-integer {n}/{denominator}"
            )
    return [n // denominator for n in numerators]


@lru_cache(maxsize=None)
def _riemann_roch_coefficients(model: VarietyModel) -> tuple[int, ...]:
    """The ten coefficients of the cubic ``24*chi(a, b)`` on one model.

    Expands ``24*chi = c1*c2 + 2*(c1^2 + c2).D + 6*c1.D^2 + 4*D^3`` with
    ``c1 = -K`` and ``D = a*H + b*E`` trilinearly in the generators, and
    returns the coefficients of ``1, a, b, a^2, a*b, b^2, a^3, a^2*b,
    a*b^2, b^3`` in that order.  Memoized by the whole model, so a model
    with other data never shares them, whatever its tag.
    """
    c1, H, E = -model.canonical, H_CLASS, E_CLASS
    x, y = model.c2

    def t(d1: DivisorClass, d2: DivisorClass, d3: DivisorClass) -> int:
        return triple_product(model, d1, d2, d3)

    def c2_dot(d: DivisorClass) -> int:  # the degree pairing c2(TX) . d
        return x * t(H, H, d) + y * t(H, E, d)

    return (
        c2_dot(c1),
        2 * (t(c1, c1, H) + c2_dot(H)),
        2 * (t(c1, c1, E) + c2_dot(E)),
        6 * t(c1, H, H),
        12 * t(c1, H, E),
        6 * t(c1, E, E),
        4 * t(H, H, H),
        12 * t(H, H, E),
        12 * t(H, E, E),
        4 * t(E, E, E),
    )


def euler_char_row(model: VarietyModel, a: int, bs: Sequence[int]) -> list[int]:
    """``chi(a, b)`` for each ``b`` of ``bs``, via the Riemann-Roch expansion.

    Evaluates ``24*chi = c1*c2 + 2*(c1^2 + c2).d + 6*c1.d^2 + 4*d^3``
    (``c1 = -K``) as a cubic in ``(a, b)`` whose integer coefficients are
    derived once per model from its triple numbers, canonical class and
    ``c2``.  Fixing the row's ``a`` leaves a cubic in ``b``; each value is
    divided by 24 with exactness certified by :func:`_exact_row`.  Nothing
    here reads the factored forms of :func:`euler_char_closed_row`.
    """
    k, ka, kb, kaa, kab, kbb, kaaa, kaab, kabb, kbbb = _riemann_roch_coefficients(model)
    c0 = k + a * (ka + a * (kaa + a * kaaa))
    c1 = kb + a * (kab + a * kaab)
    c2 = kbb + a * kabb
    return _exact_row(
        "chi", model, a, bs, [c0 + b * (c1 + b * (c2 + b * kbbb)) for b in bs], 24
    )


def euler_char(model: VarietyModel, d: DivisorClass) -> int:
    """Holomorphic Euler characteristic of ``d``, a class or integer pair.

    EXAMPLES::

        >>> euler_char(variety_model("line"), DivisorClass(-3, 0))
        0
    """
    a, b = d
    return euler_char_row(model, a, (b,))[0]


def cubic_chi_cofactor(a: int, b: int) -> int:
    """Quadratic cofactor of ``chi`` on the twisted-cubic model.

    On that variety ``6*chi(a, b) = (a + 2*b + 1) * cubic_chi_cofactor(a, b)``.
    The integer zero set of this quadratic form drives both the undecided
    vanishing regions and the Diophantine system solved in
    :mod:`blowup_collections.diophantine`.
    """
    return a * a + 5 * a + 6 - 2 * a * b - 5 * b * b + b


def euler_char_closed_row(model: VarietyModel, a: int, bs: Sequence[int]) -> list[int]:
    """``chi(a, b)`` for each ``b`` of ``bs``, via a factored closed form.

    Independent of :func:`euler_char_row`: per variety, a product of
    low-degree integer polynomials divided by 6, again with exactness
    certified.
    """
    if model.tag == "point":
        c = (a + 1) * (a + 2) * (a + 3)
        numerators = [c + b * (b - 1) * (b - 2) for b in bs]
    elif model.tag == "line":
        numerators = [(a - 2 * b + 3) * (a + b + 1) * (a + b + 2) for b in bs]
    elif model.tag == "cubic":
        numerators = [(a + 2 * b + 1) * cubic_chi_cofactor(a, b) for b in bs]
    else:  # pragma: no cover - models are closed under variety_model
        raise ValueError(f"no closed form registered for tag {model.tag!r}")
    return _exact_row("closed-form chi", model, a, bs, numerators, 6)


def euler_char_closed(model: VarietyModel, d: DivisorClass) -> int:
    """:func:`euler_char` via :func:`euler_char_closed_row`, on one class or pair.

    EXAMPLES::

        >>> euler_char_closed(variety_model("cubic"), DivisorClass(3, -3))
        0
    """
    a, b = d
    return euler_char_closed_row(model, a, (b,))[0]


def serre_dual(model: VarietyModel, d: DivisorClass) -> DivisorClass:
    """Serre-dual divisor class ``K - d``.

    Satisfies ``h^i(d) = h^(3-i)(serre_dual(d))`` on a smooth projective
    threefold, whence ``chi(d) = -chi(serre_dual(d))``.  ``d`` is a
    :class:`DivisorClass` or any integer pair ``(a, b)``.
    """
    (ka, kb), (a, b) = model.canonical, d
    return _divisor((ka - a, kb - b))

