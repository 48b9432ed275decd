"""Candidate line-bundle families and the catalogue of collection types.

Candidates
----------

The candidate families ``B0, B1, ...`` of each variety, the classes that
can follow the trivial bundle, are the table
:data:`~blowup_collections.vanishing.FAMILIES`, whose negations are the
vanishing cases.  :func:`family_members` generates the members of every
family; the tables read all of them, and the enumeration those inside its
coordinate box.

Types
-----

The complete classification of normalized length-6 exceptional collections
consists of finitely many *types*, each a pattern with 0, 1 or 2 integer
parameters: 9 types for the point model, 2 two-parameter types for the
line model, and 15 types for the cubic model.  This module stores each
pattern only as its compiled rows (one affine slot per entry, see
:class:`_TypePattern`), instantiates them (:func:`type_instance`,
:func:`expected_instances`) and inverts them (:func:`matching_type_labels`,
on any twist of a length-6 collection).  The catalogue is collision-free,
so a catalogue collection matches exactly one label.

EXAMPLES::

    >>> [label] = matching_type_labels(type_instance("point", 1, (3,)))
    >>> (label.index, label.params)
    (1, (3,))
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple, Optional, Sequence

from .geometry import DivisorClass, VarietyModel, ZERO_CLASS, _divisor
from .diophantine import dual_conic_points
from .vanishing import FAMILIES, LineBundleFamily, _CONIC_REGIONS, _in_conic_region
from .sequences import Collection, normalize

__all__ = [
    "family_labels",
    "family_by_label",
    "family_members",
    "TypeLabel",
    "type_indices",
    "type_param_count",
    "type_instance",
    "expected_instances",
    "matching_type_labels",
]


_FAMILY_INDEX = {
    variety: {fam.label: fam for fam in families}
    for variety, families in FAMILIES.items()
}


def family_labels(variety: str) -> tuple[str, ...]:
    return tuple(f.label for f in FAMILIES[variety])


def family_by_label(variety: str, label: str) -> LineBundleFamily:
    fam = _FAMILY_INDEX[variety].get(label)
    if fam is None:
        raise ValueError(f"no family {label!r} on the {variety} model")
    return fam


def family_members(
    model: VarietyModel, window: int
) -> list[list[tuple[int, DivisorClass]]]:
    """The ``(t, class)`` members of every family of the model, in label order.

    Parameterized families give ``(t, base + t*direction)`` for ``t`` in
    ``[-window, window]``, and sporadic families their single class at
    ``t = 0``.  The undecided families (cubic model) take, each at a dummy
    ``t = 0``, the classes of one
    :func:`~blowup_collections.diophantine.dual_conic_points` solve whose
    negations lie in their conic region, out to the largest coordinate of
    the other members (``2*window + 1`` on the cubic model from window 3 on).
    That solve runs along ``b``, the case lookup's along ``a``.

    Each family's a-coordinate is ``base_a + t*da`` with ``base_a == 0`` or
    ``|da| >= 2`` (and ``|base_a| <= 1``), so a member inside the box
    ``|a|, |b| <= window`` has ``|t| <= window``: the members inside the
    box are all the candidate classes there.
    """
    members: dict[str, list[tuple[int, DivisorClass]]] = {}
    for fam in FAMILIES[model.tag]:
        if fam.kind == "parameterized":
            members[fam.label] = [(t, fam.member(t)) for t in range(-window, window + 1)]
        else:
            members[fam.label] = [(0, fam.base)] if fam.kind == "sporadic" else []
    regions = [
        (_CONIC_REGIONS[fam.label], members[fam.label])
        for fam in FAMILIES[model.tag] if fam.kind == "undecided"
    ]
    if regions:
        reach = max(abs(c) for group in members.values() for _, d in group for c in d)
        for d in dual_conic_points(reach):
            for sign, group in regions:
                if _in_conic_region(sign, -d.a, -d.b):
                    group.append((0, d))
    return list(members.values())


class TypeLabel(NamedTuple):
    """Identifier of one classification type, e.g. type (1) at ``a = 3``."""

    variety: str
    index: int
    params: tuple[int, ...] = ()

    def render(self) -> str:
        fam = _TYPE_PATTERNS[self.variety][self.index]
        if not self.params:
            return f"({self.index})"
        named = ", ".join(
            f"{name}={value}" for name, value in zip(fam.param_names, self.params)
        )
        return f"({self.index})[{named}]"

    def to_json_dict(self) -> dict:
        return {
            "variety": self.variety,
            "index": self.index,
            "params": list(self.params),
        }


_Row = tuple[int, int, int, int, int]


class _TypePattern(NamedTuple):
    """One catalogue type: its parameter names and its compiled ``rows``.

    Slot ``k`` at parameters ``params`` is the class
    ``(a0 + t*da, b0 + t*db)`` for its row ``(a0, b0, da, db, p)``, where
    ``t`` is entry ``p`` of ``(*params, 0)``.  A fixed slot has
    ``da = db = 0`` and ``p = -1``, so it reads the trailing 0; a member
    slot takes ``(a0, b0)`` from its family's base plus ``shift`` steps and
    ``(da, db)`` from the family's direction, whose ``da`` is never 0.
    Every parameter has at least one member slot.
    """

    param_names: tuple[str, ...]
    rows: tuple[_Row, ...]


def _F(a: int, b: int) -> _Row:
    return (a, b, 0, 0, -1)


def _M(family_label: str, param_index: int = 0, shift: int = 0) -> tuple[str, int, int]:
    return (family_label, param_index, shift)


def _pattern(variety, param_names, slots) -> _TypePattern:
    """Compile fixed rows (:func:`_F`) and member slots (:func:`_M`) into rows."""
    rows = []
    for slot in slots:
        if isinstance(slot[0], str):
            label, param_index, shift = slot
            fam = family_by_label(variety, label)
            (a, b), (da, db) = fam.base, fam.direction
            slot = (a + shift * da, b + shift * db, da, db, param_index)
        rows.append(slot)
    return _TypePattern(tuple(param_names), tuple(rows))


# Each variety's types are listed in ascending index order, which is the
# order expected_instances and matching_type_labels report them in.
_TYPE_PATTERNS: dict[str, dict[int, _TypePattern]] = {
    "point": {
        1: _pattern("point", ("a",),
                    [_F(1, -1), _F(2, -2), _M("B0"), _M("B0", 0, 1), _M("B0", 0, 2)]),
        2: _pattern("point", ("a",),
                    [_F(1, -1), _M("B0"), _M("B0", 0, 1), _M("B0", 0, 2), _F(3, -1)]),
        3: _pattern("point", ("a",),
                    [_M("B0"), _M("B0", 0, 1), _M("B0", 0, 2), _F(2, 0), _F(3, -1)]),
        4: _pattern("point", (),
                    [_F(1, -1), _F(1, 0), _F(2, -2), _F(2, -1), _F(3, -2)]),
        5: _pattern("point", (),
                    [_F(0, 1), _F(1, -1), _F(1, 0), _F(2, -1), _F(3, -1)]),
        6: _pattern("point", (),
                    [_F(1, -2), _F(1, -1), _F(2, -2), _F(3, -2), _F(4, -3)]),
        7: _pattern("point", (),
                    [_F(0, 1), _F(1, 0), _F(2, 0), _F(3, -1), _F(3, 0)]),
        8: _pattern("point", (),
                    [_F(1, -1), _F(2, -1), _F(3, -2), _F(3, -1), _F(4, -3)]),
        9: _pattern("point", (),
                    [_F(1, 0), _F(2, -1), _F(2, 0), _F(3, -2), _F(3, -1)]),
    },
    "line": {
        1: _pattern("line", ("a", "b"),
                    [_M("B0", 0, 0), _M("B0", 0, 1),
                     _M("B1", 1, 0), _M("B1", 1, 1), _F(3, 0)]),
        2: _pattern("line", ("a", "b"),
                    [_F(1, -1), _M("B0", 0, 0), _M("B0", 0, 1),
                     _M("B1", 1, 0), _M("B1", 1, 1)]),
    },
    "cubic": {
        1: _pattern("cubic", (),
                    [_F(1, 0), _F(3, -1), _F(0, 1), _F(2, 0), _F(3, 0)]),
        2: _pattern("cubic", (),
                    [_F(2, -1), _F(-1, 1), _F(1, 0), _F(2, 0), _F(3, -1)]),
        3: _pattern("cubic", (),
                    [_F(-3, 2), _F(-1, 1), _F(0, 1), _F(1, 0), _F(2, 0)]),
        4: _pattern("cubic", (),
                    [_F(2, -1), _F(3, -1), _F(4, -2), _F(5, -2), _F(7, -3)]),
        5: _pattern("cubic", (),
                    [_F(1, 0), _F(2, -1), _F(3, -1), _F(5, -2), _F(2, 0)]),
        6: _pattern("cubic", (),
                    [_F(1, -1), _F(2, -1), _F(4, -2), _F(1, 0), _F(3, -1)]),
        7: _pattern("cubic", (),
                    [_F(2, -1), _F(-3, 2), _F(4, -2), _F(-1, 1), _F(1, 0)]),
        8: _pattern("cubic", (),
                    [_F(-5, 3), _F(2, -1), _F(-3, 2), _F(-1, 1), _F(2, 0)]),
        9: _pattern("cubic", (),
                    [_F(7, -4), _F(2, -1), _F(4, -2), _F(7, -3), _F(9, -4)]),
        10: _pattern("cubic", (),
                     [_F(-5, 3), _F(-3, 2), _F(0, 1), _F(2, 0), _F(-3, 3)]),
        11: _pattern("cubic", (),
                     [_F(2, -1), _F(5, -2), _F(7, -3), _F(2, 0), _F(9, -4)]),
        12: _pattern("cubic", (),
                     [_F(3, -1), _F(5, -2), _F(0, 1), _F(7, -3), _F(2, 0)]),
        13: _pattern("cubic", ("b",),
                     [_F(2, -1), _F(4, -2),
                      _M("B0", 0, -2), _M("B0", 0, -1), _M("B0", 0, 0)]),
        14: _pattern("cubic", ("b",),
                     [_F(2, -1), _M("B0", 0, -2), _M("B0", 0, -1), _M("B0", 0, 0),
                      _F(2, 0)]),
        15: _pattern("cubic", ("b",),
                     [_M("B0", 0, -2), _M("B0", 0, -1), _M("B0", 0, 0),
                      _F(0, 1), _F(2, 0)]),
    },
}


def type_indices(variety: str) -> tuple[int, ...]:
    return tuple(sorted(_TYPE_PATTERNS[variety]))


def type_param_count(variety: str, index: int) -> int:
    return len(_TYPE_PATTERNS[variety][index].param_names)


def type_instance(variety: str, index: int, params: Sequence[int] = ()) -> Collection:
    """Normalized length-6 collection realizing one type at given parameters.

    EXAMPLES::

        >>> print(type_instance("cubic", 7))
        [0, 2H-E, -3H+2E, 4H-2E, -H+E, H]
    """
    try:
        pattern = _TYPE_PATTERNS[variety][index]
    except KeyError:
        raise ValueError(f"no type ({index}) on the {variety} model") from None
    if len(params) != len(pattern.param_names):
        raise ValueError(
            f"type ({index}) on the {variety} model takes "
            f"{len(pattern.param_names)} parameter(s), got {len(params)}"
        )
    ts = (*params, 0)
    tail = [_divisor((a0 + ts[p] * da, b0 + ts[p] * db)) for a0, b0, da, db, p in pattern.rows]
    return Collection(variety, (ZERO_CLASS, *tail))


def _parameter_ranges(pattern: _TypePattern, window: int) -> Optional[list[range]]:
    """Each parameter's exact range keeping the pattern inside the window.

    A slot's coordinate ``c0 + t*dc`` with ``dc != 0`` lies in
    ``[-window, window]`` exactly for ``t`` in
    ``[ceil((-window - c0)/dc), floor((window - c0)/dc)]`` (for ``dc > 0``;
    negate both to reduce ``dc < 0`` to that case).  Each parameter's range
    is the intersection of these over its slots.  A coordinate with
    ``dc == 0`` is constant; returns ``None`` when one lies outside the
    window, since then no parameter values fit.
    """
    lows: list[list[int]] = [[] for _ in pattern.param_names]
    highs: list[list[int]] = [[] for _ in pattern.param_names]
    for a0, b0, da, db, p in pattern.rows:
        for c0, dc in ((a0, da), (b0, db)):
            if dc < 0:
                c0, dc = -c0, -dc
            if dc:
                lows[p].append(-((window + c0) // dc))
                highs[p].append((window - c0) // dc)
            elif abs(c0) > window:
                return None
    return [range(max(lo), min(hi) + 1) for lo, hi in zip(lows, highs)]


def expected_instances(
    model: VarietyModel, window: int
) -> list[tuple[Collection, TypeLabel]]:
    """All type instances whose entries fit in ``|a|, |b| <= window``.

    Sorted by type index, then parameters.  Every slot of a pattern is
    fixed or depends on a single parameter, so the fitting parameter
    values form a box: each parameter's range is solved exactly from its
    slots (see :func:`_parameter_ranges`), and only instances inside the
    box are built.

    Each slot's classes are built once, as a column keyed by every value
    of its parameter in range, from the same rows
    :func:`type_instance` reads (a fixed slot's column holds its
    one class at the trailing 0).  An instance looks its five entries up
    in the columns.  Its entries are built classes, so the collection
    skips the constructor's re-validation.
    """
    out = []
    for index, pattern in _TYPE_PATTERNS[model.tag].items():
        ranges = _parameter_ranges(pattern, window)
        if ranges is None:
            continue
        spans = (*ranges, range(1))
        columns = [
            (p, {t: _divisor((a0 + t * da, b0 + t * db)) for t in spans[p]})
            for a0, b0, da, db, p in pattern.rows
        ]
        for params in product(*ranges):
            ts = (*params, 0)
            entries = (ZERO_CLASS, *[column[ts[p]] for p, column in columns])
            seq = Collection._make((model.tag, entries))
            out.append((seq, TypeLabel(model.tag, index, params)))
    return out


def _unify(pattern: _TypePattern, tail: tuple[DivisorClass, ...]) -> Optional[tuple[int, ...]]:
    """Solve for pattern parameters matching ``tail`` exactly, if any.

    The first member slot of each parameter fixes it through the
    a-coordinate (``da != 0``); fixed slots read the trailing 0.  A
    parameter never changes once solved, so checking each slot's
    re-instantiation against its tail entry as it is visited is the same
    as re-instantiating the whole pattern at the end.
    """
    ts: list[Optional[int]] = [None] * len(pattern.param_names) + [0]
    for (a0, b0, da, db, p), (a, b) in zip(pattern.rows, tail):
        t = ts[p]
        if t is None:
            t = ts[p] = (a - a0) // da
        if a0 + t * da != a or b0 + t * db != b:
            return None
    return tuple(ts[:-1])  # type: ignore[arg-type]


def matching_type_labels(seq: Collection) -> tuple[TypeLabel, ...]:
    """All type labels whose instance equals the normalization of ``seq``.

    ``seq`` must have length 6.  The catalogue is collision-free: distinct
    (type, parameters) pairs give distinct collections, so the result holds
    at most one label.
    """
    if len(seq.entries) != 6:
        raise ValueError("classification needs a length-6 collection")
    tag, entries = normalize(seq)
    tail = entries[1:]
    labels = []
    for index, pattern in _TYPE_PATTERNS[tag].items():
        params = _unify(pattern, tail)
        if params is not None:
            labels.append(TypeLabel(tag, index, params))
    return tuple(labels)
