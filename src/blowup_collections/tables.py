"""Pairwise-compatibility tables for the candidate families.

For an ordered pair of candidate classes ``(D_row, D_col)`` the adjacency
requirement inside an exceptional collection is a ``ZERO`` verdict on the
difference ``D_row - D_col``.  Quantifying over family parameters, each
(row family, column family) cell collapses to one of six shapes:

* ``never`` -- no member pair satisfies the requirement;
* ``always`` -- every member pair does;
* ``row_in`` / ``col_in`` -- exactly the listed values of the row (resp.
  column) parameter do, uniformly in the other side;
* ``diff_in`` -- exactly the listed values of ``column parameter - row
  parameter`` do;
* ``unknown`` -- left open: certified only to hold no confirmed member
  pair, whose verdicts may be ``Nonzero`` or ``Unknown``.  This happens
  only on the cubic model, precisely in the four cells pairing the two
  conic-supported families ``B9``/``B10`` with each other.

The table contents are *pre-encoded* below and then certified by
:func:`pair_table` over a parameter window.  The members of every family,
from :func:`~blowup_collections.families.family_members` (the generator
the enumeration also reads), are indexed once, as both the rows and the
columns of one bitmask matrix from
:func:`~blowup_collections.enumeration.verdict_masks`, the routine that
also drives the enumeration and the family-chain laws.  Each cell is read
off as a slice of that matrix and compared with the pre-encoded
condition; any mismatch raises :class:`TableVerificationError`.

EXAMPLES::

    >>> table = pair_table(variety_model("line"), 12)
    >>> table.cell("B2", "B1").kind
    'always'
    >>> table.cell("B0", "B0")
    CellCondition(kind='diff_in', values=(1,))
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .geometry import VarietyModel
from .vanishing import FAMILIES, LineBundleFamily
from .families import family_labels, family_members
from .enumeration import verdict_masks

__all__ = [
    "CellCondition",
    "PairTable",
    "TableVerificationError",
    "pair_table",
]


class TableVerificationError(RuntimeError):
    """A pre-encoded table cell disagrees with the vanishing oracle."""


class _Cell(NamedTuple):
    kind: str
    values: tuple[int, ...] = ()


class CellCondition(_Cell):
    """One table cell: condition under which a member pair is compatible.

    A named tuple ``(kind, values)`` whose constructor validates the pair.
    """

    __slots__ = ()

    def __new__(cls, kind: str, values: tuple[int, ...] = ()) -> "CellCondition":
        if kind not in ("never", "always", "row_in", "col_in", "diff_in", "unknown"):
            raise ValueError(f"unknown cell kind {kind!r}")
        if kind in ("never", "always", "unknown") and values:
            raise ValueError(f"cell kind {kind!r} carries no values")
        if kind in ("row_in", "col_in", "diff_in") and not values:
            raise ValueError(f"cell kind {kind!r} needs admissible values")
        return tuple.__new__(cls, (kind, values))

    def holds(self, row_param: int, col_param: int) -> bool:
        """Predicate on member parameters; meaningful for decided kinds only."""
        if self.kind == "never":
            return False
        if self.kind == "always":
            return True
        if self.kind == "row_in":
            return row_param in self.values
        if self.kind == "col_in":
            return col_param in self.values
        if self.kind == "diff_in":
            return (col_param - row_param) in self.values
        raise ValueError("an undecided cell has no membership predicate")

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "values": list(self.values)}


def _c(kind: str, *values: int) -> CellCondition:
    return CellCondition(kind, tuple(values))


_NEVER = _c("never")
_ALWAYS = _c("always")
_UNKNOWN = _c("unknown")


# Golden cell data.  Cells omitted from these mappings are ``never``.
_POINT_CELLS: Mapping[tuple[str, str], CellCondition] = {
    ("B0", "B0"): _c("diff_in", 1, 2),
    ("B0", "B1"): _c("row_in", 0),
    ("B0", "B3"): _ALWAYS,
    ("B0", "B4"): _c("row_in", 1),
    ("B0", "B5"): _c("row_in", 0, 1),
    ("B0", "B6"): _ALWAYS,
    ("B1", "B0"): _ALWAYS,
    ("B1", "B4"): _ALWAYS,
    ("B1", "B6"): _ALWAYS,
    ("B2", "B0"): _c("col_in", 3, 4),
    ("B2", "B1"): _ALWAYS,
    ("B2", "B4"): _ALWAYS,
    ("B3", "B0"): _c("col_in", 3),
    ("B3", "B5"): _ALWAYS,
    ("B3", "B6"): _ALWAYS,
    ("B4", "B0"): _ALWAYS,
    ("B6", "B0"): _c("col_in", 4),
    ("B6", "B5"): _ALWAYS,
}

_LINE_CELLS: Mapping[tuple[str, str], CellCondition] = {
    ("B0", "B0"): _c("diff_in", 1),
    ("B0", "B1"): _ALWAYS,
    ("B0", "B3"): _ALWAYS,
    ("B1", "B1"): _c("diff_in", 1),
    ("B1", "B3"): _ALWAYS,
    ("B2", "B0"): _ALWAYS,
    ("B2", "B1"): _ALWAYS,
}

_CUBIC_CELLS: Mapping[tuple[str, str], CellCondition] = {
    ("B0", "B0"): _c("diff_in", 1, 2),
    ("B0", "B2"): _ALWAYS,
    ("B0", "B3"): _c("row_in", -3, 0),
    ("B0", "B4"): _c("row_in", 0, 1),
    ("B0", "B5"): _c("row_in", -2, 1),
    ("B0", "B7"): _ALWAYS,
    ("B0", "B8"): _c("row_in", -3, -2),
    ("B1", "B0"): _c("col_in", 0, 1),
    ("B1", "B3"): _ALWAYS,
    ("B1", "B5"): _ALWAYS,
    ("B2", "B0"): _c("col_in", 1, 4),
    ("B2", "B4"): _ALWAYS,
    ("B2", "B8"): _ALWAYS,
    ("B3", "B0"): _ALWAYS,
    ("B3", "B2"): _ALWAYS,
    ("B3", "B5"): _ALWAYS,
    ("B5", "B0"): _ALWAYS,
    ("B6", "B0"): _c("col_in", 3, 4),
    ("B6", "B3"): _ALWAYS,
    ("B6", "B5"): _ALWAYS,
    ("B7", "B0"): _c("col_in", 0, 3),
    ("B7", "B2"): _ALWAYS,
    ("B7", "B4"): _ALWAYS,
    ("B7", "B8"): _ALWAYS,
    ("B9", "B9"): _UNKNOWN,
    ("B9", "B10"): _UNKNOWN,
    ("B10", "B9"): _UNKNOWN,
    ("B10", "B10"): _UNKNOWN,
}

_GOLDEN_CELLS: dict[str, Mapping[tuple[str, str], CellCondition]] = {
    "point": _POINT_CELLS,
    "line": _LINE_CELLS,
    "cubic": _CUBIC_CELLS,
}


class PairTable(NamedTuple):
    """Verified compatibility table for one variety."""

    variety: str
    labels: tuple[str, ...]
    cells: tuple[tuple[CellCondition, ...], ...]

    def cell(self, row_label: str, col_label: str) -> CellCondition:
        return self.cells[self.labels.index(row_label)][self.labels.index(col_label)]

    def _grid(self) -> list[list[str]]:
        """Header row, then one row per family: the cells both renders print."""
        fams = FAMILIES[self.variety]
        letters = {fam.label: fam.param_name for fam in fams if fam.param_name}
        grid = [[""] + [lab + "'" if lab in letters else lab for lab in self.labels]]
        for row_label, row in zip(self.labels, self.cells):
            grid.append([row_label] + [
                _render_cell(letters, row_label, col_label, cond)
                for col_label, cond in zip(self.labels, row)
            ])
        return grid

    def to_markdown(self) -> str:
        header, *body = self._grid()
        lines = ["| | " + " | ".join(header[1:]) + " |", "|" + "---|" * len(header)]
        lines.extend("| " + " | ".join(row) + " |" for row in body)
        return "\n".join(lines)

    def to_csv(self) -> str:
        import csv
        import io

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(self._grid())
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "variety": self.variety,
            "labels": list(self.labels),
            "cells": [[cond.to_json_dict() for cond in row] for row in self.cells],
        }


def _render_cell(
    letters: dict[str, str], row_label: str, col_label: str, cond: CellCondition
) -> str:
    if cond.kind == "never":
        return ""
    if cond.kind == "always":
        return "√"
    if cond.kind == "unknown":
        return "?"
    values = ", ".join(str(v) for v in cond.values)
    if cond.kind == "row_in":
        return f"{letters[row_label]}={values}"
    if cond.kind == "col_in":
        return f"{letters[col_label]}'={values}"
    row_letter, col_letter = letters[row_label], letters[col_label]
    offsets = ", ".join(
        f"{row_letter}{v:+d}" if v else row_letter for v in cond.values
    )
    return f"{col_letter}'={offsets}"


def _verify_cell(
    row_fam: LineBundleFamily,
    col_fam: LineBundleFamily,
    cond: CellCondition,
    rows: list[tuple[int, int, int]],
    col_params: list[int],
) -> None:
    """Check one cell against the verdict bits of its member pairs.

    ``rows`` holds ``(p, zero, unknown)`` per row member: bit ``k`` of
    ``zero`` (resp. ``unknown``) is set when the pair with the column member
    of parameter ``col_params[k]`` is ``ZERO`` (resp. ``UNKNOWN``).  The
    first offending pair in row-major order is reported.
    """
    where = f"cell ({row_fam.label}, {col_fam.label})"
    if cond.kind == "unknown":
        if not (row_fam.kind == "undecided" and col_fam.kind == "undecided"):
            raise TableVerificationError(
                f"{where}: undecided cells may pair only the conic-supported families"
            )
        for p, zero, _ in rows:
            if zero:
                q = col_params[(zero & -zero).bit_length() - 1]
                raise TableVerificationError(
                    f"{where}: confirmed pair {p, q} inside an undecided cell"
                )
        return
    for p, zero, unknown in rows:
        expected = sum(1 << k for k, q in enumerate(col_params) if cond.holds(p, q))
        bad = unknown | (zero ^ expected)
        if not bad:
            continue
        k = (bad & -bad).bit_length() - 1
        q = col_params[k]
        if unknown >> k & 1:
            raise TableVerificationError(
                f"{where}: undecided verdict at {p, q} inside a decided cell"
            )
        actual = bool(zero >> k & 1)
        raise TableVerificationError(
            f"{where}: at parameters {p, q} the oracle says "
            f"{'compatible' if actual else 'incompatible'} but the table says "
            f"{'incompatible' if actual else 'compatible'}"
        )


def pair_table(model: VarietyModel, param_window: int = 15) -> PairTable:
    """Build and certify the compatibility table for one variety.

    INPUT:

    - ``model`` -- the variety model;
    - ``param_window`` -- half-width of the exhaustive verification scan,
      at least 10 (the pre-encoded parameter values all lie well inside).

    The members of all families
    (:func:`~blowup_collections.families.family_members`), in label
    order, share one :func:`~blowup_collections.enumeration.verdict_masks`
    matrix.  On the cubic model the undecided families enter as the
    ``B0`` rows reach them: ``B10`` with its member ``(-19, 14)`` at every
    window from 10 on, ``B9`` with ``(23, -15)`` from window 11.  Each
    cell is certified from the rows of its row members, restricted to the
    column family's bits, against the pre-encoded condition; any
    discrepancy raises :class:`TableVerificationError` naming the first
    offending pair.
    """
    if param_window < 10:
        raise ValueError("table verification windows below 10 prove too little")
    families = FAMILIES[model.tag]
    golden = _GOLDEN_CELLS[model.tag]
    members = family_members(model, param_window)
    classes = [d for group in members for _, d in group]
    succ, unk = verdict_masks(model, classes, classes)
    zero = [ok & ~undecided for ok, undecided in zip(succ, unk)]
    # Member i of the concatenation owns mask row i; family f owns the
    # rows and bits from starts[f] on.
    starts = [0]
    for group in members:
        starts.append(starts[-1] + len(group))
    rows = []
    for row_fam, row_members, row_start in zip(families, members, starts):
        row = []
        for col_fam, col_members, col_start in zip(families, members, starts):
            width = (1 << len(col_members)) - 1
            bits = [
                (p, zero[i] >> col_start & width, unk[i] >> col_start & width)
                for i, (p, _) in enumerate(row_members, row_start)
            ]
            cond = golden.get((row_fam.label, col_fam.label), _NEVER)
            _verify_cell(row_fam, col_fam, cond, bits, [q for q, _ in col_members])
            row.append(cond)
        rows.append(tuple(row))
    return PairTable(variety=model.tag, labels=family_labels(model.tag), cells=tuple(rows))
