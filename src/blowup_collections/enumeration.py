"""Exhaustive enumeration of normalized length-6 exceptional collections.

The search space is all normalized sequences ``(0, D_1, ..., D_5)`` whose
nonzero members are candidate classes inside a coordinate window
``|a|, |b| <= window``: the members from
:func:`blowup_collections.families.family_members` inside that box.  The
``n`` candidates are indexed once, in sorted order, and
:func:`verdict_masks` asks the vanishing oracle about every ordered pair
exactly once -- ``n*n`` calls among the candidates plus ``n``
for the leading trivial class, each difference handed over as a plain
coordinate pair -- storing the answers as two integer bitmask rows per
class: ``succ`` (bit ``j`` set when the pair verdict is
not ``NONZERO``) and ``unk`` (bit ``j`` set when it is ``UNKNOWN``).

The same routine serves every consumer of pair verdicts in the package:
the enumeration below, the certification of the compatibility tables
(:func:`blowup_collections.tables.pair_table`, with the members of all
families as both rows and columns, so ``n*n`` calls) and the
within-family chain laws
(:func:`blowup_collections.verify.check_family_chains`, over the trivial
class and the ``B0`` members).

The sequences are then the length-5 index chains of
:func:`blowup_collections.sequences._chains`, the package's one bitset
chain search, over the ``succ`` rows with the trivial class's row as the
first mask.  A chain adds an undecided pair when one of its members is a
bit of the OR of the ``unk`` rows before it; when no row has a set bit,
as on the point and line models, no chain does.  Completed sequences are
split into

* ``confirmed`` -- every pair verdict is ``ZERO`` (a certified exceptional
  collection) and :func:`blowup_collections.families.matching_type_labels`
  finds exactly one catalogue type;
* ``undetermined`` -- no pair refuted but at least one pair undecided
  (possible only on the cubic model, via the conic-supported families);
* ``unmatched`` -- certified sequences matching no catalogue type, or
  more than one; always empty when the classification is complete and
  collision-free over the window.

Soundness does not rest on the masks alone: every completed sequence is
re-verified through :func:`blowup_collections.sequences.collection_verdict`,
which reads the variety from the collection and asks about all 15 ordered
pairs again, reading the verdict memo by
the integer key ``(tag, a, b)`` of each difference, and a leaf whose
re-check disagrees with the masks aborts the search.

The search is a pure function of ``(variety, window)`` and candidates are
visited in sorted order, so reports are deterministic.

EXAMPLES::

    >>> X = variety_model("line")
    >>> report = enumerate_collections(X, 10)
    >>> (len(report.confirmed), len(report.undetermined))
    (684, 0)
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .geometry import DivisorClass, VarietyModel, ZERO_CLASS
from .vanishing import _NONZERO, _UNKNOWN, coh_zero
from .sequences import Collection, _chains, collection_verdict
from .families import TypeLabel, family_members, matching_type_labels

__all__ = ["EnumerationReport", "enumerate_collections", "verdict_masks"]

_FULL_LENGTH = 6


class EnumerationReport(NamedTuple):
    """Deterministic outcome of one exhaustive window search."""

    variety: str
    window: int
    confirmed: tuple[tuple[Collection, TypeLabel], ...]
    undetermined: tuple[Collection, ...]
    unmatched: tuple[Collection, ...]

    @property
    def confirmed_type_indices(self) -> tuple[int, ...]:
        return tuple(sorted({label.index for _, label in self.confirmed}))

    def summary(self) -> str:
        return (
            f"confirmed families: {len(self.confirmed_type_indices)}, "
            f"undetermined: {len(self.undetermined)}"
        )

    def to_json_dict(self) -> dict:
        return {
            "variety": self.variety,
            "window": self.window,
            "confirmed": [
                {"collection": seq.to_json_dict(), "type": label.to_json_dict()}
                for seq, label in self.confirmed
            ],
            "undetermined": [seq.to_json_dict() for seq in self.undetermined],
            "unmatched": [seq.to_json_dict() for seq in self.unmatched],
            "summary": self.summary(),
        }


def verdict_masks(
    model: VarietyModel,
    rows: Sequence[DivisorClass],
    columns: Sequence[DivisorClass],
) -> tuple[list[int], list[int]]:
    """Pair verdicts of each row class followed by each column class, as bitmasks.

    Bit ``j`` of ``succ[i]`` is set when ``columns[j]`` may follow
    ``rows[i]`` in a collection, i.e. the verdict for
    ``O(rows[i] - columns[j])`` is not ``NONZERO``; bit ``j`` of ``unk[i]``
    is set when that verdict is ``UNKNOWN``.  A pair is certified ``ZERO``
    exactly when its bit is in ``succ[i] & ~unk[i]``.  Makes one oracle
    call per (row, column) pair, on the difference's coordinate pair
    ``(ea - la, eb - lb)`` rather than a built class.  The search passes
    the trivial class as an explicit first row before its candidates; the
    tables pass the same members as rows and columns.

    EXAMPLES::

        >>> X, classes = variety_model("point"), [DivisorClass(1, -1), DivisorClass(0, 1)]
        >>> succ, unk = verdict_masks(X, [DivisorClass(0, 0), *classes], classes)
        >>> [bin(row) for row in succ], unk
        (['0b11', '0b10', '0b1'], [0, 0, 0])
    """
    succ: list[int] = []
    unk: list[int] = []
    for ea, eb in rows:
        ok = undecided = 0
        bit = 1
        for la, lb in columns:
            verdict = coh_zero(model, (ea - la, eb - lb))
            if verdict is not _NONZERO:
                ok |= bit
                if verdict is _UNKNOWN:
                    undecided |= bit
            bit <<= 1
        succ.append(ok)
        unk.append(undecided)
    return succ, unk


def enumerate_collections(model: VarietyModel, window: int) -> EnumerationReport:
    """Enumerate every normalized length-6 collection over the window.

    INPUT:

    - ``model`` -- one of the three variety models;
    - ``window`` -- coordinate bound for the nonzero members; at least 10,
      so every sporadic candidate class is in range.

    Soundness of confirmation does not rest on the search invariant alone:
    each completed sequence is re-verified through
    :func:`blowup_collections.sequences.collection_verdict`, which revisits
    all 15 ordered pairs in the verdict memo.
    """
    if window < 10:
        raise ValueError("enumeration windows below 10 would clip sporadic candidates")
    members = [d for group in family_members(model, window) for _, d in group]
    candidates = sorted(d for d in members if max(abs(d.a), abs(d.b)) <= window)
    succ, unk = verdict_masks(model, [ZERO_CLASS, *candidates], candidates)
    any_unknown = any(unk)

    confirmed: list[tuple[Collection, TypeLabel]] = []
    undetermined: list[Collection] = []
    unmatched: list[Collection] = []
    for chain in _chains(succ[1:], succ[0], _FULL_LENGTH - 1):
        # A pair is undecided when its later member is a bit of the OR of
        # the unk rows of the earlier members, the trivial class first.
        has_unknown = False
        if any_unknown:
            unknown = unk[0]
            for j in chain:
                has_unknown = has_unknown or bool(unknown >> j & 1)
                unknown |= unk[j + 1]
        # The entries are validated classes, so the collection skips the
        # constructor's re-validation.
        seq = Collection._make(
            (model.tag, (ZERO_CLASS, *map(candidates.__getitem__, chain)))
        )
        final = collection_verdict(seq)
        undecided = final is _UNKNOWN
        if final is _NONZERO or undecided != has_unknown:  # pragma: no cover
            raise AssertionError(
                f"verdict masks disagree with the re-check ({final.value}) on {seq}"
            )
        if has_unknown:
            undetermined.append(seq)
            continue
        labels = matching_type_labels(seq)
        if len(labels) == 1:
            confirmed.append((seq, labels[0]))
        else:
            unmatched.append(seq)

    confirmed.sort(key=lambda pair: (pair[1].index, pair[1].params))
    undetermined.sort()
    unmatched.sort()
    return EnumerationReport(
        variety=model.tag,
        window=window,
        confirmed=tuple(confirmed),
        undetermined=tuple(undetermined),
        unmatched=tuple(unmatched),
    )
