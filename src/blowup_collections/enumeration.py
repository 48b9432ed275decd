"""Exhaustive enumeration of normalized length-6 exceptional collections.

The search space is all normalized sequences ``(0, D_1, ..., D_5)`` whose
nonzero members are candidate classes inside a coordinate window
``|a|, |b| <= window``: the members from
:func:`blowup_collections.families.family_members` inside that box.  The
``n`` candidates are indexed once, in sorted order, and
:func:`verdict_masks` asks the vanishing oracle about every ordered pair
exactly once -- ``n*n`` calls among the candidates plus ``n``
for the leading trivial class -- storing the answers as two integer
bitmask rows per class: ``succ`` (bit ``j`` set when the pair verdict is
not ``NONZERO``) and ``unk`` (bit ``j`` set when it is ``UNKNOWN``).

The same routine serves every consumer of pair verdicts in the package:
the enumeration below, the certification of the compatibility tables
(:func:`blowup_collections.tables.pair_table`, with the members of all
families as both rows and columns, so ``n*n`` calls) and the
within-family chain laws
(:func:`blowup_collections.verify.check_family_chains`, over the trivial
class and the ``B0`` members).

The depth-first search then runs on plain integers, in the style of
bit-parallel clique search: the candidates that may extend a prefix are
the AND of the ``succ`` rows of its members, and the OR of their ``unk``
rows records which extensions would add an undecided pair.  Completed
sequences are split into

* ``confirmed`` -- every pair verdict is ``ZERO`` (a certified exceptional
  collection), matched against the type catalogue;
* ``undetermined`` -- no pair refuted but at least one pair undecided
  (possible only on the cubic model, via the conic-supported families);
* ``unmatched`` -- confirmed sequences matching no catalogue type; always
  empty when the classification is complete over the window.

Soundness does not rest on the masks alone: every completed sequence is
re-verified through :func:`blowup_collections.sequences.collection_verdict`,
which asks about all 15 ordered pairs again, reading the verdict memo by
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

from .geometry import DivisorClass, VarietyModel, ZERO_CLASS, _divisor
from .vanishing import _NONZERO, _UNKNOWN, coh_zero
from .sequences import Collection, collection_verdict
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
    call per (row, column) pair.  The search passes the trivial class as
    an explicit first row before its candidates; the tables pass the same
    members as rows and columns.

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
            verdict = coh_zero(model, _divisor((ea - la, eb - lb)))
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

    confirmed: list[tuple[Collection, TypeLabel]] = []
    undetermined: list[Collection] = []
    unmatched: list[Collection] = []

    prefix: list[DivisorClass] = [ZERO_CLASS]

    def complete(entries: tuple[DivisorClass, ...], has_unknown: bool) -> None:
        seq = Collection(model.tag, entries)
        final = collection_verdict(model, seq)
        undecided = final is _UNKNOWN
        if final is _NONZERO or undecided != has_unknown:  # pragma: no cover
            raise AssertionError(
                f"verdict masks disagree with the re-check ({final.value}) on {seq}"
            )
        if has_unknown:
            undetermined.append(seq)
            return
        labels = matching_type_labels(model, seq)
        if len(labels) == 1:
            confirmed.append((seq, labels[0]))
        else:
            unmatched.append(seq)

    def extend(allowed: int, unknown: int, has_unknown: bool) -> None:
        # One member short of a full sequence, each allowed candidate
        # completes a leaf here rather than in a further call.
        leaf = len(prefix) == _FULL_LENGTH - 1
        rest = allowed
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            if leaf:
                complete((*prefix, candidates[j]), has_unknown or bool(unknown & low))
                continue
            prefix.append(candidates[j])
            extend(
                allowed & succ[j + 1],
                unknown | unk[j + 1],
                has_unknown or bool(unknown & low),
            )
            prefix.pop()

    extend(succ[0], unk[0], False)
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
