"""Ordered sequences of line bundles and their exceptionality verdicts.

A *collection* here is an ordered tuple of divisor classes ``(D_1, ..., D_l)``
on one of the three blow-up models, standing for the sequence of line
bundles ``O(D_1), ..., O(D_l)``.  The sequence is exceptional exactly when
for every pair ``j < i`` all cohomology of ``O(D_j - D_i)`` vanishes; the
three-valued pair verdicts combine with precedence
``NONZERO > UNKNOWN > ZERO`` into a collection verdict.

Twisting every member by a fixed line bundle changes nothing, so
collections are *normalized* to start at the trivial class ``(0, 0)``.
An operation on a collection takes only the collection, which names its
variety, and accepts any twist of it.  All operations return new value objects; nothing
is mutated.  A collection an operation rebuilds from the classes of a
validated one is made with ``Collection._make``, which skips the
re-validation.

Mutation-style operations:

* :func:`helix_rotate_right` / :func:`helix_rotate_left` -- move the first
  bundle of a length-6 collection to the end twisted by the anticanonical
  class (resp. the inverse), then renormalize;
* :func:`transpose_orthogonal` -- swap an adjacent pair whose two
  difference classes both have vanishing cohomology (completely orthogonal
  neighbours), then renormalize;
* :func:`augment_point_blowup` -- lift a full exceptional collection of
  ``O(d_1), ..., O(d_4)`` on projective 3-space to a length-6 collection on
  the point blow-up: around a pivot ``i``, ``d_{i-1}`` and ``d_i`` each
  appear twice (twisted by ``E, 2E`` and by ``0, E``), earlier members
  gain ``2E`` and later ones are plain pullbacks.

EXAMPLES::

    >>> seq = make_collection("point", [(0, 0), (1, -1), (1, 0), (2, -2), (2, -1), (3, -2)])
    >>> collection_verdict(seq)
    <VanishingVerdict.ZERO: 'Zero'>
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, NamedTuple, Sequence, Union

from .geometry import VARIETY_TAGS, DivisorClass, _divisor, variety_model
from .vanishing import (
    _NONZERO, _UNKNOWN, _ZERO, VanishingVerdict, _cached_verdict, coh_zero,
)

__all__ = [
    "Collection",
    "make_collection",
    "normalize",
    "collection_verdict",
    "helix_rotate_right",
    "helix_rotate_left",
    "transpose_orthogonal",
    "augment_point_blowup",
]

PairLike = Union[DivisorClass, Sequence[int]]


class _CollectionFields(NamedTuple):
    variety: str
    entries: tuple[DivisorClass, ...]


class Collection(_CollectionFields):
    """Immutable ordered sequence of 1 to 6 divisor classes on one variety.

    A named tuple ``(variety, entries)`` whose constructor validates both
    fields, like every other record of the package: equality, ordering and
    the hash are the tuple's, so a collection compares equal to the bare
    pair, and ``len`` and iteration run over the two fields, not over the
    entries.  ``_make`` and ``_replace`` skip the validation.
    """

    __slots__ = ()

    def __new__(cls, variety: str, entries: tuple[DivisorClass, ...]) -> "Collection":
        if variety not in VARIETY_TAGS:
            raise ValueError(f"unknown variety tag {variety!r}")
        if not (1 <= len(entries) <= 6):
            raise ValueError(
                f"a collection holds between 1 and 6 entries, got {len(entries)}"
            )
        if not all(map(isinstance, entries, repeat(DivisorClass))):
            raise ValueError("collection entries must be DivisorClass instances")
        return tuple.__new__(cls, (variety, entries))

    def to_json_dict(self) -> dict:
        return {
            "variety": self.variety,
            "entries": [[e.a, e.b] for e in self.entries],
        }

    @staticmethod
    def from_json(text: str) -> "Collection":
        import json

        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
        try:
            variety, raw_entries = data["variety"], data["entries"]
        except (KeyError, TypeError) as exc:
            raise ValueError(
                'collection JSON must carry "variety" and "entries" keys'
            ) from exc
        return make_collection(variety, raw_entries)

    def __str__(self) -> str:
        return "[" + ", ".join(str(e) for e in self.entries) + "]"


def _as_class(entry: PairLike) -> DivisorClass:
    if isinstance(entry, DivisorClass):
        return entry
    try:
        a, b = entry
    except (TypeError, ValueError):
        raise ValueError(
            f"collection entries must be [a, b] pairs, got {entry!r}"
        ) from None
    if not (isinstance(a, int) and isinstance(b, int)):
        raise ValueError(f"divisor coordinates must be integers, got {entry!r}")
    return DivisorClass(a, b)


def make_collection(variety: str, entries: Iterable[PairLike]) -> Collection:
    """Build a :class:`Collection` from pairs or :class:`DivisorClass` values."""
    return Collection(variety, tuple(_as_class(e) for e in entries))


def normalize(seq: Collection) -> Collection:
    """Translate all entries so the first becomes ``(0, 0)``.

    Exceptionality is invariant under this twist, and normalization is
    idempotent.
    """
    variety, entries = seq
    a0, b0 = entries[0]
    if a0 == b0 == 0:
        return seq
    shifted = tuple([_divisor((a - a0, b - b0)) for a, b in entries])
    return Collection._make((variety, shifted))


def collection_verdict(seq: Collection) -> VanishingVerdict:
    """Combined verdict over all ordered pairs ``j < i`` of the sequence.

    ``ZERO`` certifies an exceptional collection; ``NONZERO`` refutes it;
    ``UNKNOWN`` (cubic model only) means at least one pair is undecided and
    none is refuted.  Every pair is put to the oracle afresh, in the order
    ``i = 1, 2, ...`` and ``j < i`` inside, with the precedence
    ``NONZERO > UNKNOWN > ZERO``; the first ``NONZERO`` ends the scan.  The
    enumeration re-checks every completed sequence here, so the loop reads
    the verdict memo behind :func:`coh_zero` directly, by the integer key
    ``(tag, a, b)`` of each difference.
    """
    tag, entries = seq
    result = _ZERO
    for i in range(1, len(entries)):
        la, lb = entries[i]
        for ea, eb in entries[:i]:
            verdict = _cached_verdict(tag, ea - la, eb - lb)
            if verdict is _NONZERO:
                return verdict
            if verdict is _UNKNOWN:
                result = verdict
    return result


def _chains(rows: Sequence[int], first: int, length: int) -> list[tuple[int, ...]]:
    """Every index chain whose members may all follow each other, ascending.

    A chain ``(j_1, ..., j_length)`` is returned when ``j_1`` is a set bit
    of ``first`` and each later index is a set bit of ``first`` and of
    ``rows[j]`` for every earlier ``j``.  The candidates that may extend a
    prefix are the AND of ``first`` and the rows of its members, in the
    style of bit-parallel clique search, and the set bits are visited low
    to high, so the chains come out in ascending order.  The length-6
    enumeration, the B0 chain laws and the claim 6.3 triples all run here.

    A prefix is dropped when its candidates have fewer set bits than the
    indices it still needs, unless a candidate's own row has its own bit:
    only such an index may repeat, and the rest of a chain otherwise takes
    distinct candidates.  No caller has such a row, since a class never
    precedes itself (``chi(O) = 1``).

    EXAMPLES::

        >>> _chains([0b110, 0b101, 0b001], 0b111, 3)
        [(0, 1, 2), (1, 0, 2), (1, 2, 0)]
    """
    repeatable = sum(1 << j for j, row in enumerate(rows) if row >> j & 1)
    # Level by level: each ``(prefix, allowed)`` pair grows by its allowed
    # indices, low to high, and ``need`` counts the indices still needed
    # after the new one, so the last level keeps every grown prefix.
    level: list[tuple[tuple[int, ...], int]] = [((), first)]
    for need in range(length - 1, -1, -1):
        grown = []
        for prefix, allowed in level:
            rest = allowed
            while rest:
                low = rest & -rest
                rest ^= low
                j = low.bit_length() - 1
                nxt = allowed & rows[j]
                if nxt & repeatable or nxt.bit_count() >= need:
                    grown.append(((*prefix, j), nxt))
        level = grown
    return [prefix for prefix, _ in level]


def _require_rotatable(seq: Collection) -> None:
    if len(seq.entries) != 6:
        raise ValueError("helix rotation needs a length-6 collection")


def helix_rotate_right(seq: Collection) -> Collection:
    """One right helix turn: first bundle moves to the end, twisted by ``-K``.

    On a length-6 collection the head is dropped and appended again
    twisted by ``-K``, after which the result is normalized.  Rotation
    commutes with a twist, so any twist of ``seq`` gives the same result.
    Six right turns are the identity on normalized exceptional collections
    of length 6.
    """
    _require_rotatable(seq)
    canonical = variety_model(seq.variety).canonical
    rotated = seq.entries[1:] + (seq.entries[0] - canonical,)
    return normalize(Collection._make((seq.variety, rotated)))


def helix_rotate_left(seq: Collection) -> Collection:
    """One left helix turn, the exact inverse of :func:`helix_rotate_right`."""
    _require_rotatable(seq)
    canonical = variety_model(seq.variety).canonical
    rotated = (seq.entries[-1] + canonical,) + seq.entries[:-1]
    return normalize(Collection._make((seq.variety, rotated)))


def transpose_orthogonal(seq: Collection, index: int) -> Collection:
    """Swap the completely orthogonal neighbours at ``index`` and ``index + 1``.

    ``index`` is 0-based.  The swap is legal only when *both* difference
    classes of the adjacent pair have vanishing cohomology, which leaves
    every pair requirement of the sequence intact; otherwise ``ValueError``
    is raised.  The result is renormalized (a swap in position 0 moves the
    origin).
    """
    if not 0 <= index < len(seq.entries) - 1:
        raise ValueError(
            f"transposition index {index} out of range for length {len(seq.entries)}"
        )
    model = variety_model(seq.variety)
    left, right = seq.entries[index], seq.entries[index + 1]
    if not (
        coh_zero(model, left - right) is _ZERO
        and coh_zero(model, right - left) is _ZERO
    ):
        raise ValueError(
            f"entries {index + 1} and {index + 2} are not mutually orthogonal"
        )
    swapped = list(seq.entries)
    swapped[index], swapped[index + 1] = right, left
    return normalize(Collection._make((seq.variety, tuple(swapped))))


def augment_point_blowup(degrees: Sequence[int], index: int) -> Collection:
    """Lift a length-4 exceptional collection from projective 3-space.

    INPUT:

    - ``degrees`` -- the four twists ``d_1 <= ... <= d_4`` of a full
      exceptional collection ``O(d_1), ..., O(d_4)`` downstairs;
    - ``index`` -- 1-based position ``i`` with ``2 <= i <= 4`` around which
      the exceptional-divisor staircase is inserted.

    The lift pulls back each ``O(d_j)`` and inserts twists by the
    exceptional divisor ``E``: members before the pivot pair
    ``(d_{i-1}, d_i)`` gain ``2E``, the pivot pair contributes the
    ``(E, 2E)`` and ``(0, E)`` twists of its two members, and members
    after position ``i`` are plain pullbacks, producing the length-6
    sequence ``(d_1 H + 2E, ..., d_{i-1} H + E, d_{i-1} H + 2E,
    d_i H, d_i H + E, d_{i+1} H, ...)`` on the point blow-up.

    EXAMPLES::

        >>> print(augment_point_blowup((0, 1, 2, 3), 3))
        [2E, H+E, H+2E, 2H, 2H+E, 3H]
    """
    degrees = tuple(degrees)
    if len(degrees) < 4:
        raise ValueError("need the four twists of a full collection downstairs")
    if len(degrees) > 4:
        raise ValueError(
            "only length-4 source collections are supported: the lift adds two "
            "members and the result must fit in a length-6 collection"
        )
    if any(not isinstance(d, int) for d in degrees):
        raise ValueError("twists must be integers")
    if not 2 <= index <= len(degrees):
        raise ValueError(
            f"pivot index {index} out of range; need 2 <= index <= {len(degrees)}"
        )
    left, pivot = degrees[index - 2:index]
    return make_collection("point", [
        *((d, 2) for d in degrees[:index - 2]),
        (left, 1), (left, 2), (pivot, 0), (pivot, 1),
        *((d, 0) for d in degrees[index:]),
    ])
