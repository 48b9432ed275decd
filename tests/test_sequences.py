"""Collections: normalization, verdicts, rotations, transpositions, lifts."""

import json
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import blowup_collections.sequences as sequences
from blowup_collections.geometry import DivisorClass, ZERO_CLASS, variety_model
from blowup_collections.vanishing import VanishingVerdict, coh_zero
from blowup_collections.sequences import (
    Collection,
    augment_point_blowup,
    collection_verdict,
    helix_rotate_left,
    helix_rotate_right,
    make_collection,
    normalize,
    transpose_orthogonal,
)
from blowup_collections.families import type_instance
from reference_scans import meet_verdicts, pair_verdict

ZERO = VanishingVerdict.ZERO
NONZERO = VanishingVerdict.NONZERO

entries_strategy = st.lists(
    st.builds(DivisorClass, st.integers(-20, 20), st.integers(-20, 20)),
    min_size=1,
    max_size=6,
)
collections_strategy = st.builds(
    Collection, st.sampled_from(("point", "line", "cubic")), entries_strategy.map(tuple)
)
full_collections = st.builds(
    Collection,
    st.sampled_from(("point", "line", "cubic")),
    st.lists(
        st.builds(DivisorClass, st.integers(-15, 15), st.integers(-15, 15)),
        min_size=6, max_size=6,
    ).map(tuple),
)


def test_collection_length_bounds():
    with pytest.raises(ValueError, match="between 1 and 6"):
        Collection("point", ())
    with pytest.raises(ValueError, match="between 1 and 6"):
        Collection("point", tuple(DivisorClass(i, 0) for i in range(7)))
    with pytest.raises(ValueError, match="unknown variety"):
        Collection("plane", (ZERO_CLASS,))


def test_normalize_examples():
    seq = make_collection("point", [(2, 1), (3, 0), (4, -1)])
    assert normalize(seq) == make_collection("point", [(0, 0), (1, -1), (2, -2)])
    assert normalize(normalize(seq)) == normalize(seq)
    already = make_collection("line", [(0, 0), (1, 0)])
    assert normalize(already) is already


@settings(max_examples=60)
@given(collections_strategy)
def test_normalize_idempotent_and_anchored(seq):
    normalized = normalize(seq)
    assert normalized.entries[0] == ZERO_CLASS
    assert normalize(normalized) == normalized
    assert len(normalized.entries) == len(seq.entries)


@settings(max_examples=60)
@given(
    collections_strategy,
    st.builds(DivisorClass, st.integers(-10, 10), st.integers(-10, 10)),
)
def test_verdict_invariant_under_translation(seq, shift):
    shifted = Collection(seq.variety, tuple(e + shift for e in seq.entries))
    assert collection_verdict(seq) is collection_verdict(shifted)
    assert collection_verdict(seq) is collection_verdict(normalize(seq))


def test_pair_verdict_orientation():
    model = variety_model("point")
    # H may follow the trivial bundle (difference -H has vanishing
    # cohomology) but not precede it.
    assert pair_verdict(model, ZERO_CLASS, DivisorClass(1, 0)) is ZERO
    assert pair_verdict(model, DivisorClass(1, 0), ZERO_CLASS) is NONZERO


def test_collection_verdicts():
    assert collection_verdict(type_instance("point", 4)) is ZERO
    repeated = make_collection("point", [(0, 0), (1, -1), (1, -1)])
    assert collection_verdict(repeated) is NONZERO
    single = make_collection("point", [(5, 3)])
    assert collection_verdict(single) is ZERO
    assert collection_verdict(type_instance("cubic", 13, (0,))) is ZERO
    # The verdict is that of the collection's own variety: type (4) of the
    # point model is not exceptional on the line model.
    entries = type_instance("point", 4).entries
    assert collection_verdict(Collection("line", entries)) is NONZERO


@settings(max_examples=150)
@given(collections_strategy)
@example(type_instance("point", 4))
@example(type_instance("cubic", 13, (0,)))
@example(make_collection("cubic", [(0, 0), (23, -15), (24, -15), (1, 0)]))
def test_collection_verdict_matches_the_pairwise_meet(seq):
    # Reference: every ordered pair j < i through pair_verdict, combined by
    # meet_verdicts; the nested loop must ask the verdict memo for the same
    # pairs in the same order and stop at the same first NONZERO.
    model = variety_model(seq.variety)
    asked = []
    memo = sequences._cached_verdict

    def oracle(tag, a, b):
        assert tag == seq.variety
        asked.append((a, b))
        return memo(tag, a, b)

    entries = seq.entries
    pairs = [(entries[j], entries[i]) for i in range(len(entries)) for j in range(i)]
    expected = meet_verdicts(pair_verdict(model, e, l) for e, l in pairs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sequences, "_cached_verdict", oracle)
        assert collection_verdict(seq) is expected
    differences = [e - l for e, l in pairs]
    stop = next(
        (k + 1 for k, d in enumerate(differences) if coh_zero(model, d) is NONZERO),
        len(differences),
    )
    assert asked == differences[:stop]


def test_undetermined_collection_verdict():
    # Prefix of the trivial bundle and one conic-supported candidate: one
    # backward difference is undecided, none refuted.
    seq = make_collection("cubic", [(0, 0), (23, -15)])
    assert collection_verdict(seq) is VanishingVerdict.UNKNOWN


# --- rotations -----------------------------------------------------------


@pytest.mark.parametrize("tag,index,params", [
    ("point", 4, ()), ("point", 1, (3,)), ("line", 1, (0, 1)),
    ("cubic", 7, ()), ("cubic", 13, (2,)),
])
def test_rotations_invert_each_other(tag, index, params):
    seq = type_instance(tag, index, params)
    assert helix_rotate_left(helix_rotate_right(seq)) == seq
    assert helix_rotate_right(helix_rotate_left(seq)) == seq


@pytest.mark.parametrize("tag,index,params", [
    ("point", 4, ()), ("point", 7, ()), ("point", 2, (-1,)),
    ("line", 2, (4, -2)), ("cubic", 1, ()), ("cubic", 10, ()),
    ("cubic", 15, (-3,)),
])
def test_six_rotations_are_the_identity(tag, index, params):
    seq = type_instance(tag, index, params)
    current = seq
    for _ in range(6):
        current = helix_rotate_right(current)
    assert current == seq


@settings(max_examples=40)
@given(full_collections)
def test_rotations_invert_on_arbitrary_sequences(seq):
    normalized = normalize(seq)
    assert helix_rotate_left(helix_rotate_right(normalized)) == normalized
    # Rotation commutes with a twist, so any twist rotates alike.
    assert helix_rotate_right(seq) == helix_rotate_right(normalized)
    assert helix_rotate_left(seq) == helix_rotate_left(normalized)


@settings(max_examples=40)
@given(full_collections)
def test_rebuilt_collections_pass_the_constructor_checks(seq):
    # normalize and the rotations skip the validation of what they rebuild.
    normalized = normalize(seq)
    rebuilt = (
        normalized,
        helix_rotate_right(normalized),
        helix_rotate_left(normalized),
    )
    for built in rebuilt:
        assert type(built) is Collection
        assert built == Collection(built.variety, built.entries)


def test_rotation_preserves_exceptionality():
    seq = type_instance("cubic", 9)
    rotated = helix_rotate_right(seq)
    assert collection_verdict(rotated) is ZERO


def test_rotation_requires_length_6():
    with pytest.raises(ValueError, match="length-6"):
        helix_rotate_right(make_collection("point", [(0, 0), (1, -1)]))
    shifted = Collection(
        "point", tuple(e + DivisorClass(1, 0) for e in type_instance("point", 4).entries)
    )
    assert helix_rotate_right(shifted) == helix_rotate_right(normalize(shifted))


# --- transpositions ------------------------------------------------------


def test_transpose_swaps_orthogonal_neighbours():
    seq = type_instance("point", 1, (1,))
    # Entries 3 and 4 (1-based) are (2,-2) and (1,0): both differences
    # (1,-2) and (-1,2) have vanishing cohomology.
    swapped = transpose_orthogonal(seq, 2)
    assert swapped == type_instance("point", 4)
    back = transpose_orthogonal(swapped, 2)
    assert back == seq
    twisted = Collection("point", tuple(e + DivisorClass(2, -1) for e in seq.entries))
    assert transpose_orthogonal(twisted, 2) == swapped


def test_transpose_preserves_all_other_pairs():
    seq = type_instance("point", 1, (1,))
    swapped = transpose_orthogonal(seq, 2)
    assert collection_verdict(swapped) is ZERO
    assert sorted(swapped.entries) == sorted(seq.entries)


def test_transpose_rejects_non_orthogonal_pairs():
    seq = type_instance("point", 4)
    with pytest.raises(ValueError, match="not mutually orthogonal"):
        transpose_orthogonal(seq, 0)


def test_transpose_index_bounds():
    seq = type_instance("point", 4)
    with pytest.raises(ValueError, match="out of range"):
        transpose_orthogonal(seq, 5)
    with pytest.raises(ValueError, match="out of range"):
        transpose_orthogonal(seq, -1)


def test_transpose_renormalizes_at_the_head():
    seq = type_instance("cubic", 13, (0,))
    # Entries 1 and 2 (1-based) are 0 and 2H-E; their differences
    # (-2, 1) and (2, -1)... the former vanishes, the latter does not,
    # so position 1 must be rejected.
    with pytest.raises(ValueError, match="not mutually orthogonal"):
        transpose_orthogonal(seq, 0)


# --- lifts from projective 3-space ---------------------------------------


def test_augment_pivot_3_matches_pinned_sequence():
    lifted = augment_point_blowup((0, 1, 2, 3), 3)
    assert lifted == make_collection(
        "point", [(0, 2), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]
    )


@pytest.mark.parametrize("pivot,type_index", [(2, 5), (3, 4), (4, 9)])
def test_augment_normalizes_to_catalogue_types(pivot, type_index):
    lifted = augment_point_blowup((0, 1, 2, 3), pivot)
    assert collection_verdict(lifted) is ZERO
    assert normalize(lifted) == type_instance("point", type_index)


def test_augment_validates_input():
    with pytest.raises(ValueError, match="pivot index"):
        augment_point_blowup((0, 1, 2, 3), 1)
    with pytest.raises(ValueError, match="pivot index"):
        augment_point_blowup((0, 1, 2, 3), 5)
    with pytest.raises(ValueError, match="four twists"):
        augment_point_blowup((0, 1, 2), 2)
    with pytest.raises(ValueError, match="length-4"):
        augment_point_blowup((0, 1, 2, 3, 4), 3)


# --- JSON round-trips ----------------------------------------------------


@settings(max_examples=60)
@given(collections_strategy)
def test_collection_json_round_trip(seq):
    text = json.dumps(seq.to_json_dict())
    assert Collection.from_json(text) == seq
    payload = json.loads(text)
    assert payload["variety"] == seq.variety
    assert payload["entries"] == [[e.a, e.b] for e in seq.entries]


def test_collection_json_rejects_malformed_payloads():
    with pytest.raises(ValueError, match="variety"):
        Collection.from_json('{"entries": [[0, 0]]}')
    with pytest.raises(ValueError, match="integers"):
        Collection.from_json('{"variety": "point", "entries": [[0.5, 0]]}')
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(ValueError, match="nested too deeply"):
        Collection.from_json('{"variety": "point", "entries": ' + deep + "}")


# --- The bitset chain search ---------------------------------------------


@st.composite
def chain_problems(draw):
    """Bitmask rows over ``n <= 7`` indices, a first mask and a chain length."""
    n = draw(st.integers(0, 7))
    masks = st.integers(0, (1 << n) - 1)
    rows = draw(st.lists(masks, min_size=n, max_size=n))
    return rows, draw(masks), draw(st.integers(0, 4))


@settings(max_examples=300)
@given(chain_problems())
@example(([0b110, 0b101, 0b001], 0b111, 3))
@example(([0b110, 0b101, 0b001], 0, 3))
@example(([0b1111111] * 7, 0b1111111, 4))
def test_chains_match_a_brute_force_over_every_index_tuple(problem):
    rows, first, length = problem
    expected = [
        chain
        for chain in product(range(len(rows)), repeat=length)
        if all(
            first >> j & 1 and all(rows[i] >> j & 1 for i in chain[:k])
            for k, j in enumerate(chain)
        )
    ]
    # Equal as lists: the same chains, in the same ascending order.
    assert sequences._chains(rows, first, length) == expected
