"""Candidate families, the type catalogue, and classification."""

from itertools import product

import pytest

from blowup_collections import families
from blowup_collections.geometry import DivisorClass, ZERO_CLASS, variety_model
from blowup_collections.vanishing import FAMILIES, VanishingVerdict, coh_zero
from blowup_collections.sequences import Collection, make_collection, normalize
from reference_scans import family_label_of, grid_candidates
from blowup_collections.families import (
    TypeLabel,
    expected_instances,
    family_by_label,
    family_labels,
    family_members,
    matching_type_labels,
    type_indices,
    type_instance,
)

# Frozen candidate counts for the window |a|, |b| <= 15.
CANDIDATE_COUNTS_WINDOW_15 = {"point": 36, "line": 61, "cubic": 24}

# Frozen window-15 instance counts per variety and in total.
INSTANCE_COUNTS_WINDOW_15 = {"point": 90, "line": 1624, "cubic": 54}

# Frozen full entry lists of all parameter-free types, keyed by
# (variety, index); transcribed independently of the pattern encoding.
SPORADIC_TYPE_ENTRIES = {
    ("point", 4): [(1, -1), (1, 0), (2, -2), (2, -1), (3, -2)],
    ("point", 5): [(0, 1), (1, -1), (1, 0), (2, -1), (3, -1)],
    ("point", 6): [(1, -2), (1, -1), (2, -2), (3, -2), (4, -3)],
    ("point", 7): [(0, 1), (1, 0), (2, 0), (3, -1), (3, 0)],
    ("point", 8): [(1, -1), (2, -1), (3, -2), (3, -1), (4, -3)],
    ("point", 9): [(1, 0), (2, -1), (2, 0), (3, -2), (3, -1)],
    ("cubic", 1): [(1, 0), (3, -1), (0, 1), (2, 0), (3, 0)],
    ("cubic", 2): [(2, -1), (-1, 1), (1, 0), (2, 0), (3, -1)],
    ("cubic", 3): [(-3, 2), (-1, 1), (0, 1), (1, 0), (2, 0)],
    ("cubic", 4): [(2, -1), (3, -1), (4, -2), (5, -2), (7, -3)],
    ("cubic", 5): [(1, 0), (2, -1), (3, -1), (5, -2), (2, 0)],
    ("cubic", 6): [(1, -1), (2, -1), (4, -2), (1, 0), (3, -1)],
    ("cubic", 7): [(2, -1), (-3, 2), (4, -2), (-1, 1), (1, 0)],
    ("cubic", 8): [(-5, 3), (2, -1), (-3, 2), (-1, 1), (2, 0)],
    ("cubic", 9): [(7, -4), (2, -1), (4, -2), (7, -3), (9, -4)],
    ("cubic", 10): [(-5, 3), (-3, 2), (0, 1), (2, 0), (-3, 3)],
    ("cubic", 11): [(2, -1), (5, -2), (7, -3), (2, 0), (9, -4)],
    ("cubic", 12): [(3, -1), (5, -2), (0, 1), (7, -3), (2, 0)],
}


def test_family_rosters():
    assert family_labels("point") == ("B0", "B1", "B2", "B3", "B4", "B5", "B6")
    assert family_labels("line") == ("B0", "B1", "B2", "B3")
    assert family_labels("cubic") == tuple(f"B{i}" for i in range(11))
    kinds = [fam.kind for fam in FAMILIES["cubic"]]
    assert kinds.count("parameterized") == 1
    assert kinds.count("sporadic") == 8
    assert kinds.count("undecided") == 2


@pytest.mark.parametrize("tag,pairs", [
    ("point", {(0, 1): "B0", (1, 0): "B0", (4, -3): "B0", (1, -1): "B1",
               (1, -2): "B2", (2, 0): "B3", (2, -2): "B4", (3, 0): "B5",
               (3, -1): "B6", (0, 0): None, (2, -4): None}),
    ("line", {(0, 1): "B0", (5, -4): "B0", (0, 2): "B1", (4, -2): "B1",
              (1, 1): "B1", (1, -1): "B2", (3, 0): "B3", (2, 2): None}),
    ("cubic", {(1, 0): "B0", (5, -2): "B0", (-5, 3): "B0", (1, -1): "B1",
               (2, 0): "B2", (2, -1): "B3", (3, 0): "B4", (4, -2): "B5",
               (7, -4): "B6", (0, 1): "B7", (-3, 3): "B8", (1, 1): None}),
])
def test_family_membership(tag, pairs):
    model = variety_model(tag)
    for pair, label in pairs.items():
        assert family_label_of(model, DivisorClass(*pair)) == label, pair


def test_undecided_family_membership():
    model = variety_model("cubic")
    assert family_label_of(model, DivisorClass(23, -15)) == "B9"
    assert family_label_of(model, DivisorClass(-19, 14)) == "B10"


def _members_in_box(model, window):
    """The generator's members with ``|a|, |b| <= window``, labelled, sorted."""
    return sorted(
        (d, label)
        for label, group in zip(family_labels(model.tag), family_members(model, window))
        for _, d in group
        if max(abs(d.a), abs(d.b)) <= window
    )


def test_candidate_counts_window_15():
    for tag, expected in CANDIDATE_COUNTS_WINDOW_15.items():
        model = variety_model(tag)
        candidates = _members_in_box(model, 15)
        assert len(candidates) == expected
        # Postcondition: every candidate's dual is confirmed or undecided.
        for d, label in candidates:
            assert label in family_labels(tag)
            assert coh_zero(model, -d) in (
                VanishingVerdict.ZERO, VanishingVerdict.UNKNOWN
            )


def test_candidates_sorted_deterministically():
    # Parameterized members come in ascending t, and the undecided ones
    # in ascending class order.
    for tag in ("point", "line", "cubic"):
        members = family_members(variety_model(tag), 24)
        for fam, group in zip(FAMILIES[tag], members):
            key = [t for t, _ in group] if fam.kind == "parameterized" else [d for _, d in group]
            assert key == sorted(set(key)), fam.label


def test_undecided_candidates_enter_at_window_23():
    model = variety_model("cubic")
    labels_19 = {label for _, label in _members_in_box(model, 19)}
    labels_23 = {label for _, label in _members_in_box(model, 23)}
    assert "B9" not in labels_19 and "B10" in labels_19
    assert "B9" in labels_23


def test_every_in_box_member_has_a_parameter_inside_the_window():
    # base_a + t*da lies in [-w, w] only for |t| <= w: either base_a is 0,
    # or |base_a| is 1 and |da| >= 2.
    for families in FAMILIES.values():
        for fam in families:
            if fam.kind == "parameterized":
                base_a, da = fam.base.a, fam.direction.a
                assert base_a == 0 or (abs(base_a) == 1 and abs(da) >= 2), fam


@pytest.mark.parametrize("tag", ["point", "line", "cubic"])
def test_generator_matches_the_grid_scan(tag):
    # One reference scan of the widest box; a smaller box's scan is its
    # restriction.
    model = variety_model(tag)
    grid = grid_candidates(model, 200)
    for window in [*range(10, 61), 100, 200]:
        expected = [(d, label) for d, label in grid if max(abs(d.a), abs(d.b)) <= window]
        assert _members_in_box(model, window) == expected, window


def test_sporadic_family_member_guard():
    fam = family_by_label("point", "B1")
    assert fam.member(0) == DivisorClass(1, -1)
    with pytest.raises(ValueError, match="single member"):
        fam.member(1)
    with pytest.raises(ValueError, match="parameterization"):
        family_by_label("cubic", "B9").member(0)


def test_family_by_label_rejects_an_unknown_label():
    with pytest.raises(ValueError, match="no family 'B9' on the point model"):
        family_by_label("point", "B9")


def test_type_catalogue_shape():
    assert type_indices("point") == tuple(range(1, 10))
    assert type_indices("line") == (1, 2)
    assert type_indices("cubic") == tuple(range(1, 16))


@pytest.mark.parametrize("key,entries", sorted(SPORADIC_TYPE_ENTRIES.items()))
def test_sporadic_type_instances_pinned(key, entries):
    tag, index = key
    seq = type_instance(tag, index)
    assert seq.entries[0] == ZERO_CLASS
    assert list(seq.entries[1:]) == entries


def test_parameterized_type_instances():
    assert list(type_instance("point", 1, (3,)).entries) == [
        (0, 0), (1, -1), (2, -2), (3, -2), (4, -3), (5, -4)
    ]
    assert list(type_instance("line", 2, (0, 1)).entries) == [
        (0, 0), (1, -1), (0, 1), (1, 0), (1, 1), (2, 0)
    ]
    assert list(type_instance("cubic", 14, (1,)).entries) == [
        (0, 0), (2, -1), (-1, 1), (1, 0), (3, -1), (2, 0)
    ]


def test_type_instance_validates():
    with pytest.raises(ValueError, match="no type"):
        type_instance("point", 10)
    with pytest.raises(ValueError, match="parameter"):
        type_instance("point", 1, (1, 2))


def test_classify_round_trips_all_instances():
    # The catalogue is collision-free: each instance matches its own label
    # and no other.
    for tag in ("point", "line", "cubic"):
        model = variety_model(tag)
        for seq, label in expected_instances(model, 12):
            assert matching_type_labels(seq) == (label,)


def test_classify_examples():
    [label] = matching_type_labels(type_instance("point", 1, (3,)))
    assert label == TypeLabel("point", 1, (3,))
    assert label.render() == "(1)[a=3]"
    assert matching_type_labels(type_instance("cubic", 4)) == (
        TypeLabel("cubic", 4, ()),
    )


def test_classify_rejects_permuted_sequences():
    seq = type_instance("point", 4)
    permuted = Collection("point", (seq.entries[0],) + tuple(reversed(seq.entries[1:])))
    assert matching_type_labels(permuted) == ()


def test_classify_requires_length_6():
    with pytest.raises(ValueError, match="length-6"):
        matching_type_labels(make_collection("point", [(0, 0), (1, -1)]))
    shifted = Collection(
        "point",
        tuple(e + DivisorClass(0, 1) for e in type_instance("point", 4).entries),
    )
    assert matching_type_labels(shifted) == matching_type_labels(normalize(shifted))
    assert matching_type_labels(shifted) == (TypeLabel("point", 4, ()),)


def test_expected_instances_window_15_counts():
    for tag, expected in INSTANCE_COUNTS_WINDOW_15.items():
        model = variety_model(tag)
        instances = expected_instances(model, 15)
        assert len(instances) == expected
        # Entries stay within the window, and no two labels collide.
        seqs = [seq for seq, _ in instances]
        assert len(set(seqs)) == len(seqs)
        for seq, _ in instances:
            assert all(abs(e.a) <= 15 and abs(e.b) <= 15 for e in seq.entries)


# Instance counts per model at windows 0, 3 and 9.
SMALL_WINDOW_COUNTS = {"point": (0, 16, 54), "line": (0, 40, 544), "cubic": (0, 7, 36)}


@pytest.mark.parametrize("tag", ["point", "line", "cubic"])
def test_expected_instances_below_window_10_match_a_brute_force(tag):
    # Below window 10 some fixed slot leaves the window, so the solved
    # parameter ranges give up on its type; the filter below knows nothing
    # of that.  A parameter of magnitude 25 puts every member slot outside.
    model, span = variety_model(tag), range(-25, 26)
    counts = {}
    for window in range(10):
        expected = [
            (seq, TypeLabel(tag, index, params))
            for index in type_indices(tag)
            for params in product(span, repeat=families.type_param_count(tag, index))
            for seq in [type_instance(tag, index, params)]
            if all(abs(e.a) <= window and abs(e.b) <= window for e in seq.entries)
        ]
        assert all(abs(t) < 25 for _, label in expected for t in label.params)
        assert expected_instances(model, window) == expected, window
        counts[window] = len(expected)
    assert (counts[0], counts[3], counts[9]) == SMALL_WINDOW_COUNTS[tag]


def test_expected_instances_parameter_ranges_window_15():
    point = variety_model("point")
    by_index = {}
    for _, label in expected_instances(point, 15):
        by_index.setdefault(label.index, []).append(label.params)
    for index in (1, 2, 3):
        params = sorted(p[0] for p in by_index[index])
        assert params == list(range(-14, 14)), index
    line = variety_model("line")
    a_values = set()
    b_values = set()
    for _, label in expected_instances(line, 15):
        a_values.add(label.params[0])
        b_values.add(label.params[1])
    assert sorted(a_values) == list(range(-14, 15))
    assert sorted(b_values) == list(range(-13, 15))
    cubic = variety_model("cubic")
    for index in (13, 14, 15):
        params = sorted(
            label.params[0]
            for _, label in expected_instances(cubic, 15)
            if label.index == index
        )
        assert params == list(range(-6, 8)), index


def reference_instances(model, window):
    """Grid scan: every parameter in ``[-window - 6, window + 6]``, then a window filter.

    Yields ``(index, params, entry pairs)`` tuples.  The entries are
    computed in plain ints from the compiled rows, which
    ``test_compiled_rows_match_the_family_members`` pins to the family
    formulas, so no object is built per grid point.
    """
    span = range(-window - 6, window + 7)
    for index, pattern in sorted(families._TYPE_PATTERNS[model.tag].items()):
        for params in product(span, repeat=len(pattern.param_names)):
            ts = (*params, 0)
            entries = [(a0 + ts[p] * da, b0 + ts[p] * db) for a0, b0, da, db, p in pattern.rows]
            if all(-window <= a <= window and -window <= b <= window for a, b in entries):
                yield index, params, ((0, 0), *entries)


@pytest.mark.parametrize("tag,windows", [
    ("point", [*range(10, 41), 42]),
    ("line", range(10, 41)),
    ("cubic", [*range(10, 41), 84]),
])
def test_expected_instances_match_the_grid_scan(tag, windows):
    model = variety_model(tag)
    for window in windows:
        found = [
            (seq.variety, label.variety, label.index, label.params, seq.entries)
            for seq, label in expected_instances(model, window)
        ]
        wanted = [(tag, tag, *instance) for instance in reference_instances(model, window)]
        assert found == wanted, window


# The slots of the parameterized types as written: a fixed class, or a
# family member ``(label, parameter index, shift)``.
PARAMETERIZED_TYPE_SLOTS = {
    ("point", 1): [(1, -1), (2, -2), ("B0", 0, 0), ("B0", 0, 1), ("B0", 0, 2)],
    ("point", 2): [(1, -1), ("B0", 0, 0), ("B0", 0, 1), ("B0", 0, 2), (3, -1)],
    ("point", 3): [("B0", 0, 0), ("B0", 0, 1), ("B0", 0, 2), (2, 0), (3, -1)],
    ("line", 1): [("B0", 0, 0), ("B0", 0, 1), ("B1", 1, 0), ("B1", 1, 1), (3, 0)],
    ("line", 2): [(1, -1), ("B0", 0, 0), ("B0", 0, 1), ("B1", 1, 0), ("B1", 1, 1)],
    ("cubic", 13): [(2, -1), (4, -2), ("B0", 0, -2), ("B0", 0, -1), ("B0", 0, 0)],
    ("cubic", 14): [(2, -1), ("B0", 0, -2), ("B0", 0, -1), ("B0", 0, 0), (2, 0)],
    ("cubic", 15): [("B0", 0, -2), ("B0", 0, -1), ("B0", 0, 0), (0, 1), (2, 0)],
}


def member_route(tag, slots, params):
    """Instantiate written slots through their families' ``member`` formulas."""
    return tuple(
        family_by_label(tag, slot[0]).member(params[slot[1]] + slot[2])
        if isinstance(slot[0], str)
        else DivisorClass(*slot)
        for slot in slots
    )


@pytest.mark.parametrize("tag", ["point", "line", "cubic"])
def test_compiled_rows_match_the_family_members(tag):
    span = range(-12, 13)
    for index in type_indices(tag):
        slots = PARAMETERIZED_TYPE_SLOTS.get((tag, index)) or SPORADIC_TYPE_ENTRIES[tag, index]
        for params in product(span, repeat=families.type_param_count(tag, index)):
            found = type_instance(tag, index, params).entries[1:]
            assert found == member_route(tag, slots, params), (index, params)


@pytest.mark.parametrize("tag", ["point", "line", "cubic"])
def test_perturbed_instances_match_no_type(tag):
    # Moving one coordinate of one slot by one step leaves the catalogue.
    model = variety_model(tag)
    steps = [DivisorClass(1, 0), DivisorClass(-1, 0), DivisorClass(0, 1), DivisorClass(0, -1)]
    for seq, _ in expected_instances(model, 12):
        for k in range(1, 6):
            for step in steps:
                entries = list(seq.entries)
                entries[k] = entries[k] + step
                perturbed = Collection(tag, tuple(entries))
                assert matching_type_labels(perturbed) == (), (perturbed, k)


def test_expected_instances_builds_only_fitting_instances(monkeypatch):
    # Each slot's classes are built once per value of its parameter, inside
    # the fitting box; the instances are looked up from those columns.
    built = []
    divisor = families._divisor

    def counted(pair):
        built.append(pair)
        return divisor(pair)

    monkeypatch.setattr(families, "_divisor", counted)
    window = 15
    instances = expected_instances(variety_model("line"), window)
    assert len(instances) == 1624
    assert all(abs(c) <= window for seq, _ in instances for d in seq.entries for c in d)
    assert all(abs(c) <= window for pair in built for c in pair)
    # Both line types take a in [-14, 14] and b in [-13, 14], each through
    # two slots, and have one fixed slot: 2 * (2*29 + 2*28 + 1) classes.
    assert len(built) == 230
