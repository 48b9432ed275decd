"""Exhaustive window enumeration of normalized length-6 collections."""

import json

import pytest

from blowup_collections import enumeration, sequences
from blowup_collections.geometry import ZERO_CLASS, variety_model
from blowup_collections.vanishing import VanishingVerdict
from blowup_collections.sequences import Collection, collection_verdict
import reference_scans
from reference_scans import grid_candidates, pair_verdict
from blowup_collections.families import expected_instances, matching_type_labels
from blowup_collections.enumeration import enumerate_collections

# Frozen window-15 census: sequence count and distinct type count.
WINDOW_15_CENSUS = {"point": (90, 9), "line": (1624, 2), "cubic": (54, 15)}


@pytest.fixture(scope="module")
def reports():
    return {
        tag: enumerate_collections(variety_model(tag), 15)
        for tag in ("point", "line", "cubic")
    }


def test_window_validation():
    with pytest.raises(ValueError, match="below 10"):
        enumerate_collections(variety_model("point"), 9)


def test_window_15_counts(reports):
    for tag, (count, types) in WINDOW_15_CENSUS.items():
        report = reports[tag]
        assert len(report.confirmed) == count, tag
        assert len(report.confirmed_type_indices) == types, tag
        assert report.undetermined == ()
        assert report.unmatched == ()


def test_window_15_matches_catalogue_exactly(reports):
    # Two-sided check: the search finds precisely the catalogue instances
    # that fit the window, each with the right label.
    for tag in WINDOW_15_CENSUS:
        found = set(reports[tag].confirmed)
        expected = set(
            (seq, label)
            for seq, label in expected_instances(variety_model(tag), 15)
        )
        assert found == expected, tag


def test_report_ordering_is_deterministic(reports):
    for tag in WINDOW_15_CENSUS:
        labels = [label for _, label in reports[tag].confirmed]
        assert labels == sorted(labels, key=lambda lb: (lb.index, lb.params))


def test_confirmed_sequences_reverify(reports):
    for tag in WINDOW_15_CENSUS:
        sample = reports[tag].confirmed[::7]
        for seq, _ in sample:
            assert collection_verdict(seq) is VanishingVerdict.ZERO
            assert seq.entries[0] == ZERO_CLASS and len(seq.entries) == 6
            assert all(abs(e.a) <= 15 and abs(e.b) <= 15 for e in seq.entries)


@pytest.mark.parametrize("tag", ["point", "line", "cubic"])
def test_search_asks_the_oracle_once_per_ordered_pair(tag, monkeypatch):
    # n*n pairs among the candidates plus n after the trivial class.
    calls = []
    oracle = enumeration.coh_zero

    def counted(model, d):
        calls.append(d)
        return oracle(model, d)

    monkeypatch.setattr(enumeration, "coh_zero", counted)
    model = variety_model(tag)
    n = len(grid_candidates(model, 12))
    enumerate_collections(model, 12)
    assert len(calls) == n * n + n


def test_every_leaf_is_rechecked_pair_by_pair(monkeypatch):
    # The masks alone would already decide each leaf; the re-check through
    # collection_verdict must still ask the verdict memo about all 15 pairs.
    rechecked, pair_calls = [], []
    recheck, memo = enumeration.collection_verdict, sequences._cached_verdict

    def counted_recheck(seq):
        rechecked.append(seq)
        return recheck(seq)

    def counted_memo(tag, a, b):
        pair_calls.append((a, b))
        return memo(tag, a, b)

    monkeypatch.setattr(enumeration, "collection_verdict", counted_recheck)
    monkeypatch.setattr(sequences, "_cached_verdict", counted_memo)
    report = enumerate_collections(variety_model("line"), 10)
    assert len(report.confirmed) == len(rechecked) == 684
    assert len(pair_calls) == 15 * 684


@pytest.mark.parametrize("tag", ["point", "line", "cubic"])
def test_leaves_and_instances_pass_the_constructor_checks(tag):
    # Both are built with Collection._make, which skips the validation.
    model = variety_model(tag)
    leaves = [seq for seq, _ in enumerate_collections(model, 12).confirmed]
    instances = [seq for seq, _ in expected_instances(model, 12)]
    assert leaves and instances
    for seq in leaves + instances:
        assert type(seq) is Collection
        assert seq == Collection(seq.variety, seq.entries)


def test_line_window_10_census():
    report = enumerate_collections(variety_model("line"), 10)
    assert len(report.confirmed) == 684
    assert report.confirmed_type_indices == (1, 2)
    assert report.undetermined == () and report.unmatched == ()


def test_cubic_window_24_census():
    # Window 24 brings both undecided candidate classes into range; they
    # still complete no sequence, so nothing becomes undetermined.
    report = enumerate_collections(variety_model("cubic"), 24)
    assert len(report.confirmed) == 78
    assert report.confirmed_type_indices == tuple(range(1, 16))
    assert report.undetermined == ()
    assert report.unmatched == ()


def test_summary_lines(reports):
    assert reports["point"].summary() == "confirmed families: 9, undetermined: 0"
    assert reports["cubic"].summary() == "confirmed families: 15, undetermined: 0"


def test_report_json_round_trip(reports):
    payload = json.loads(json.dumps(reports["point"].to_json_dict()))
    assert payload["variety"] == "point"
    assert payload["window"] == 15
    assert len(payload["confirmed"]) == 90
    assert payload["undetermined"] == [] and payload["unmatched"] == []
    assert payload["summary"] == "confirmed families: 9, undetermined: 0"
    first = payload["confirmed"][0]
    assert first["type"]["index"] == 1
    assert first["collection"]["entries"][0] == [0, 0]


def reference_search(model, window):
    """Plain depth-first search over ``DivisorClass`` objects, no masks or caches.

    Returns the (confirmed, undetermined, unmatched) sets the bitset engine
    must reproduce.
    """
    candidates = [d for d, _ in grid_candidates(model, window)]
    confirmed, undetermined, unmatched = set(), set(), set()

    def extend(prefix, has_unknown):
        if len(prefix) == 6:
            seq = Collection(model.tag, tuple(prefix))
            if has_unknown:
                undetermined.add(seq)
                return
            labels = matching_type_labels(seq)
            if len(labels) == 1:
                confirmed.add((seq, labels[0]))
            else:
                unmatched.add(seq)
            return
        for cand in candidates:
            verdicts = [pair_verdict(model, e, cand) for e in prefix]
            if VanishingVerdict.NONZERO not in verdicts:
                unknown = VanishingVerdict.UNKNOWN in verdicts
                extend(prefix + [cand], has_unknown or unknown)

    extend([ZERO_CLASS], False)
    return confirmed, undetermined, unmatched


def _report_sets(report):
    return set(report.confirmed), set(report.undetermined), set(report.unmatched)


@pytest.mark.parametrize("window", [10, 11, 12])
@pytest.mark.parametrize("tag", ["point", "line", "cubic"])
def test_bitset_engine_matches_reference_search(tag, window):
    model = variety_model(tag)
    report = enumerate_collections(model, window)
    assert _report_sets(report) == reference_search(model, window)


def test_undecided_pair_lands_in_undetermined_in_both_engines(monkeypatch):
    # Real data never completes a sequence through an undecided pair, so
    # make one ZERO pair of a cubic type instance read UNKNOWN.
    model = variety_model("cubic")
    seq, _ = enumerate_collections(model, 12).confirmed[0]
    undecided = seq.entries[1] - seq.entries[2]
    real, memo = enumeration.coh_zero, sequences._cached_verdict

    def oracle(m, d):
        return VanishingVerdict.UNKNOWN if d == undecided else real(m, d)

    def memo_oracle(tag, a, b):
        return VanishingVerdict.UNKNOWN if (a, b) == undecided else memo(tag, a, b)

    monkeypatch.setattr(enumeration, "coh_zero", oracle)
    monkeypatch.setattr(sequences, "_cached_verdict", memo_oracle)
    monkeypatch.setattr(reference_scans, "coh_zero", oracle)
    report = enumerate_collections(model, 12)
    assert seq in report.undetermined
    assert seq not in {s for s, _ in report.confirmed}
    assert _report_sets(report) == reference_search(model, 12)
