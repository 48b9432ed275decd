"""Mutation chains between collection types, realized by helix moves."""

import pytest

from blowup_collections import relations
from blowup_collections.geometry import variety_model
from blowup_collections.sequences import helix_rotate_right
from blowup_collections.families import TypeLabel, matching_type_labels, type_instance
from blowup_collections.relations import verify_mutation_relations

EXPECTED_WALK_COUNTS = {"point": 12, "line": 121, "cubic": 13}


@pytest.fixture(scope="module")
def reports():
    return {
        tag: verify_mutation_relations(variety_model(tag), 5)
        for tag in EXPECTED_WALK_COUNTS
    }


def test_all_chains_verify(reports):
    for tag, expected in EXPECTED_WALK_COUNTS.items():
        report = reports[tag]
        assert report.ok, report.failures()
        assert report.failures() == []
        assert len(report.walks) == expected
    assert sum(len(r.walks) for r in reports.values()) == 146


def test_every_step_is_one_right_rotation(reports):
    for report in reports.values():
        for walk in report.walks:
            for step in walk.steps:
                assert step.found


def test_cycles_close(reports):
    # A cycle lists its start again as its last node, so it closes exactly
    # when its last step is found.
    for tag in ("point", "cubic"):
        for walk in reports[tag].walks:
            assert len(walk.steps) == 6
            assert walk.steps[-1].found
    for walk in reports["line"].walks:
        assert len(walk.steps) == 2
        assert walk.steps[-1].declared != walk.start


def test_every_cycle_ends_on_its_start_label(reports):
    for tag in ("point", "cubic"):
        for walk in reports[tag].walks:
            assert walk.steps[-1].declared == walk.start


def test_point_parameterized_walk_labels(reports):
    walk = next(
        w
        for w in reports["point"].walks
        if w.chain == "parameterized-rotation-cycle" and w.assignment == (("a", 0),)
    )
    assert walk.start == TypeLabel("point", 1, (0,))
    # The waypoints are pinned at (2)_{a-1}, (3)_{a-2}, (2)_{3-a}, (3)_{2-a}.
    declared = [step.declared for step in walk.steps]
    assert declared == [
        TypeLabel("point", 2, (-1,)),
        TypeLabel("point", 3, (-2,)),
        TypeLabel("point", 1, (4,)),
        TypeLabel("point", 2, (3,)),
        TypeLabel("point", 3, (2,)),
        TypeLabel("point", 1, (0,)),
    ]
    assert all(step.found for step in walk.steps)


def test_naive_point_waypoint_fails(monkeypatch):
    # Declaring the waypoint (2) at the start's own parameter is wrong: one
    # right rotation does not reach it, and the walk stops there.
    name, params, nodes = relations._CHAINS["point"][1]
    naive = (name, params, lambda a: ((1, (a,)), (2, (a,)), *nodes(a)[2:]))
    monkeypatch.setitem(relations._CHAINS, "point", (naive,))
    report = verify_mutation_relations(variety_model("point"), 3)
    assert not report.ok
    assert (
        "parameterized-rotation-cycle [a=0]: one right rotation does not reach (2)[a=0]"
        in report.failures()
    )
    assert len(report.failures()) == len(report.walks) == 7
    for walk in report.walks:
        assert not walk.ok
        assert [step.found for step in walk.steps] == [False]


def test_line_walk_is_strict_descent(reports):
    walk = next(
        w
        for w in reports["line"].walks
        if w.assignment == (("a", 0), ("b", 0))
    )
    assert walk.start == TypeLabel("line", 1, (0, 0))
    assert [step.declared for step in walk.steps] == [
        TypeLabel("line", 2, (0, 3)),
        TypeLabel("line", 1, (-1, 2)),
    ]
    for step in walk.steps:
        assert step.found


def test_cubic_parameterized_walk(reports):
    walk = next(
        w
        for w in reports["cubic"].walks
        if w.chain == "parameterized-rotation-cycle" and w.assignment == (("b", 2),)
    )
    assert [step.declared for step in walk.steps] == [
        TypeLabel("cubic", 14, (1,)),
        TypeLabel("cubic", 15, (0,)),
        TypeLabel("cubic", 13, (3,)),
        TypeLabel("cubic", 14, (2,)),
        TypeLabel("cubic", 15, (1,)),
        TypeLabel("cubic", 13, (2,)),
    ]
    assert all(step.found for step in walk.steps)


def test_direct_rotation_matches_discovered_label():
    rotated = helix_rotate_right(type_instance("point", 1, (0,)))
    assert matching_type_labels(rotated) == (TypeLabel("point", 2, (-1,)),)


@pytest.mark.parametrize("tag", sorted(EXPECTED_WALK_COUNTS))
def test_reversed_chains_fail_at_their_first_step(monkeypatch, tag):
    # Walked backwards, every step is a left rotation; a step is exactly one
    # right rotation, so each reversed walk stops at its first step.
    reversed_chains = tuple(
        (name, params, lambda *point, nodes=nodes: nodes(*point)[::-1])
        for name, params, nodes in relations._CHAINS[tag]
    )
    monkeypatch.setitem(relations._CHAINS, tag, reversed_chains)
    report = verify_mutation_relations(variety_model(tag), 3)
    assert report.walks
    assert len(report.failures()) == len(report.walks)
    for walk in report.walks:
        assert [step.found for step in walk.steps] == [False]


def test_param_range_validation():
    with pytest.raises(ValueError, match="at least 3"):
        verify_mutation_relations(variety_model("point"), 2)


def test_report_shape(reports):
    report = reports["cubic"]
    assert report.variety == "cubic"
    assert report.param_range == 5
    assert report.ok is True
    assert len(report.walks) == 13
    first = report.walks[0]
    assert first.ok
    assert first.steps[-1].found and first.steps[-1].declared == first.start
    assert first.steps[0].found is True
