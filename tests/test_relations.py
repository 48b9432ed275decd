"""Mutation chains between collection types, realized by helix moves."""

from itertools import product

import pytest

from blowup_collections import verify
from blowup_collections.sequences import helix_rotate_right
from blowup_collections.families import TypeLabel, matching_type_labels, type_instance
from blowup_collections.verify import check_relations

EXPECTED_WALK_COUNTS = {"point": 12, "line": 121, "cubic": 13}


def _only(monkeypatch, tag, chains):
    """Let the check walk ``chains`` on ``tag`` and no chain elsewhere."""
    monkeypatch.setattr(
        verify, "_CHAINS", {**dict.fromkeys(verify._CHAINS, ()), tag: chains}
    )


def _chain(tag, name):
    return next(chain for chain in verify._CHAINS[tag] if chain[0] == name)


def _labels(tag, nodes):
    return [TypeLabel(tag, index, params) for index, params in nodes]


def _walks(tag, param_range=5):
    """Every walk of the model's chains as its node labels."""
    values = range(-param_range, param_range + 1)
    return [
        _labels(tag, nodes(*point))
        for _, names, nodes in verify._CHAINS[tag]
        for point in product(values, repeat=len(names))
    ]


def test_all_chains_verify():
    result = check_relations(5)
    assert result.ok and result.details == ()
    assert result.summary == "146 chain walks realized over parameter range 5"
    assert sum(EXPECTED_WALK_COUNTS.values()) == 146


@pytest.mark.parametrize("tag", sorted(EXPECTED_WALK_COUNTS))
def test_walks_per_model(monkeypatch, tag):
    assert len(_walks(tag)) == EXPECTED_WALK_COUNTS[tag]
    _only(monkeypatch, tag, verify._CHAINS[tag])
    result = check_relations(5)
    assert result.ok and result.details == ()
    assert result.summary == (
        f"{EXPECTED_WALK_COUNTS[tag]} chain walks realized over parameter range 5"
    )


def test_every_step_is_one_right_rotation():
    for tag in EXPECTED_WALK_COUNTS:
        for walk in _walks(tag):
            for before, after in zip(walk, walk[1:]):
                rotated = helix_rotate_right(
                    type_instance(tag, before.index, before.params)
                )
                assert rotated == type_instance(tag, after.index, after.params)


def test_cycles_close():
    # A cycle lists its start again as its last node, so it closes exactly
    # when its last step is realized; the line descent does not return.
    for tag in ("point", "cubic"):
        for walk in _walks(tag):
            assert len(walk) == 7
    for walk in _walks("line"):
        assert len(walk) == 3
        assert walk[-1] != walk[0]


def test_every_cycle_ends_on_its_start_label():
    for tag in ("point", "cubic"):
        for walk in _walks(tag):
            assert walk[-1] == walk[0]


def test_point_parameterized_walk_labels():
    _, _, nodes = _chain("point", "parameterized-rotation-cycle")
    # The waypoints are pinned at (2)_{a-1}, (3)_{a-2}, (2)_{3-a}, (3)_{2-a}.
    assert _labels("point", nodes(0)) == [
        TypeLabel("point", 1, (0,)),
        TypeLabel("point", 2, (-1,)),
        TypeLabel("point", 3, (-2,)),
        TypeLabel("point", 1, (4,)),
        TypeLabel("point", 2, (3,)),
        TypeLabel("point", 3, (2,)),
        TypeLabel("point", 1, (0,)),
    ]


def test_line_walk_is_strict_descent():
    _, _, nodes = _chain("line", "two-step-descent")
    assert _labels("line", nodes(0, 0)) == [
        TypeLabel("line", 1, (0, 0)),
        TypeLabel("line", 2, (0, 3)),
        TypeLabel("line", 1, (-1, 2)),
    ]


def test_cubic_parameterized_walk():
    _, _, nodes = _chain("cubic", "parameterized-rotation-cycle")
    assert _labels("cubic", nodes(2)) == [
        TypeLabel("cubic", 13, (2,)),
        TypeLabel("cubic", 14, (1,)),
        TypeLabel("cubic", 15, (0,)),
        TypeLabel("cubic", 13, (3,)),
        TypeLabel("cubic", 14, (2,)),
        TypeLabel("cubic", 15, (1,)),
        TypeLabel("cubic", 13, (2,)),
    ]


def test_naive_point_waypoint_fails(monkeypatch):
    # Declaring the waypoint (2) at the start's own parameter is wrong: one
    # right rotation does not reach it, and the walk stops there.
    name, params, nodes = _chain("point", "parameterized-rotation-cycle")
    naive = (name, params, lambda a: ((1, (a,)), (2, (a,)), *nodes(a)[2:]))
    _only(monkeypatch, "point", (naive,))
    result = check_relations(3)
    assert not result.ok
    assert (
        "point: parameterized-rotation-cycle [a=0]: one right rotation does not "
        "reach (2)[a=0]" in result.details
    )
    assert len(result.details) == 7
    assert result.summary == (
        "7 chain walks realized over parameter range 3; 7 failure(s)"
    )


def test_a_failure_line_names_its_model_and_a_chain_without_parameters(monkeypatch):
    # (3) is no right rotation of (1); the walk stops there and never
    # tries the step to (2).
    chains = dict(verify._CHAINS)
    chains["cubic"] = (
        ("sporadic-rotation-cycle-one", (), lambda: ((1, ()), (3, ()), (2, ()))),
        *chains["cubic"][1:],
    )
    monkeypatch.setattr(verify, "_CHAINS", chains)
    assert check_relations(3).details == (
        "cubic: sporadic-rotation-cycle-one [-]: one right rotation does not reach (3)",
    )


def test_direct_rotation_matches_discovered_label():
    rotated = helix_rotate_right(type_instance("point", 1, (0,)))
    assert matching_type_labels(rotated) == (TypeLabel("point", 2, (-1,)),)


# Per model: the walks at parameter range 3, and the first failure line.
REVERSED = {
    "point": (8, "point: sporadic-rotation-cycle [-]: one right rotation does not reach (9)"),
    "line": (49, "line: two-step-descent [a=-3, b=-3]: one right rotation does not "
                 "reach (2)[a=0, b=6]"),
    "cubic": (9, "cubic: sporadic-rotation-cycle-one [-]: one right rotation does not "
                 "reach (6)"),
}


@pytest.mark.parametrize("tag", sorted(EXPECTED_WALK_COUNTS))
def test_reversed_chains_fail_at_their_first_step(monkeypatch, tag):
    # Walked backwards, every step is a left rotation; a step is exactly one
    # right rotation, so each reversed walk stops at its first step.
    reversed_chains = tuple(
        (name, params, lambda *point, nodes=nodes: nodes(*point)[::-1])
        for name, params, nodes in verify._CHAINS[tag]
    )
    _only(monkeypatch, tag, reversed_chains)
    walks, first = REVERSED[tag]
    result = check_relations(3)
    assert len(result.details) == walks
    assert result.details[0] == first
    assert result.summary == (
        f"{walks} chain walks realized over parameter range 3; {walks} failure(s)"
    )


def test_param_range_validation():
    with pytest.raises(
        ValueError, match="^relation verification needs a parameter range of at least 3$"
    ):
        check_relations(2)


def test_report_shape():
    result = check_relations(3)
    assert result.name == "relations"
    assert result.ok is True and result.details == ()
    assert result.report_lines() == [
        "[PASS] relations: 66 chain walks realized over parameter range 3"
    ]
