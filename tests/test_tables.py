"""Pairwise-compatibility tables: golden content, certification, renders."""

import csv
import io
import json

import pytest

import blowup_collections.enumeration as enumeration_mod
import blowup_collections.families as families_mod
import blowup_collections.tables as tables_mod
from reference_scans import fit_cell_from_scan, grid_candidates
from blowup_collections.diophantine import dual_conic_points
from blowup_collections.geometry import DivisorClass, variety_model
from blowup_collections.vanishing import FAMILIES, VanishingVerdict, coh_zero
from blowup_collections.families import (
    family_by_label,
    family_label_of,
    family_labels,
    family_members,
)
from blowup_collections.tables import (
    CellCondition,
    TableVerificationError,
    pair_table,
)

# Independent transcription of every non-"never" cell, keyed by
# (row family, column family).  Anything absent must be "never".
GOLDEN = {
    "point": {
        ("B0", "B0"): ("diff_in", (1, 2)),
        ("B0", "B1"): ("row_in", (0,)),
        ("B0", "B3"): ("always", ()),
        ("B0", "B4"): ("row_in", (1,)),
        ("B0", "B5"): ("row_in", (0, 1)),
        ("B0", "B6"): ("always", ()),
        ("B1", "B0"): ("always", ()),
        ("B1", "B4"): ("always", ()),
        ("B1", "B6"): ("always", ()),
        ("B2", "B0"): ("col_in", (3, 4)),
        ("B2", "B1"): ("always", ()),
        ("B2", "B4"): ("always", ()),
        ("B3", "B0"): ("col_in", (3,)),
        ("B3", "B5"): ("always", ()),
        ("B3", "B6"): ("always", ()),
        ("B4", "B0"): ("always", ()),
        ("B6", "B0"): ("col_in", (4,)),
        ("B6", "B5"): ("always", ()),
    },
    "line": {
        ("B0", "B0"): ("diff_in", (1,)),
        ("B0", "B1"): ("always", ()),
        ("B0", "B3"): ("always", ()),
        ("B1", "B1"): ("diff_in", (1,)),
        ("B1", "B3"): ("always", ()),
        ("B2", "B0"): ("always", ()),
        ("B2", "B1"): ("always", ()),
    },
    "cubic": {
        ("B0", "B0"): ("diff_in", (1, 2)),
        ("B0", "B2"): ("always", ()),
        ("B0", "B3"): ("row_in", (-3, 0)),
        ("B0", "B4"): ("row_in", (0, 1)),
        ("B0", "B5"): ("row_in", (-2, 1)),
        ("B0", "B7"): ("always", ()),
        ("B0", "B8"): ("row_in", (-3, -2)),
        ("B1", "B0"): ("col_in", (0, 1)),
        ("B1", "B3"): ("always", ()),
        ("B1", "B5"): ("always", ()),
        ("B2", "B0"): ("col_in", (1, 4)),
        ("B2", "B4"): ("always", ()),
        ("B2", "B8"): ("always", ()),
        ("B3", "B0"): ("always", ()),
        ("B3", "B2"): ("always", ()),
        ("B3", "B5"): ("always", ()),
        ("B5", "B0"): ("always", ()),
        ("B6", "B0"): ("col_in", (3, 4)),
        ("B6", "B3"): ("always", ()),
        ("B6", "B5"): ("always", ()),
        ("B7", "B0"): ("col_in", (0, 3)),
        ("B7", "B2"): ("always", ()),
        ("B7", "B4"): ("always", ()),
        ("B7", "B8"): ("always", ()),
        ("B9", "B9"): ("unknown", ()),
        ("B9", "B10"): ("unknown", ()),
        ("B10", "B9"): ("unknown", ()),
        ("B10", "B10"): ("unknown", ()),
    },
}


@pytest.fixture(scope="module")
def tables():
    return {tag: pair_table(variety_model(tag), 15) for tag in GOLDEN}


@pytest.mark.parametrize("tag", sorted(GOLDEN))
def test_certified_cells_match_golden_fixture(tag, tables):
    table = tables[tag]
    golden = GOLDEN[tag]
    for row_label in table.labels:
        for col_label in table.labels:
            cond = table.cell(row_label, col_label)
            kind, values = golden.get((row_label, col_label), ("never", ()))
            assert (cond.kind, cond.values) == (kind, values), (row_label, col_label)


def test_total_cell_census(tables):
    assert sum(len(t.labels) ** 2 for t in tables.values()) == 186
    nonnever = {
        tag: sum(
            1
            for row in tables[tag].cells
            for cond in row
            if cond.kind != "never"
        )
        for tag in tables
    }
    assert nonnever == {"point": 18, "line": 7, "cubic": 28}


def test_certification_passes_wider_window():
    for tag in GOLDEN:
        pair_table(variety_model(tag), 30)


def test_window_validation():
    with pytest.raises(ValueError, match="below 10"):
        pair_table(variety_model("point"), 9)


def test_chain_law_against_oracle():
    # Direct oracle check of the two parameterized diagonal cells,
    # independent of the table machinery.
    point = variety_model("point")
    b0_point = family_by_label("point", "B0")
    for p in range(-6, 7):
        for q in range(-6, 7):
            verdict = coh_zero(point, b0_point.member(p) - b0_point.member(q))
            assert (verdict is VanishingVerdict.ZERO) == (q - p in (1, 2))
    line = variety_model("line")
    b0_line = family_by_label("line", "B0")
    for p in range(-6, 7):
        for q in range(-6, 7):
            verdict = coh_zero(line, b0_line.member(p) - b0_line.member(q))
            assert (verdict is VanishingVerdict.ZERO) == (q - p == 1)


def test_fit_cell_round_trip(tables):
    # Rederive each decided cell from raw verdicts and compare.
    window = 12
    for tag, table in tables.items():
        model = variety_model(tag)
        members = dict(zip(table.labels, family_members(model, window)))
        parameterized = {
            fam.label for fam in FAMILIES[tag] if fam.kind == "parameterized"
        }
        for row_label in table.labels:
            for col_label in table.labels:
                cond = table.cell(row_label, col_label)
                if cond.kind == "unknown":
                    continue
                scan = {
                    (p, q): coh_zero(model, d_row - d_col)
                    for p, d_row in members[row_label]
                    for q, d_col in members[col_label]
                }
                fitted = fit_cell_from_scan(
                    scan,
                    row_label in parameterized,
                    col_label in parameterized,
                    window,
                )
                assert fitted == cond, (tag, row_label, col_label)


def test_fit_cell_rejections():
    z, n = VanishingVerdict.ZERO, VanishingVerdict.NONZERO
    with pytest.raises(ValueError, match="not decided"):
        fit_cell_from_scan({(0, 0): VanishingVerdict.UNKNOWN}, False, False, 12)
    with pytest.raises(ValueError, match="never/always"):
        fit_cell_from_scan({(0, 0): z, (0, 1): n}, False, False, 12)
    boundary = {(0, q): (z if q == 11 else n) for q in range(-12, 13)}
    with pytest.raises(ValueError, match="boundary"):
        fit_cell_from_scan(boundary, False, True, 12)
    ragged = {
        (p, q): (z if (p, q) in {(0, 0), (1, 2)} else n)
        for p in range(-5, 6)
        for q in range(-5, 6)
    }
    with pytest.raises(ValueError, match="difference pattern"):
        fit_cell_from_scan(ragged, True, True, 12)


def _undecided_members(window):
    model = variety_model("cubic")
    members = dict(zip(family_labels("cubic"), family_members(model, window)))
    return members["B9"], members["B10"]


def test_undecided_family_members():
    # The B0 rows reach coordinate 2*window + 1, and the undecided members
    # are listed out to there: B10 enters at window 9, so every table window
    # (10 and up) has it, and B9 at window 11.
    b9, b10 = [(0, DivisorClass(23, -15))], [(0, DivisorClass(-19, 14))]
    assert _undecided_members(8) == ([], [])
    assert _undecided_members(9) == ([], b10)
    assert _undecided_members(10) == ([], b10)
    assert _undecided_members(11) == (b9, b10)
    assert _undecided_members(23) == (b9, b10)
    assert _undecided_members(26) == (
        b9 + [(0, DivisorClass(52, -35))], [(0, DivisorClass(-48, 34))] + b10
    )


def test_conic_scan_finds_the_undecided_members_of_the_grid_scan():
    # Reference: every class of the square grid, labelled case by case.
    cubic = variety_model("cubic")
    grid = [
        (d, label) for d, label in grid_candidates(cubic, 200) if label in ("B9", "B10")
    ]
    undecided = {
        reach: [(d, label) for d, label in grid if max(abs(d.a), abs(d.b)) <= reach]
        for reach in [*range(10, 61), 200]
    }
    for reach, expected in undecided.items():
        labelled = [(d, family_label_of(cubic, d)) for d in dual_conic_points(reach)]
        from_conic = [(d, label) for d, label in labelled if label in ("B9", "B10")]
        assert from_conic == expected, reach
    # The B0 rows of window w reach coordinate 2w + 1.
    for window in range(5, 30):
        from_grid = undecided[2 * window + 1]
        assert _undecided_members(window) == tuple(
            [(0, d) for d, label in from_grid if label == want] for want in ("B9", "B10")
        ), window


def test_cubic_table_scans_the_candidate_grid_once(monkeypatch):
    # B9 and B10 both take their members from one conic solve, out to the
    # largest B0 coordinate 2*15 + 1.
    calls = []
    solve = families_mod.dual_conic_points

    def counted(window):
        calls.append(window)
        return solve(window)

    monkeypatch.setattr(families_mod, "dual_conic_points", counted)
    table = pair_table(variety_model("cubic"), 15)
    assert calls == [31]
    assert table.cell("B9", "B10").kind == "unknown"
    calls.clear()
    pair_table(variety_model("line"), 15)
    assert calls == []


@pytest.mark.parametrize("tag", ["point", "line", "cubic"])
def test_table_asks_the_oracle_once_per_member_pair(tag, monkeypatch):
    # The members are both the rows and the columns of the verdict matrix;
    # no trivial-class row is filled.
    calls = []
    memo = enumeration_mod._cached_verdict

    def counted(t, a, b):
        calls.append((a, b))
        return memo(t, a, b)

    monkeypatch.setattr(enumeration_mod, "_cached_verdict", counted)
    n = sum(len(group) for group in family_members(variety_model(tag), 12))
    pair_table(variety_model(tag), 12)
    assert len(calls) == n * n


def test_markdown_render(tables):
    md = tables["line"].to_markdown()
    lines = md.splitlines()
    assert lines[0] == "| | B0' | B1' | B2 | B3 |"
    assert "| B0 | a'=a+1 | √ |  | √ |" in lines
    assert "| B2 | √ | √ |  |  |" in lines
    assert "a'=3, 4" in tables["point"].to_markdown()
    assert "?" in tables["cubic"].to_markdown()


def test_csv_render(tables):
    rows = list(csv.reader(io.StringIO(tables["line"].to_csv())))
    assert rows[0] == ["", "B0'", "B1'", "B2", "B3"]
    by_label = {row[0]: row[1:] for row in rows[1:]}
    assert by_label["B2"] == ["√", "√", "", ""]
    assert by_label["B0"] == ["a'=a+1", "√", "", "√"]


def test_json_round_trip(tables):
    payload = json.loads(json.dumps(tables["cubic"].to_json_dict()))
    assert payload["labels"] == [f"B{i}" for i in range(11)]
    cell = payload["cells"][0][3]
    assert cell == {"kind": "row_in", "values": [-3, 0]}
    assert payload["cells"][9][9] == {"kind": "unknown", "values": []}


def _certification_error(monkeypatch, tag, window, corrupt=None):
    if corrupt is not None:
        bad = dict(tables_mod._GOLDEN_CELLS[tag])
        bad.update(corrupt)
        monkeypatch.setitem(tables_mod._GOLDEN_CELLS, tag, bad)
    with pytest.raises(TableVerificationError) as excinfo:
        pair_table(variety_model(tag), window)
    return str(excinfo.value)


def test_corrupted_cells_are_detected(monkeypatch):
    message = _certification_error(
        monkeypatch, "line", 12, {("B2", "B3"): CellCondition("always")}
    )
    assert message.startswith("cell (B2, B3): ")

    assert _certification_error(
        monkeypatch, "line", 12, {("B0", "B0"): CellCondition("diff_in", (2,))}
    ) == (
        "cell (B0, B0): at parameters (-12, -11) the oracle says compatible "
        "but the table says incompatible"
    )

    assert _certification_error(
        monkeypatch, "point", 12, {("B3", "B0"): CellCondition("col_in", (2,))}
    ) == (
        "cell (B3, B0): at parameters (0, 2) the oracle says incompatible "
        "but the table says compatible"
    )


def _oracle_overriding(monkeypatch, difference, verdict):
    real = enumeration_mod._cached_verdict

    def patched(tag, a, b):
        return verdict if (a, b) == difference else real(tag, a, b)

    monkeypatch.setattr(enumeration_mod, "_cached_verdict", patched)


def test_undecided_pair_in_a_decided_cell(monkeypatch):
    # Every B0 pair one step apart has difference B0(0) - B0(1).
    b0 = family_by_label("line", "B0")
    _oracle_overriding(monkeypatch, b0.member(0) - b0.member(1), VanishingVerdict.UNKNOWN)
    assert _certification_error(monkeypatch, "line", 12) == (
        "cell (B0, B0): undecided verdict at (-12, -11) inside a decided cell"
    )


def test_confirmed_pair_in_an_undecided_cell(monkeypatch):
    # At window 30 the first members of B9 and B10 are (23, -15) and (-19, 14).
    _oracle_overriding(monkeypatch, DivisorClass(42, -29), VanishingVerdict.ZERO)
    assert _certification_error(monkeypatch, "cubic", 30) == (
        "cell (B9, B10): confirmed pair (0, 0) inside an undecided cell"
    )


def test_undecided_cell_outside_the_conic_families(monkeypatch):
    message = _certification_error(
        monkeypatch, "line", 12, {("B0", "B1"): CellCondition("unknown")}
    )
    assert message == (
        "cell (B0, B1): undecided cells may pair only the conic-supported families"
    )


def test_cell_condition_validation():
    with pytest.raises(ValueError, match="carries no values"):
        CellCondition("always", (1,))
    with pytest.raises(ValueError, match="needs admissible values"):
        CellCondition("row_in")
    with pytest.raises(ValueError, match="unknown cell kind"):
        CellCondition("sometimes")
    with pytest.raises(ValueError, match="no membership predicate"):
        CellCondition("unknown").holds(0, 0)
