"""End-to-end command-line behaviour via direct ``main`` invocation."""

import csv
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import blowup_collections
from blowup_collections import cli, verify
from blowup_collections.cli import main
from blowup_collections.families import TypeLabel, type_instance
from blowup_collections.geometry import DivisorClass
from blowup_collections.sequences import Collection
from blowup_collections.verify import CheckResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_collection(tmp_path, seq, name="collection.json"):
    path = tmp_path / name
    path.write_text(json.dumps(seq.to_json_dict()), encoding="utf-8")
    return str(path)


def test_chi_text(capsys):
    code, out, err = run(capsys, "chi", "--variety", "point", "--divisor", "1,0")
    assert (code, out, err) == (0, "4\n", "")


def test_chi_negative_divisor_json(capsys):
    # A separate "-1,2" token exercises the negative-value merge.
    code, out, _ = run(
        capsys, "chi", "--variety", "point", "--divisor", "-1,2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"variety": "point", "divisor": [-1, 2], "chi": 0}


def test_chi_rejects_malformed_divisor(capsys):
    code, out, err = run(capsys, "chi", "--variety", "point", "--divisor", "1,2,3")
    assert code == 2 and out == ""
    assert "expected a divisor as 'a,b'" in err
    code, _, err = run(capsys, "chi", "--variety", "point", "--divisor", "x,1")
    assert code == 2 and err == "error: divisor coordinates must be integers, got 'x,1'\n"


@pytest.mark.parametrize("tag,divisor,verdict", [
    ("point", "-1,1", "Zero"),
    ("point", "0,0", "Nonzero"),
    ("cubic", "-23,15", "Unknown"),
])
def test_vanish_text(capsys, tag, divisor, verdict):
    code, out, _ = run(capsys, "vanish", "--variety", tag, "--divisor", divisor)
    assert (code, out) == (0, verdict + "\n")


def test_vanish_json(capsys):
    code, out, _ = run(
        capsys, "vanish", "--variety", "line", "--divisor", "-3,0",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {
        "variety": "line", "divisor": [-3, 0], "verdict": "Zero",
    }


def test_pairs_table_markdown_default(capsys):
    code, out, _ = run(capsys, "pairs-table", "--variety", "line", "--window", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "| | B0' | B1' | B2 | B3 |"
    assert "| B2 | √ | √ |  |  |" in lines


def test_pairs_table_csv(capsys):
    code, out, _ = run(
        capsys, "pairs-table", "--variety", "point", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "" and rows[0][1] == "B0'"
    by_label = {row[0]: row[1:] for row in rows[1:]}
    assert by_label["B2"][0] == "a'=3, 4"


# Every pairs-table rendering at window 15, byte for byte.
PAIRS_TABLES = {
    ("point", "markdown"): """\
| | B0' | B1 | B2 | B3 | B4 | B5 | B6 |
|---|---|---|---|---|---|---|---|
| B0 | a'=a+1, a+2 | a=0 |  | √ | a=1 | a=0, 1 | √ |
| B1 | √ |  |  |  | √ |  | √ |
| B2 | a'=3, 4 | √ |  |  | √ |  |  |
| B3 | a'=3 |  |  |  |  | √ | √ |
| B4 | √ |  |  |  |  |  |  |
| B5 |  |  |  |  |  |  |  |
| B6 | a'=4 |  |  |  |  | √ |  |
""",
    ("point", "csv"): """\
,B0',B1,B2,B3,B4,B5,B6
B0,"a'=a+1, a+2",a=0,,√,a=1,"a=0, 1",√
B1,√,,,,√,,√
B2,"a'=3, 4",√,,,√,,
B3,a'=3,,,,,√,√
B4,√,,,,,,
B5,,,,,,,
B6,a'=4,,,,,√,
""",
    ("line", "markdown"): """\
| | B0' | B1' | B2 | B3 |
|---|---|---|---|---|
| B0 | a'=a+1 | √ |  | √ |
| B1 |  | b'=b+1 |  | √ |
| B2 | √ | √ |  |  |
| B3 |  |  |  |  |
""",
    ("line", "csv"): """\
,B0',B1',B2,B3
B0,a'=a+1,√,,√
B1,,b'=b+1,,√
B2,√,√,,
B3,,,,
""",
    ("cubic", "markdown"): """\
| | B0' | B1 | B2 | B3 | B4 | B5 | B6 | B7 | B8 | B9 | B10 |
|---|---|---|---|---|---|---|---|---|---|---|---|
| B0 | b'=b+1, b+2 |  | √ | b=-3, 0 | b=0, 1 | b=-2, 1 |  | √ | b=-3, -2 |  |  |
| B1 | b'=0, 1 |  |  | √ |  | √ |  |  |  |  |  |
| B2 | b'=1, 4 |  |  |  | √ |  |  |  | √ |  |  |
| B3 | √ |  | √ |  |  | √ |  |  |  |  |  |
| B4 |  |  |  |  |  |  |  |  |  |  |  |
| B5 | √ |  |  |  |  |  |  |  |  |  |  |
| B6 | b'=3, 4 |  |  | √ |  | √ |  |  |  |  |  |
| B7 | b'=0, 3 |  | √ |  | √ |  |  |  | √ |  |  |
| B8 |  |  |  |  |  |  |  |  |  |  |  |
| B9 |  |  |  |  |  |  |  |  |  | ? | ? |
| B10 |  |  |  |  |  |  |  |  |  | ? | ? |
""",
    ("cubic", "csv"): """\
,B0',B1,B2,B3,B4,B5,B6,B7,B8,B9,B10
B0,"b'=b+1, b+2",,√,"b=-3, 0","b=0, 1","b=-2, 1",,√,"b=-3, -2",,
B1,"b'=0, 1",,,√,,√,,,,,
B2,"b'=1, 4",,,,√,,,,√,,
B3,√,,√,,,√,,,,,
B4,,,,,,,,,,,
B5,√,,,,,,,,,,
B6,"b'=3, 4",,,√,,√,,,,,
B7,"b'=0, 3",,√,,√,,,,√,,
B8,,,,,,,,,,,
B9,,,,,,,,,,?,?
B10,,,,,,,,,,?,?
""",
}


@pytest.mark.parametrize("tag,fmt", sorted(PAIRS_TABLES))
def test_pairs_table_renders_pinned(capsys, tag, fmt):
    code, out, err = run(capsys, "pairs-table", "--variety", tag, "--format", fmt)
    assert (code, out, err) == (0, PAIRS_TABLES[tag, fmt], "")


def test_pairs_table_window_validation(capsys):
    code, _, err = run(capsys, "pairs-table", "--variety", "point", "--window", "5")
    assert code == 2 and "below 10" in err


@pytest.mark.parametrize("command", ["enumerate", "pairs-table"])
def test_a_window_above_100_is_a_usage_error(capsys, command):
    code, out, err = run(capsys, command, "--variety", "line", "--window", "101")
    assert (code, out, err) == (
        2, "", f"error: {command} --window must be at most 100, got 101\n"
    )


def test_the_window_bound_rejects_a_huge_window_at_once():
    # Unbounded, this search ran until it was killed; a child process with a
    # timeout keeps a regression from hanging the suite.
    src = Path(blowup_collections.__file__).resolve().parents[1]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "blowup_collections.cli",
         "enumerate", "--variety", "point", "--window", "100000"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=10,
    )
    assert time.perf_counter() - start < 1
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_pairs_table_accepts_the_largest_window(capsys):
    code, out, err = run(capsys, "pairs-table", "--variety", "point", "--window", "100")
    assert (code, err) == (0, "")
    assert out.startswith("|")


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--variety", "point", "--window", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == "confirmed families: 9, undetermined: 0"
    assert len(payload["confirmed"]) == 60


def test_enumerate_text(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--variety", "cubic", "--window", "10",
        "--format", "text",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "confirmed families: 15, undetermined: 0"
    assert lines[1].startswith("(1): [0, H, 3H-E, E, 2H, 3H]")


def test_classify_text(capsys, tmp_path):
    # A shifted copy classifies after normalization.
    shift = DivisorClass(2, -1)
    seq = Collection(
        "point",
        tuple(e + shift for e in type_instance("point", 4).entries),
    )
    path = write_collection(tmp_path, seq)
    code, out, _ = run(capsys, "classify", "--input", path)
    assert (code, out) == (0, "(4)\n")


def test_classify_json_no_match(capsys, tmp_path):
    base = type_instance("point", 4)
    permuted = Collection(
        "point", (base.entries[0],) + tuple(reversed(base.entries[1:]))
    )
    path = write_collection(tmp_path, permuted)
    code, out, _ = run(capsys, "classify", "--input", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["types"] == []
    code, out, _ = run(capsys, "classify", "--input", path)
    assert (code, out) == (0, "no matching type\n")


def test_classify_variety_mismatch(capsys, tmp_path):
    path = write_collection(tmp_path, type_instance("point", 4))
    code, _, err = run(capsys, "classify", "--input", path, "--variety", "line")
    assert code == 2 and "tagged 'point'" in err


def test_classify_rejects_short_collection(capsys, tmp_path):
    path = write_collection(
        tmp_path, Collection("point", (DivisorClass(0, 0), DivisorClass(1, -1)))
    )
    code, _, err = run(capsys, "classify", "--input", path)
    assert code == 2 and "length-6" in err


@pytest.mark.parametrize("entries", [
    [1, 2, 3, 4, 5, 6],
    [[0, 0], None, [1, 0], [2, 0], [3, 0], [4, 0]],
    [[0, 0], [1, -1, 0], [1, 0], [2, 0], [3, 0], [4, 0]],
])
@pytest.mark.parametrize("command", [["classify"], ["rotate"], ["transpose", "--index", "1"]])
def test_entries_that_are_not_pairs_are_usage_errors(capsys, tmp_path, command, entries):
    path = tmp_path / "collection.json"
    path.write_text(json.dumps({"variety": "point", "entries": entries}), encoding="utf-8")
    code, out, err = run(capsys, command[0], "--input", str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "collection entries must be [a, b] pairs" in err


@pytest.mark.parametrize("command", [["classify"], ["rotate"], ["transpose", "--index", "1"]])
def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    deep = "[" * 100_000 + "]" * 100_000
    path.write_text('{"variety": "point", "entries": ' + deep + "}", encoding="utf-8")
    code, out, err = run(capsys, command[0], "--input", str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested too deeply" in err


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit"
)
@pytest.mark.parametrize("argv", [
    ["chi", "--variety", "point", "--divisor", "{nines},1"],
    ["vanish", "--variety", "point", "--divisor", "1,{nines}"],
    ["augment", "--degrees", "0,1,2,{nines}", "--index", "2"],
])
def test_overlong_integers_name_the_digit_limit(capsys, argv):
    limit = sys.get_int_max_str_digits()
    nines = "9" * (limit + 700)
    code, out, err = run(capsys, *(arg.format(nines=nines) for arg in argv))
    assert (code, out) == (2, "")
    assert err == f"error: integers are limited to {limit} digits\n"


@pytest.mark.parametrize("argv, err", [
    (["chi", "--variety", "point", "--divisor", "a,b"],
     "error: divisor coordinates must be integers, got 'a,b'\n"),
    (["augment", "--degrees", "x,1,2,3", "--index", "2"],
     "error: expected comma-separated integers, got 'x,1,2,3'\n"),
], ids=["chi", "augment"])
def test_malformed_integers_need_no_digit_limit(capsys, monkeypatch, argv, err):
    # Python 3.10 before 3.10.7 has no ``sys.get_int_max_str_digits``.
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert run(capsys, *argv) == (2, "", err)


def test_rotate_right_json(capsys, tmp_path):
    path = write_collection(tmp_path, type_instance("point", 1, (0,)))
    code, out, _ = run(capsys, "rotate", "--input", path)
    assert code == 0
    assert json.loads(out) == type_instance("point", 2, (-1,)).to_json_dict()


def test_rotate_left_inverts(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin",
        io.StringIO(json.dumps(type_instance("point", 2, (-1,)).to_json_dict())),
    )
    code, out, _ = run(capsys, "rotate", "--input", "-", "--direction", "left")
    assert code == 0
    assert json.loads(out) == type_instance("point", 1, (0,)).to_json_dict()


def test_rotate_requires_length_6(capsys, tmp_path):
    path = write_collection(
        tmp_path, Collection("point", (DivisorClass(0, 0), DivisorClass(1, 0)))
    )
    code, _, err = run(capsys, "rotate", "--input", path)
    assert code == 2 and "length-6" in err


def test_transpose(capsys, tmp_path):
    path = write_collection(tmp_path, type_instance("point", 1, (1,)))
    code, out, _ = run(capsys, "transpose", "--input", path, "--index", "3")
    assert code == 0
    assert json.loads(out) == type_instance("point", 4).to_json_dict()


def test_transpose_rejections(capsys, tmp_path):
    path = write_collection(tmp_path, type_instance("point", 4))
    code, _, err = run(capsys, "transpose", "--input", path, "--index", "0")
    assert code == 2 and "1-based" in err
    code, _, err = run(capsys, "transpose", "--input", path, "--index", "1")
    assert code == 2 and "not mutually orthogonal" in err
    # A length-6 collection has pairs 1..5; the message speaks in the flag's
    # 1-based terms and names the value given.
    code, out, err = run(capsys, "transpose", "--input", path, "--index", "6")
    assert code == 2 and out == ""
    assert err == (
        "error: --index is 1-based and must lie between 1 and 5 for length 6, got 6\n"
    )
    # A single entry has no pair to swap, so no index range is named.
    path = write_collection(tmp_path, Collection("point", (DivisorClass(0, 0),)))
    code, out, err = run(capsys, "transpose", "--input", path, "--index", "1")
    assert (code, out, err) == (2, "", "error: transposition needs at least two entries\n")


# (degrees, pivot) -> (text line, normalized entries, lift entries, type
# indices) of the augment command.
AUGMENTS = {
    ("0,1,2,3", 2): (
        "[E, 2E, H, H+E, 2H, 3H]",
        [[0, 0], [0, 1], [1, -1], [1, 0], [2, -1], [3, -1]],
        [[0, 1], [0, 2], [1, 0], [1, 1], [2, 0], [3, 0]],
        [5],
    ),
    ("0,1,2,3", 3): (
        "[2E, H+E, H+2E, 2H, 2H+E, 3H]",
        [[0, 0], [1, -1], [1, 0], [2, -2], [2, -1], [3, -2]],
        [[0, 2], [1, 1], [1, 2], [2, 0], [2, 1], [3, 0]],
        [4],
    ),
    ("0,1,2,3", 4): (
        "[2E, H+2E, 2H+E, 2H+2E, 3H, 3H+E]",
        [[0, 0], [1, 0], [2, -1], [2, 0], [3, -2], [3, -1]],
        [[0, 2], [1, 2], [2, 1], [2, 2], [3, 0], [3, 1]],
        [9],
    ),
    ("-2,0,3,7", 2): (
        "[-2H+E, -2H+2E, 0, E, 3H, 7H]",
        [[0, 0], [0, 1], [2, -1], [2, 0], [5, -1], [9, -1]],
        [[-2, 1], [-2, 2], [0, 0], [0, 1], [3, 0], [7, 0]],
        [],
    ),
    ("-2,0,3,7", 3): (
        "[-2H+2E, E, 2E, 3H, 3H+E, 7H]",
        [[0, 0], [2, -1], [2, 0], [5, -2], [5, -1], [9, -2]],
        [[-2, 2], [0, 1], [0, 2], [3, 0], [3, 1], [7, 0]],
        [],
    ),
    ("-2,0,3,7", 4): (
        "[-2H+2E, 2E, 3H+E, 3H+2E, 7H, 7H+E]",
        [[0, 0], [2, 0], [5, -1], [5, 0], [9, -2], [9, -1]],
        [[-2, 2], [0, 2], [3, 1], [3, 2], [7, 0], [7, 1]],
        [],
    ),
}


@pytest.mark.parametrize("degrees,pivot", list(AUGMENTS))
def test_augment_renders_pinned(capsys, degrees, pivot):
    text, normalized, lift, types = AUGMENTS[degrees, pivot]
    argv = ("augment", "--degrees", degrees, "--index", str(pivot))
    assert run(capsys, *argv, "--format", "text") == (0, text + "\n", "")
    payload = {
        "collection": {"entries": normalized, "variety": "point"},
        "lift": {"entries": lift, "variety": "point"},
        "types": [{"index": index, "params": [], "variety": "point"} for index in types],
    }
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert run(capsys, *argv, "--format", "json") == (0, expected, "")


def test_augment_json(capsys):
    code, out, _ = run(
        capsys, "augment", "--degrees", "0,1,2,3", "--index", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lift"]["entries"] == [
        [0, 2], [1, 1], [1, 2], [2, 0], [2, 1], [3, 0]
    ]
    assert [t["index"] for t in payload["types"]] == [4]


def test_augment_text_and_validation(capsys):
    code, out, _ = run(
        capsys, "augment", "--degrees", "0,1,2,3", "--index", "2",
        "--format", "text",
    )
    assert code == 0 and out.startswith("[")
    code, _, err = run(capsys, "augment", "--degrees", "0,1,2", "--index", "2")
    assert code == 2 and "four twists" in err
    code, _, err = run(capsys, "augment", "--degrees", "0,1,2,3", "--index", "5")
    assert code == 2 and "pivot index" in err


def test_dioph_text(capsys):
    code, out, _ = run(capsys, "dioph")
    assert code == 0
    assert out.splitlines() == [
        "0,1,2,0,-3,3",
        "0,1,2,0,3,0",
        "1,-1,2,-1,4,-2",
        "7,-4,2,-1,4,-2",
    ]


def test_dioph_json_window(capsys):
    code, out, _ = run(capsys, "dioph", "--window", "12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["window"] == 12
    assert payload["solutions"] == [
        [0, 1, 2, 0, -3, 3],
        [0, 1, 2, 0, 3, 0],
        [1, -1, 2, -1, 4, -2],
        [7, -4, 2, -1, 4, -2],
    ]


def _pretty(payload):
    """The bytes ``--format json`` prints for ``payload``."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _entries(seq):
    return {"entries": [[d.a, d.b] for d in seq.entries], "variety": seq.variety}


CUBIC_13 = type_instance("cubic", 13, (2,))
DIOPH_SOLUTIONS = [
    [0, 1, 2, 0, -3, 3], [0, 1, 2, 0, 3, 0], [1, -1, 2, -1, 4, -2], [7, -4, 2, -1, 4, -2],
]

# One input per (command, --format choice): the exact stdout.  A
# "sha256:" value pins the digest of an output too long to spell out.
# ``{input}`` is a file holding the collection named after the arguments.
PRINTED = {
    ("chi", "text"): (["--variety", "cubic", "--divisor", "-23,15"], None, "0\n"),
    ("chi", "json"): (["--variety", "cubic", "--divisor", "-23,15"], None, _pretty(
        {"chi": 0, "divisor": [-23, 15], "variety": "cubic"})),
    ("vanish", "text"): (["--variety", "cubic", "--divisor", "-23,15"], None, "Unknown\n"),
    ("vanish", "json"): (["--variety", "cubic", "--divisor", "-23,15"], None, _pretty(
        {"divisor": [-23, 15], "variety": "cubic", "verdict": "Unknown"})),
    ("pairs-table", "markdown"): (["--variety", "line", "--window", "10"], None,
                                  PAIRS_TABLES["line", "markdown"]),
    ("pairs-table", "csv"): (["--variety", "line", "--window", "10"], None,
                             PAIRS_TABLES["line", "csv"]),
    ("pairs-table", "json"): (["--variety", "line", "--window", "10"], None,
                              "sha256:fd68e5ac038d7d794ee9c1dd5ec7beadda93ee80bf2cd247562f72ab11b94567"),
    ("enumerate", "json"): (["--variety", "cubic", "--window", "10"], None,
                            "sha256:4030af69eaa74a92aaea974d1bd5d95bdbd4a7ffc9ebeb7d3072f7319cdbddbc"),
    ("enumerate", "text"): (["--variety", "cubic", "--window", "10"], None,
                            "sha256:37356678def1b8ca2528ce558761df684fe60d62c68ea58e25a0f67df4e8d515"),
    ("classify", "text"): (["--input", "{input}"], CUBIC_13, "(13)[b=2]\n"),
    ("classify", "json"): (["--input", "{input}"], CUBIC_13, _pretty({
        "collection": _entries(CUBIC_13),
        "normalized": _entries(CUBIC_13),
        "types": [{"index": 13, "params": [2], "variety": "cubic"}],
    })),
    ("rotate", "json"): (["--input", "{input}"], type_instance("point", 4),
                         _pretty(_entries(type_instance("point", 5)))),
    ("rotate", "text"): (["--input", "{input}"], type_instance("point", 4),
                         "[0, E, H-E, H, 2H-E, 3H-E]\n"),
    ("transpose", "json"): (["--input", "{input}", "--index", "3"], type_instance("point", 1, (1,)),
                            _pretty(_entries(type_instance("point", 4)))),
    ("transpose", "text"): (["--input", "{input}", "--index", "3"], type_instance("point", 1, (1,)),
                            "[0, H-E, H, 2H-2E, 2H-E, 3H-2E]\n"),
    ("augment", "json"): (["--degrees", "0,1,2,3", "--index", "3"], None, _pretty({
        "collection": _entries(type_instance("point", 4)),
        "lift": {"entries": [[0, 2], [1, 1], [1, 2], [2, 0], [2, 1], [3, 0]], "variety": "point"},
        "types": [{"index": 4, "params": [], "variety": "point"}],
    })),
    ("augment", "text"): (["--degrees", "0,1,2,3", "--index", "3"], None,
                          "[2E, H+E, H+2E, 2H, 2H+E, 3H]\n"),
    ("dioph", "text"): (["--window", "10"], None, "".join(
        ",".join(map(str, sol)) + "\n" for sol in DIOPH_SOLUTIONS)),
    ("dioph", "json"): (["--window", "10"], None, _pretty(
        {"solutions": DIOPH_SOLUTIONS, "window": 10})),
}


@pytest.mark.parametrize("command,fmt", list(PRINTED))
def test_every_command_prints_pinned_bytes(capsys, tmp_path, command, fmt):
    argv, seq, expected = PRINTED[command, fmt]
    if seq is not None:
        argv = [arg.format(input=write_collection(tmp_path, seq)) for arg in argv]
    code, out, err = run(capsys, command, *argv, "--format", fmt)
    if expected.startswith("sha256:"):
        out = "sha256:" + hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert (code, out, err) == (0, expected, "")


def test_enumerate_json_formats_no_text_line(capsys, tmp_path, monkeypatch):
    def unused(self):
        raise AssertionError("text line formatted under --format json")

    monkeypatch.setattr(TypeLabel, "render", unused)
    monkeypatch.setattr(Collection, "__str__", unused)
    test_every_command_prints_pinned_bytes(capsys, tmp_path, "enumerate", "json")


def test_verify_single_token(capsys):
    code, out, _ = run(capsys, "verify", "claim6.3")
    assert code == 0
    assert out.startswith("[PASS] ")
    assert out.count("\n") == 1


@pytest.mark.parametrize("overrides", [(), ("--window", "20", "--param-range", "4")],
                         ids=["defaults", "window-20-param-range-4"])
def test_verify_all_runs_the_registry_in_order(capsys, overrides):
    code, out, _ = run(capsys, "verify", "all", *overrides)
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == [
        f"[PASS] {name}"
        for name in (
            "family-chains-point", "family-chains-cubic", "diophantine",
            "vanishing-point", "vanishing-line", "vanishing-cubic", "relations",
            "tables", "enumeration-point", "enumeration-line", "enumeration-cubic",
            "chi-agreement", "augmentation",
        )
    ]
    if overrides:
        # Every check but relations and augmentation scans a window.
        assert out.count(" window 20") == 11 and "over parameter range 4" in out


def test_verify_all_reports_a_failing_check_and_runs_on(capsys, monkeypatch):
    broken = CheckResult("tables", False, "broken; 2 failure(s)", ("first", "second"))
    monkeypatch.setattr(verify, "check_tables", lambda *args: broken)
    code, out, err = run(capsys, "verify", "all")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    at = lines.index("[FAIL] tables: broken; 2 failure(s)")
    assert lines[at + 1:at + 3] == ["  first", "  second"]
    # The checks after the failing one still run.
    assert len(lines) == len(verify.VERIFY_TOKENS) + 2
    assert lines[at + 3].startswith("[PASS] enumeration-point: ")
    assert lines[-1].startswith("[PASS] augmentation: ")


def test_verify_prints_finished_checks_before_an_error(capsys):
    # claim6.3 refuses windows below 10 after the two chain checks ran.
    code, out, err = run(capsys, "verify", "all", "--window", "5")
    assert code == 2
    assert out == (
        "[PASS] family-chains-point: B0 chain laws hold over parameter window 5\n"
        "[PASS] family-chains-cubic: B0 chain laws hold over parameter window 5\n"
    )
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "token", ["prop4.3", "prop5.5", "prop6.4", "chi-agreement", "claim4.5", "claim6.2"]
)
def test_verify_rejects_a_negative_window(capsys, token):
    # A negative window scans nothing; it must not pass as an empty scan.
    code, out, err = run(capsys, "verify", token, "--window", "-5")
    assert (code, out) == (2, "")
    assert err == "error: scan windows must be non-negative, got -5\n"


@pytest.mark.parametrize("argv,flag", [
    (("augmentation", "--window", "3"), "--window"),
    (("augmentation", "--param-range", "3"), "--param-range"),
    (("prop4.3", "--param-range", "9"), "--param-range"),
    (("relations", "--window", "3"), "--window"),
    (("thm5.6", "--window", "10", "--param-range", "9"), "--param-range"),
])
def test_verify_rejects_an_override_its_check_does_not_take(capsys, argv, flag):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: verify {argv[0]} takes no {flag}\n"


def test_verify_all_applies_each_override_where_it_fits(capsys):
    code, out, _ = run(capsys, "verify", "all", "--param-range", "3")
    assert code == 0
    assert "146 chain walks" not in out and "over parameter range 3" in out
    assert "window 30" in out


def test_verify_with_window_override(capsys):
    code, out, _ = run(capsys, "verify", "prop4.3", "--window", "20")
    assert code == 0 and out.startswith("[PASS] ")


def test_verify_rejects_unknown_token(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "prop9.9"])
    assert excinfo.value.code == 2


def test_deterministic_output(capsys):
    first = run(capsys, "dioph")
    second = run(capsys, "dioph")
    assert first == second


def test_no_ansi_escapes(capsys):
    for argv in (
        ("chi", "--variety", "cubic", "--divisor", "2,-1"),
        ("pairs-table", "--variety", "line"),
        ("verify", "claim6.2"),
        ("dioph",),
    ):
        _, out, err = run(capsys, *argv)
        assert "\x1b[" not in out and "\x1b[" not in err


def test_cold_import_leaves_out_the_introspection_modules():
    # Every command runs in a cold process.  ``dataclasses`` alone pulls in
    # ``inspect``, ``ast``, ``dis`` and ``tokenize`` on each of them.
    src = Path(blowup_collections.__file__).resolve().parents[1]
    probe = (
        "import sys, blowup_collections.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "[]\n"


# Runs ``main`` on its arguments (none: only the import), then prints the
# package modules the interpreter holds, by short name, and whether it
# holds the standard ``json`` module.
_MODULE_PROBE = """
import contextlib, io, sys
import blowup_collections.cli as cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
print(*(m.partition(".")[2] or "__init__" for m in sys.modules
        if m.split(".")[0] == "blowup_collections"))
print("json" in sys.modules)
"""

_CLI_CORE = {"__init__", "cli", "geometry", "registry"}


@pytest.mark.parametrize("argv, extra", [
    ((), set()),
    (("chi", "--variety", "cubic", "--divisor", "-23,15"), set()),
    (("vanish", "--variety", "cubic", "--divisor", "-23,15"), {"vanishing"}),
    (("rotate", "--input", "{collection}"), {"vanishing", "sequences"}),
    (("classify", "--input", "{collection}"),
     {"vanishing", "sequences", "families", "diophantine"}),
    (("dioph",), {"vanishing", "sequences", "diophantine"}),
    (("verify", "claim6.3"), None),
], ids=["import", "chi", "vanish", "rotate", "classify", "dioph", "verify"])
def test_cold_command_loads_only_the_modules_it_uses(tmp_path, argv, extra):
    src = Path(blowup_collections.__file__).resolve().parents[1]
    collection = write_collection(tmp_path, type_instance("point", 4))
    done = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, *(a.format(collection=collection) for a in argv)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    if extra is None:  # ``verify`` imports every module
        package = Path(blowup_collections.__file__).parent
        extra = {path.stem for path in package.glob("*.py")} - _CLI_CORE
    modules, has_json = done.stdout.splitlines()
    assert set(modules.split()) == _CLI_CORE | extra
    # Text output needs no encoder: only reading a collection loads
    # ``json``, so text ``chi``, ``vanish``, ``dioph`` and ``verify`` do not.
    assert has_json == str(argv[:1] in (("rotate",), ("classify",)))


# The parser's output at 80 columns.  It lists the ``verify`` tokens, which
# the parser reads from ``registry`` without importing ``verify``.
_TOKEN_CHOICES = (
    "{claim4.5,claim6.2,claim6.3,prop4.3,prop5.5,prop6.4,relations,tables,"
    "thm4.4,thm5.6,thm6.5,chi-agreement,augmentation,all}"
)
_VERIFY_USAGE = (
    "usage: blowup-collections verify [-h] [--window WINDOW]\n"
    "                                 [--param-range PARAM_RANGE]\n"
    f"                                 {_TOKEN_CHOICES}\n"
)
_TOP_USAGE = (
    "usage: blowup-collections [-h]\n"
    "                          {chi,vanish,pairs-table,enumerate,classify,"
    "rotate,transpose,augment,dioph,verify}\n"
    "                          ...\n"
)
_PINNED_PARSER_OUTPUT = {
    ("--help",): (0, "stdout", (
        _TOP_USAGE
        + "\n"
        "Exact enumeration and verification of exceptional collections of line bundles\n"
        "on the blow-up of projective 3-space at a point, a line, or a twisted cubic\n"
        "curve.\n"
        "\n"
        "positional arguments:\n"
        "  {chi,vanish,pairs-table,enumerate,classify,rotate,transpose,augment,dioph,verify}\n"
        "    chi                 Euler characteristic of a divisor class\n"
        "    vanish              cohomology-vanishing verdict\n"
        "    pairs-table         pairwise-compatibility table\n"
        "    enumerate           exhaustive length-6 search\n"
        "    classify            match a collection against the catalogue\n"
        "    rotate              helix rotation of a collection\n"
        "    transpose           swap completely orthogonal neighbours\n"
        "    augment             lift a length-4 collection (point model)\n"
        "    dioph               solve the conic Diophantine system\n"
        "    verify              run a named end-to-end check\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "\n"
        "All output is plain text without ANSI color.\n"
    )),
    ("verify", "--help"): (0, "stdout", (
        _VERIFY_USAGE
        + "\n"
        "positional arguments:\n"
        f"  {_TOKEN_CHOICES}\n"
        "                        which check to run\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --window WINDOW       override scan window\n"
        "  --param-range PARAM_RANGE\n"
        "                        override the relations parameter range\n"
    )),
    ("verify", "bogus"): (2, "stderr", (
        _VERIFY_USAGE
        + "blowup-collections verify: error: argument token: invalid choice: 'bogus' "
        "(choose from 'claim4.5', 'claim6.2', 'claim6.3', 'prop4.3', 'prop5.5', "
        "'prop6.4', 'relations', 'tables', 'thm4.4', 'thm5.6', 'thm6.5', "
        "'chi-agreement', 'augmentation', 'all')\n"
    )),
    ("verify",): (2, "stderr", (
        _VERIFY_USAGE
        + "blowup-collections verify: error: the following arguments are required: token\n"
    )),
    # A named command builds only its own subparser, yet the top-level
    # usage of this error still lists every command.
    ("chi", "--variety", "point", "--divisor", "1,2", "extra"): (2, "stderr", (
        _TOP_USAGE
        + "blowup-collections: error: unrecognized arguments: extra\n"
    )),
    # No command: the full parser.
    (): (2, "stderr", (
        _TOP_USAGE
        + "blowup-collections: error: the following arguments are required: command\n"
    )),
}


@pytest.mark.parametrize(
    "argv", _PINNED_PARSER_OUTPUT, ids=lambda argv: " ".join(argv) or "no-arguments"
)
def test_parser_output_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    status, stream, pinned = _PINNED_PARSER_OUTPUT[argv]
    with pytest.raises(SystemExit) as exited:
        main(list(argv))
    captured = capsys.readouterr()
    text, other = (captured.out, captured.err)[:: 1 if stream == "stdout" else -1]
    assert (exited.value.code, other) == (status, "")
    if pinned.startswith(_TOP_USAGE):
        # From Python 3.13 on, argparse wraps the top-level usage block
        # differently; every other byte is pinned.
        usage, _, text = text.partition("...\n")
        pinned_usage, _, pinned = pinned.partition("...\n")
        assert usage.split() == pinned_usage.split()
    assert text == pinned


def _console_target():
    """The module and function ``[project.scripts]`` names in ``pyproject.toml``.

    A regex, not ``tomllib``: Python 3.10 has no TOML parser.
    """
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r'^blowup-collections = "([\w.]+):(\w+)"$', text, re.M).groups()


# ``python -c`` code that starts the CLI process as each entry point does;
# the command's arguments follow it.
_ENTRIES = {
    "module": "import runpy; runpy.run_module('blowup_collections.cli', run_name='__main__')",
    "console": "from {0} import {1}; {1}()".format(*_console_target()),
}


def test_the_console_command_ends_through_exit_process(capsys, monkeypatch):
    module, name = _console_target()
    assert module == "blowup_collections.cli"
    steps = []
    real_main = cli.main

    def main():
        steps.append("main")
        return real_main()

    # Patched, so that pytest's own collector stays on.
    monkeypatch.setattr(cli.gc, "disable", lambda: steps.append("gc.disable"))
    monkeypatch.setattr(cli, "main", main)
    monkeypatch.setattr(cli, "exit_process", steps.append)
    monkeypatch.setattr(sys, "argv", ["blowup-collections", "chi", "--variety",
                                      "cubic", "--divisor", "-23,15"])
    getattr(cli, name)()
    assert (steps, capsys.readouterr().out) == (["gc.disable", "main", 0], "0\n")


def test_exit_process_runs_atexit_then_maps_a_closed_pipe_to_141(monkeypatch):
    class ClosedPipe(io.StringIO):
        def flush(self):
            raise BrokenPipeError

    steps = []
    monkeypatch.setattr(cli.atexit, "_run_exitfuncs", lambda: steps.append("atexit"))
    monkeypatch.setattr(cli.os, "_exit", steps.append)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    cli.exit_process(0)
    assert steps == ["atexit", 141]


# An ``atexit`` hook appends whether the collector is on to stdout.  A
# ``__del__`` that prints would run only in interpreter teardown, which
# clears the globals of ``__main__``: the module refers to itself, so it
# outlives its removal from ``sys.modules`` even with the collector off.
_EXIT_PROBE = (
    "import atexit, gc, sys\n"
    "class Teardown:\n"
    "    def __del__(self): print('teardown')\n"
    "probe, module = Teardown(), sys.modules[__name__]\n"
    "atexit.register(lambda: print(gc.isenabled()))\n"
)


@pytest.mark.parametrize("entry", _ENTRIES)
@pytest.mark.parametrize("divisor, status, out, err", [
    ("-23,15", 0, "0\n", ""),
    ("a,b", 2, "", "error: divisor coordinates must be integers, got 'a,b'\n"),
], ids=["ok", "usage-error"])
def test_each_entry_point_runs_without_the_collector_or_teardown(entry, divisor, status, out, err):
    src = Path(blowup_collections.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _EXIT_PROBE + _ENTRIES[entry],
         "chi", "--variety", "cubic", "--divisor", divisor],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (status, out + "False\n", err)


def test_in_process_main_leaves_the_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    assert gc.isenabled()
    assert run(capsys, "chi", "--variety", "cubic", "--divisor", "-23,15")[0] == 0
    assert run(capsys, "chi", "--variety", "cubic", "--divisor", "a,b")[0] == 2
    assert (gc.isenabled(), gc.get_freeze_count()) == (True, frozen)


# The text listing is 91 305 bytes, more than a 64 KiB pipe buffer.
@pytest.mark.parametrize("entry", _ENTRIES)
@pytest.mark.parametrize("argv, status, lines", [
    (["enumerate", "--variety", "line", "--format", "text"], 0, 1625),
    (["dioph", "--format", "json"], 0, 37),
    (["verify", "all"], 0, 13),
    (["verify", "all", "--window", "5"], 2, 2),
], ids=["enumerate-text", "dioph-json", "verify-all", "verify-all-window-5"])
def test_an_entry_process_prints_what_main_prints(capsys, entry, argv, status, lines):
    expected = run(capsys, *argv)
    assert (expected[0], expected[1].count("\n")) == (status, lines)
    src = Path(blowup_collections.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _ENTRIES[entry], *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, timeout=120,
    )
    assert (done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8")) == expected


def test_closed_stdout_pipe_exits_quietly():
    # ``| head -1``: the text listing is about 91 KB, more than a 64 KiB pipe
    # buffer, so the command writes again after the reader has gone.
    src = Path(blowup_collections.__file__).resolve().parents[1]
    for start in (["-m", "blowup_collections.cli"], ["-c", _ENTRIES["console"]]):
        proc = subprocess.Popen(
            [sys.executable, *start, "enumerate", "--variety", "line", "--format", "text"],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""
        assert first.startswith(b"confirmed")
