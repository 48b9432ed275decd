"""The reproduction script, run through its ``main``, and the census rows
of the enumeration checks, which ``verify thm4.4|thm5.6|thm6.5`` prints."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blowup_collections

from blowup_collections import verify
from blowup_collections.families import expected_instances
from blowup_collections.geometry import variety_model
from blowup_collections.verify import CheckResult

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_results.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("reproduce_results", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rejected_window_prints_finished_checks_then_one_error(capsys):
    # claim6.3 refuses windows below 10 after the two chain checks ran.
    code = _load_script().main(["--window", "5"])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(
        "[PASS] family-chains-point: B0 chain laws hold over parameter window 5  (claim4.5, "
    )
    assert lines[1].startswith(
        "[PASS] family-chains-cubic: B0 chain laws hold over parameter window 5  (claim6.2, "
    )
    assert captured.err == (
        "error: solution windows below 10 would clip known solutions\n"
    )


def test_failing_check_prints_its_details_and_the_count(capsys, monkeypatch):
    broken = CheckResult("tables", False, "broken; 2 failure(s)", ("first", "second"))
    monkeypatch.setattr(verify, "check_tables", lambda *args: broken)
    code = _load_script().main([])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    lines = captured.out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("[FAIL] tables: "))
    assert lines[at].startswith("[FAIL] tables: broken; 2 failure(s)  (tables, ")
    assert lines[at + 1:at + 3] == ["  first", "  second"]
    assert len(lines) == len(verify.VERIFY_TOKENS) + 3
    assert lines[-2].startswith("[PASS] augmentation: ")
    assert lines[-1].startswith("12/13 checks passed in ")


@pytest.mark.parametrize("window", [10, 11, 12])
@pytest.mark.parametrize("token,tag", [("thm4.4", "point"), ("thm5.6", "line"), ("thm6.5", "cubic")])
def test_enumeration_check_counts_the_catalogue_instances(token, tag, window):
    # One census row: the check passes only with nothing unmatched.
    result = verify.run_check(token, window=window)
    expected = len(expected_instances(variety_model(tag), window))
    assert result.ok, result.details
    assert result.summary.endswith(f"({expected} sequences in window {window})")


def test_closed_stdout_pipe_exits_quietly():
    # The read end is closed before the script starts, so its first write
    # fails with EPIPE whatever the size of the output.
    src = Path(blowup_collections.__file__).resolve().parents[1]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, str(SCRIPT)],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def test_the_script_ends_with_the_collector_frozen():
    # An ``atexit`` hook runs after ``sys.exit`` and before the shutdown
    # collections.  Window 5 runs two checks, then claim6.3 rejects it.
    src = Path(blowup_collections.__file__).resolve().parents[1]
    probe = (
        "import atexit, gc, runpy, sys; "
        "atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
        "runpy.run_path(sys.argv.pop(1), run_name='__main__')"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, str(SCRIPT), "--window", "5"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stderr == "error: solution windows below 10 would clip known solutions\n"
    assert done.stdout.splitlines()[-1] == "True"
