"""The reproduction script, run through its ``main`` function."""

import importlib.util
from pathlib import Path

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
