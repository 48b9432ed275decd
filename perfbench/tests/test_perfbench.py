"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The whole file takes about two minutes: every workload runs at least one
operation untraced and one traced.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from blowup_collections import coh_zero, euler_char, variety_model, DivisorClass  # noqa: E402
from blowup_collections.vanishing import VanishingVerdict  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, cwd: Path = ROOT, seconds: int = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, key):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for name in wanted:
        assert f"\n{name} = " in "\n" + done.stdout
    assert "failed_ratio = " in done.stdout
    if workload == "defects":
        assert result["failed"] == result["attempted"]
    else:
        assert result["failed"] == 0
    if trace:
        run_dir = ROOT / ".bench_out" / f"{workload}-seed7-trace1"
        assert "self_s" in (run_dir / "layers.txt").read_text()
        span = json.loads((run_dir / "trace-00000.spans.jsonl").read_text().splitlines()[0])
        assert len(span) == 6  # id, name, start, end, parent, op id


def test_cold_start_guard_rejects_warm_caches():
    code = (
        "import tracer; from blowup_collections import DivisorClass, coh_zero, variety_model; "
        "t = tracer.Tracer(0); t.install(); t.require_cold_caches(); "
        "coh_zero(variety_model('point'), DivisorClass(1, 0)); t.require_cold_caches()"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{BENCH}"},
    )
    assert done.returncode == 1
    assert "warm caches" in done.stderr


def test_known_defects_fail_only_in_their_own_workload():
    done = bench("defects", 0, seconds=2)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads(
        (ROOT / ".bench_out" / "defects-seed7-trace0" / "result.json").read_text()
    )
    assert result["correct"] is True
    assert result["failed"] == result["attempted"] >= len(workloads.KNOWN_DEFECTS)
    assert {f["label"] for f in report["failures"]} == set(workloads.KNOWN_DEFECTS)
    assert all(f["known_defect"] for f in report["failures"])
    assert not set(workloads.KNOWN_DEFECTS) & set(workloads.QUERY_DECK)


def test_times_are_scaled_by_the_reference_speed():
    samples = [
        run.Sample("op", False, 0.0, 2.0, 1.5, 30.0, None, None),
        run.Sample("op", False, 2.0, 4.0, 3.5, 30.0, None, None),
    ]
    scaled = run.end_to_end([0.1], samples, 0.5)
    assert scaled == {"setup_s": 0.05, "wall_s": 1.5, "cpu_s": 1.25, "peak_rss_mb": 30.0}
    refs = [(0.0, 0.2), (1.0, 0.3), (2.0, 0.4)]
    assert run.speed_factor(refs) == pytest.approx(run.REFERENCE_S / 0.3)


def test_reference_program_prints_its_expected_output(runner):
    start, wall = run.reference(runner)
    assert wall > 0


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    start = time.perf_counter()
    done = bench("queries", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert time.perf_counter() - start < 180


# ---------------------------------------------------------------------------
# The gate gates: a corrupted expectation turns a real output into a failure.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return run.Runner(tmp_path_factory.mktemp("gate"), time.perf_counter())


def outcome(runner, op):
    code, stdout, stderr, *_ = runner.spawn(run.op_argv(op, None))
    return code, stdout, stderr


def corrupted(expect: dict) -> dict:
    """The same expectation with one expected value changed."""
    if expect["kind"] == "text":
        return {**expect, "text": expect["text"] + "0"}
    if expect["kind"] == "pairs_table":
        return {**expect, "size": expect["size"] + 1}
    key = next(iter(expect["fields"]))
    return {**expect, "fields": {**expect["fields"], key: ["corrupted"]}}


@pytest.mark.parametrize("name", ["reproduce", "census", "certify"])
def test_corrupted_expectation_fails_on_bulk_workloads(runner, tmp_path, name):
    op = next(workloads.WORKLOADS[name](7, tmp_path).ops)
    code, stdout, stderr = outcome(runner, op)
    assert workloads.check_output(op, code, stdout, stderr) is None
    if name == "reproduce":
        op.expect = copy.deepcopy(op.expect)
        op.expect["lines"]["vanishing-point"] = ["67 vanishing classes in window 30"]
    elif name == "census":
        op.expect = copy.deepcopy(op.expect)
        op.expect["sequences"]["enumeration-line"] += 1
    else:
        op.expect = {**op.expect, "names": op.expect["names"][:-1] + ["augmentation"]}
    assert workloads.check_output(op, code, stdout, stderr) is not None


def test_corrupted_expectation_fails_on_every_query_kind(runner, tmp_path):
    ops = workloads.queries(11, tmp_path).ops
    seen = set()
    for _ in range(len(workloads.QUERY_DECK)):
        op = next(ops)
        seen.add(op.label.split(":")[0])
        code, stdout, stderr = outcome(runner, op)
        verdict = workloads.check_output(op, code, stdout, stderr)
        assert verdict is None, (op.label, verdict)
        if op.expect["kind"] == "usage_error":
            assert workloads.check_output(op, 0, "", "") is not None
        else:
            op.expect = corrupted(op.expect)
            assert workloads.check_output(op, code, stdout, stderr) is not None, op.label
    assert seen == set(workloads.QUERY_DECK)


def test_usage_error_needs_one_error_line():
    op = workloads.Op("m", "cli", [], {"kind": "usage_error"})
    assert workloads.check_output(op, 2, "", "error: bad input\n") is None
    assert workloads.check_output(op, 1, "", "error: bad input\n") is not None
    assert workloads.check_output(op, 2, "", "Traceback\nerror: x\n") is not None


# ---------------------------------------------------------------------------
# The harness's reference formulas agree with the package.
# ---------------------------------------------------------------------------


def test_reference_chi_matches_riemann_roch():
    for tag in workloads.VARIETIES:
        model = variety_model(tag)
        for a in range(-12, 13):
            for b in range(-12, 13):
                assert workloads.ref_chi(tag, a, b) == euler_char(model, DivisorClass(a, b))


def test_reference_vanishing_matches_oracle_on_point_and_line():
    for tag in ("point", "line"):
        model = variety_model(tag)
        for a in range(-12, 13):
            for b in range(-12, 13):
                zero = coh_zero(model, DivisorClass(a, b)) is VanishingVerdict.ZERO
                assert workloads.ref_vanishes(tag, a, b) == zero


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([1.0] * 19) is None
    pct, _ = run.tail([float(i) for i in range(200)])
    assert pct == 95.0
    pct, value = run.tail([float(i) for i in range(100)])
    assert (pct, value) == (90.0, 89.0)
