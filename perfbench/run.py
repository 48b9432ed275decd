"""Cold-process benchmark of the blowup-collections package.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {reproduce,census,certify,queries,defects} \
        --seed N --seconds S --trace {0,1}

Every operation is a fresh Python process, so the package's memo caches
start cold each time.  The loop is closed with one client: the next
operation starts only after the previous child has exited, and no
operation is started once the run's median operation time would carry it
past ``--seconds``.  Each child's output is checked against the outcome the
harness derived from its input; a wrong output counts as failed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of several
cold imports of ``blowup_collections.cli``, spread over the run), and per
operation the mean ``wall_s`` (spawn to exit), the mean ``cpu_s`` (user +
system time of the child from ``wait4``) and the median ``peak_rss_mb`` (the
child's maximum resident set).  The median wall time is printed as well.

The three times are scaled to a machine of fixed speed.  A shared host
can slow every process by up to 1.7 times, for seconds or minutes at a
time, which moves raw times between runs far more than a change to the
package would.  So a fixed pure-Python reference program that uses nothing of the
package (``REFERENCE_PROGRAM``) runs in a fresh process 1.5 times a second
between the operations, and every time is multiplied by the run's speed
factor ``REFERENCE_S / mean reference wall time``.  A change to the
package moves the scaled times by the same share as the raw ones.  The
unscaled values and the factor are printed and kept in ``result.json``.
``--trace 1`` alternates untraced and traced runs of each operation and
reports the per-layer metrics from the traced ones (see ``tracer.py``),
averaged per operation, plus ``trace.overhead_ratio``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
every operation whose output missed its gate; ``correct`` is false when
any of those failures is not one of the known input-handling defects
listed in ``workloads.KNOWN_DEFECTS``, which only the ``defects`` workload
sends.  The lines before it repeat every
metric with its unit, ``failed_ratio``, the ``wall_s`` tail percentile
where at least ten samples lie beyond it, and the run's environment.
Span files and per-layer tables go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_INIT = SRC / "blowup_collections" / "__init__.py"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 15
DEADLINE_S = 170.0
"""Every child is killed once the whole benchmark has run this long."""

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import blowup_collections.cli; "
    "print(time.perf_counter() - t)"
)

# A fixed pure-Python job that uses nothing of the package: exact fractions,
# tuple-keyed dicts and a sort, as the package's own inner loops do.  It runs
# in a fresh process between the operations, so it sees the same machine
# load; its mean wall time over the run gives the run's speed factor.
REFERENCE_PROGRAM = """
from fractions import Fraction
seen = {}
for a in range(-42, 42):
    for b in range(-42, 42):
        six = Fraction((a + 1) * (a + 2) * (a + 3) + b * (b - 1) * (b - 2), 6)
        seen[(a, b)] = six - Fraction(a * b, 2) if (a + b) % 3 else six
pairs = sorted(k for k, v in seen.items() if v.denominator == 1 and v.numerator % 5 == 0)
print(len(pairs), sum(seen.values()).numerator % 1000003)
"""
REFERENCE_OUTPUT = "1881 999807"
REFERENCE_S = 0.1
"""Reported times are scaled to a machine on which the reference takes this long."""
REFERENCES_PER_S = 1.5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


@dataclass
class Sample:
    label: str
    traced: bool
    start_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    failure: Optional[str]
    known_defect: Optional[str]


class Runner:
    """Spawns children one at a time and reaps each with ``wait4``."""

    def __init__(self, run_dir: Path, started: float) -> None:
        self.run_dir = run_dir
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.stdout_path = run_dir / "child.stdout"
        self.stderr_path = run_dir / "child.stderr"

    def spawn(self, argv: list[str]) -> tuple[int, str, str, float, float, float]:
        """Run one child; return exit code, stdout, stderr, wall, cpu and peak RSS."""
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise TimeoutError("benchmark deadline reached")
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=self.env, cwd=ROOT,
            )
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = self.stdout_path.read_text(encoding="utf-8", errors="replace")
        stderr = self.stderr_path.read_text(encoding="utf-8", errors="replace")
        return (
            proc.returncode, stdout, stderr, wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
        )


def import_probe(runner: Runner) -> float:
    """Seconds one fresh process takes to import the CLI module."""
    code, stdout, stderr, *_ = runner.spawn([sys.executable, "-c", IMPORT_PROBE])
    if code != 0:
        raise RuntimeError(f"importing blowup_collections.cli failed: {stderr.strip()}")
    return float(stdout.strip())


def reference(runner: Runner) -> tuple[float, float]:
    """Start time and wall seconds of one run of the reference program."""
    start = time.perf_counter() - runner.started
    code, stdout, stderr, wall, *_ = runner.spawn([sys.executable, "-c", REFERENCE_PROGRAM])
    if code != 0 or stdout.strip() != REFERENCE_OUTPUT:
        raise RuntimeError(f"the reference program misbehaved: {stdout!r} {stderr!r}")
    return start, wall


def op_argv(op, trace_stem: Optional[Path]) -> list[str]:
    child = str(HERE / "child.py")
    if trace_stem is not None:
        return [sys.executable, child, "trace", str(trace_stem), op.kind, *op.args]
    if op.kind == "cli":
        return [sys.executable, "-m", "blowup_collections.cli", *op.args]
    return [sys.executable, child, "api", *op.args]


def run_op(runner: Runner, op, trace_stem: Optional[Path], check_output) -> Sample:
    start = time.perf_counter() - runner.started
    code, stdout, stderr, wall, cpu, rss = runner.spawn(op_argv(op, trace_stem))
    failure = check_output(op, code, stdout, stderr)
    return Sample(op.label, trace_stem is not None, start, wall, cpu, rss, failure,
                  op.known_defect if failure else None)


def closed_loop(runner: Runner, workload, seconds: float, traced: bool, check_output):
    """Run operations back to back until the next one would overrun ``seconds``.

    An untraced run puts reference runs (1.5 a second) and the set-up
    probes between the operations, spread evenly over the run, so that they
    see the same machine load as the operations do.  Their time counts
    against ``seconds`` too.
    """
    samples: list[Sample] = []
    stems: list[Path] = []
    setup: list[float] = []
    refs: list[tuple[float, float]] = []
    round_times: list[float] = []
    import_probe(runner)  # compiles bytecode files on a fresh checkout
    loop_start = time.perf_counter()
    for op_id, op in enumerate(workload.ops):
        round_start = time.perf_counter()
        samples.append(run_op(runner, op, None, check_output))
        if traced:
            stem = runner.run_dir / f"trace-{op_id:05d}"
            samples.append(run_op(runner, op, stem, check_output))
            stems.append(stem)
        else:
            elapsed = time.perf_counter() - loop_start
            while len(refs) < REFERENCES_PER_S * elapsed:
                refs.append(reference(runner))
            while len(setup) < math.ceil(SETUP_SAMPLES * min(elapsed / seconds, 1.0)):
                setup.append(import_probe(runner))
        round_times.append(time.perf_counter() - round_start)
        if time.perf_counter() - loop_start + statistics.median(round_times) > seconds:
            break
    if not traced:
        while len(setup) < SETUP_SAMPLES:
            setup.append(import_probe(runner))
    return samples, stems, setup, refs


def tail(values: list[float]) -> Optional[tuple[float, float]]:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, ordered[math.ceil(pct / 100.0 * n) - 1]
    return None


def speed_factor(refs: list[tuple[float, float]]) -> float:
    """``REFERENCE_S`` over the mean wall time of the run's reference runs.

    Means, here and for the operations: the machine switches between a fast
    and a slow state, so both reference and operation times have two modes.
    A median jumps from one mode to the other, while a mean moves with the
    share of time spent in each, and it moves alike for the operations and
    the reference runs, which share the machine's time.
    """
    return REFERENCE_S / statistics.fmean(wall for _, wall in refs)


def end_to_end(setup: list[float], samples: list[Sample], speed: float) -> dict[str, float]:
    """The end-to-end metrics; times are multiplied by the run's ``speed``."""
    plain = [s for s in samples if not s.traced]
    return {
        "setup_s": statistics.median(setup) * speed,
        "wall_s": statistics.fmean(s.wall_s for s in plain) * speed,
        "cpu_s": statistics.fmean(s.cpu_s for s in plain) * speed,
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in plain),
    }


def git_revision() -> str:
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int, seconds: int) -> dict:
    return {
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "loop": "closed loop, one client: each operation is a fresh process started "
                "after the previous one exited; at most one child at a time",
        "machine_settings": "none changed (no CPU pinning, frequency, cache or "
                            "scheduler settings touched)",
    }


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not PACKAGE_INIT.is_file():
        print(f"error: no package source at {PACKAGE_INIT.relative_to(ROOT)}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    runner = Runner(run_dir, started)

    workload = workloads.WORKLOADS[args.workload](args.seed, run_dir / "inputs")
    samples, stems, setup, refs = closed_loop(
        runner, workload, args.seconds, bool(args.trace), workloads.check_output,
    )

    failures = [s for s in samples if s.failure]
    unexpected = [s for s in failures if s.known_defect is None]
    report = {
        "workload": workload.name,
        "inputs": workload.inputs,
        "environment": environment(args.seed, args.seconds),
        "operations": len(samples),
        "failed_ratio": len(failures) / len(samples),
        "failures": [
            {"label": s.label, "traced": s.traced, "reason": s.failure,
             "known_defect": s.known_defect}
            for s in failures
        ],
        "samples": [
            {"label": s.label, "traced": s.traced, "start_s": s.start_s, "wall_s": s.wall_s,
             "cpu_s": s.cpu_s, "peak_rss_mb": s.peak_rss_mb}
            for s in samples
        ],
    }
    if args.trace:
        traces = layers.load(stems)
        metrics = layers.per_layer(traces, samples)
        units = layers.UNITS
        table = layers.table(traces)
        (run_dir / "layers.txt").write_text(table, encoding="utf-8")
        print(table, end="")
    else:
        speed = speed_factor(refs)
        metrics = end_to_end(setup, samples, speed)
        units = END_TO_END_UNITS
        report["speed_factor"] = speed
        report["unscaled"] = end_to_end(setup, samples, 1.0)
        report["references"] = [{"start_s": start, "wall_s": wall} for start, wall in refs]
        report["setup_probes_s"] = setup
        walls = [s.wall_s for s in samples if not s.traced]
        report["wall_s.median"] = statistics.median(walls) * speed
        found = tail(walls)
        report["wall_s.tail"] = (
            {"percentile": found[0], "value": found[1] * speed, "unit": "s"} if found else None
        )
        report["sample_count"] = len(walls)
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    (run_dir / "result.json").write_text(json.dumps(report, indent=2), encoding="utf-8")

    print(f"workload {workload.name}: {json.dumps(workload.inputs, sort_keys=True)}")
    for key, value in report["environment"].items():
        print(f"{key}: {value}")
    for name, metric in report["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"speed_factor = {report['speed_factor']:.6g} (reference {REFERENCE_S:g} s / "
              f"mean of {len(refs)} reference runs)")
        for name, value in report["unscaled"].items():
            print(f"unscaled {name} = {value:.6g} {units[name]}")
        print(f"samples = {report['sample_count']}")
        print(f"wall_s.median = {report['wall_s.median']:.6g} s")
        if report["wall_s.tail"]:
            print(f"wall_s.tail = p{report['wall_s.tail']['percentile']:g} "
                  f"{report['wall_s.tail']['value']:.6g} s")
        else:
            print("wall_s.tail = undefined (fewer than 10 samples beyond any percentile)")
    print(f"failed_ratio = {report['failed_ratio']:.6g} "
          f"({len(failures)} of {len(samples)}, {len(failures) - len(unexpected)} known defects)")
    for s in failures:
        print(f"failed: {s.label}: {s.failure}"
              + (f" [known defect: {s.known_defect}]" if s.known_defect else ""))
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
