"""Per-layer metrics from the traces of one run.

Each traced operation leaves ``trace-NNNNN.json`` (see ``tracer.py``).
Counts and times below are means per traced operation; ratios are taken
over the sums of the whole run.  A layer that an operation never enters
reads 0, which is how a workload shows that it bypasses a layer.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

CHECK_NAMES = (
    "vanishing-point", "vanishing-line", "vanishing-cubic", "chi-agreement", "tables",
    "enumeration-point", "enumeration-line", "enumeration-cubic", "relations",
    "family-chains-point", "family-chains-cubic", "diophantine", "augmentation",
)

_CALLS, _TOTAL, _SELF = 0, 1, 2


def _stat(name: str, field: int):
    return lambda t: t["stats"].get(name, [0, 0.0, 0.0])[field]


def _site(name: str, site: str):
    return lambda t: t["site_calls"].get(f"{name}@{site}", 0)


def _tally(key: str):
    return lambda t: t["tallies"].get(key, 0)


def _sum(*sources):
    return lambda t: sum(source(t) for source in sources)


# metric -> (unit, value of one traced operation)
PER_OP = {
    "cli.import_s": ("s", lambda t: t["import_s"]),
    "cli.main.self_s": ("s", _stat("cli.main", _SELF)),
    "geometry.euler_char.calls": ("count", _stat("geometry.euler_char", _CALLS)),
    "geometry.euler_char.self_s": ("s", _stat("geometry.euler_char", _SELF)),
    "geometry.euler_char_closed.self_s": ("s", _stat("geometry.euler_char_closed", _SELF)),
    "geometry.divisor_sub.calls": ("count", lambda t: t["divisor_sub_calls"]),
    "vanishing.coh_zero.calls": ("count", _stat("vanishing.coh_zero", _CALLS)),
    "vanishing.coh_zero.self_s": ("s", _stat("vanishing.coh_zero", _SELF)),
    "families.candidate_classes.self_s": ("s", _stat("families.candidate_classes", _SELF)),
    "families.candidates": ("count", _tally("families.candidates")),
    "families.expected_instances.self_s": ("s", _stat("families.expected_instances", _SELF)),
    "families.matching_type_labels.calls": (
        "count", _stat("families.matching_type_labels", _CALLS)
    ),
    "families.matching_type_labels.self_s": ("s", _stat("families.matching_type_labels", _SELF)),
    "sequences.collection_verdict.calls": ("count", _stat("sequences.collection_verdict", _CALLS)),
    "sequences.collection_verdict.self_s": ("s", _stat("sequences.collection_verdict", _SELF)),
    "sequences.moves.calls": ("count", _sum(
        _stat("sequences.helix_rotate_right", _CALLS),
        _stat("sequences.helix_rotate_left", _CALLS),
        _stat("sequences.transpose_orthogonal", _CALLS),
    )),
    "enumeration.search.self_s": ("s", _stat("enumeration.enumerate_collections", _SELF)),
    "enumeration.oracle_calls": ("count", _site("vanishing.coh_zero", "enumeration")),
    "enumeration.confirmed": ("count", _tally("enumeration.confirmed")),
    "tables.pair_table.self_s": ("s", _stat("tables.pair_table", _SELF)),
    "tables.cells": ("count", _tally("tables.cells")),
    "tables.pairs_scanned": ("count", _site("vanishing.coh_zero", "tables")),
    "relations.find_move_path.calls": ("count", _stat("relations.find_move_path", _CALLS)),
    "relations.find_move_path.self_s": ("s", _stat("relations.find_move_path", _SELF)),
    "relations.walks": ("count", _tally("relations.walks")),
    "diophantine.solve_claim_6_3.self_s": ("s", _stat("diophantine.solve_claim_6_3", _SELF)),
    "diophantine.conic_points": ("count", _tally("diophantine.conic_points")),
}
PER_OP.update({f"verify.{name}.s": ("s", _tally(f"verify.{name}.s")) for name in CHECK_NAMES})

UNITS = {name: unit for name, (unit, _) in PER_OP.items()}
UNITS.update({
    "vanishing.verdict_cache.hit_ratio": "ratio",
    "enumeration.confirmed_per_oracle_call": "ratio",
    "trace.overhead_ratio": "ratio",
})


def load(stems: list[Path]) -> list[dict]:
    """Traces of the run; a child that died before tracing started left none."""
    paths = [stem.with_suffix(".json") for stem in stems]
    return [json.loads(path.read_text(encoding="utf-8")) for path in paths if path.is_file()]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(traces: list[dict], samples) -> dict[str, float]:
    """Every per-layer metric of the run, in the order of ``UNITS``."""
    n = max(len(traces), 1)
    metrics = {name: sum(value(t) for t in traces) / n for name, (_, value) in PER_OP.items()}
    hits = misses = 0
    for t in traces:
        for cache, info in t["caches"].items():
            if cache.startswith("vanishing."):
                hits += info["hits"]
                misses += info["misses"]
    metrics["vanishing.verdict_cache.hit_ratio"] = _ratio(hits, hits + misses)
    metrics["enumeration.confirmed_per_oracle_call"] = _ratio(
        metrics["enumeration.confirmed"], metrics["enumeration.oracle_calls"]
    )
    metrics["trace.overhead_ratio"] = _ratio(
        sum(s.wall_s for s in samples if s.traced),
        sum(s.wall_s for s in samples if not s.traced),
    )
    return metrics


def table(traces: list[dict]) -> str:
    """Self time and call count per layer and per traced function, per operation."""
    n = max(len(traces), 1)
    rows: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for t in traces:
        for name, stat in t["stats"].items():
            row = rows[name]
            for field in (_CALLS, _TOTAL, _SELF):
                row[field] += stat[field] / n
    by_layer: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
    for name, row in rows.items():
        layer = by_layer[name.split(".", 1)[0]]
        layer[0] += row[_CALLS]
        layer[1] += row[_SELF]
    lines = [f"per-layer self time and calls, mean of {n} traced operation(s)",
             f"{'layer':<14}{'calls':>14}{'self_s':>12}"]
    for layer, (calls, self_s) in sorted(by_layer.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{layer:<14}{calls:>14.1f}{self_s:>12.6f}")
    lines.append(f"{'function':<44}{'calls':>14}{'total_s':>12}{'self_s':>12}")
    for name, (calls, total, self_s) in sorted(rows.items(), key=lambda kv: -kv[1][_SELF]):
        if calls:
            lines.append(f"{name:<44}{calls:>14.1f}{total:>12.6f}{self_s:>12.6f}")
    sub = sum(t["divisor_sub_calls"] for t in traces) / n
    kept = sum(t["spans_kept"] for t in traces)
    dropped = sum(t["spans_dropped"] for t in traces)
    lines.append(f"DivisorClass.__sub__ calls: {sub:.1f}")
    lines.append(f"spans written: {kept}, counted but not written: {dropped}")
    return "\n".join(lines) + "\n"
