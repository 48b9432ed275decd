"""Boundary tracing of one benchmark operation, installed from outside the package.

The tracer wraps every public function (the names in a module's
``__all__``) of every loaded ``blowup_collections`` module.  Each wrapper
replaces the function at *every* module binding that refers to it, so a
call is seen whichever module it is made from, and the import site is
counted separately: calls to ``vanishing.coh_zero`` through the
``enumeration`` module's binding are the search's oracle calls, calls
through the ``tables`` binding are the table scan's pair checks.

Every wrapped call is a span ``(span_id, name, start, end, parent, op_id)``.
Spans are kept in memory and written when the operation ends.  Call
counts, total time and self time (a span's duration minus the time its
child spans cover) are aggregated for every call.  The span list keeps
every span of at least ``LONG_SPAN_S`` -- the call tree down to the loops
that dominate -- and the first ``SPAN_CAP`` shorter ones, so that a traced
``verify all`` writes about a megabyte instead of half a million spans.

``DivisorClass.__sub__`` is only counted, not timed: it runs about two
million times per ``verify all`` and a timed span there would dominate
the tracing overhead.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

PACKAGE = "blowup_collections"

LONG_SPAN_S = 1e-3
SPAN_CAP = 10_000
"""Shorter spans kept per operation; the rest are aggregated only."""


def _tally_hook(tally: str, size):
    def hook(tracer: "Tracer", result, duration: float) -> None:
        tracer.tallies[tally] = tracer.tallies.get(tally, 0) + size(result)

    return hook


def _check_hook(tracer: "Tracer", result, duration: float) -> None:
    key = f"verify.{result.name}.s"
    tracer.tallies[key] = tracer.tallies.get(key, 0.0) + duration


# Counts read from return values, keyed by the traced function.
_RESULT_HOOKS = {
    "families.candidate_classes": _tally_hook("families.candidates", len),
    "enumeration.enumerate_collections": _tally_hook(
        "enumeration.confirmed", lambda report: len(report.confirmed)
    ),
    "tables.pair_table": _tally_hook("tables.cells", lambda table: len(table.labels) ** 2),
    "relations.verify_mutation_relations": _tally_hook(
        "relations.walks", lambda report: len(report.walks)
    ),
    "diophantine.dual_conic_points": _tally_hook("diophantine.conic_points", len),
}


def _hook_for(name: str):
    if name.startswith("verify.check_"):
        return _check_hook
    return _RESULT_HOOKS.get(name)


def package_modules() -> dict[str, object]:
    """Loaded package modules keyed by their short name (``""`` for the package)."""
    prefix = PACKAGE + "."
    found = {}
    for full_name, module in list(sys.modules.items()):
        if full_name == PACKAGE:
            found[""] = module
        elif full_name.startswith(prefix) and module is not None:
            found[full_name[len(prefix):]] = module
    return found


def lru_caches(modules: dict[str, object]) -> dict[str, object]:
    """Every ``functools.lru_cache`` wrapper defined at module level in the package."""
    caches = {}
    for short, module in modules.items():
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)) and getattr(
                value, "__module__", None
            ) == module.__name__:
                caches[f"{short}.{attr}"] = value
    return caches


class Tracer:
    """Spans and counters of one traced operation in one process."""

    def __init__(self, op_id: int) -> None:
        self.op_id = op_id
        self.stack: list[list] = []  # open frames: [span_id, start, covered]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.site_calls: dict[str, list[int]] = {}  # "name@site" -> [calls]
        self.tallies: dict[str, float] = {}
        self.sub_calls = [0]
        self.modules: dict[str, object] = {}

    def _wrap(self, name: str, site: str, fn):
        tracer = self
        stack = self.stack
        spans = self.spans
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        site_count = self.site_calls.setdefault(f"{name}@{site}", [0])
        hook = _hook_for(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            site_count[0] += 1
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                if duration >= LONG_SPAN_S or len(spans) < SPAN_CAP:
                    spans.append(
                        (span_id, name, frame[1], end,
                         parent[0] if parent is not None else None, tracer.op_id)
                    )
                else:
                    tracer.dropped += 1
            if hook is not None:
                hook(tracer, result, duration)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public package function at each binding that refers to it."""
        self.modules = package_modules()
        originals = {}
        for short, module in self.modules.items():
            if not short:
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(fn)
                ):
                    originals[id(fn)] = (f"{short}.{attr}", fn)
        for site, module in self.modules.items():
            for attr, value in list(vars(module).items()):
                found = originals.get(id(value))
                if found is not None and found[1] is value:
                    name, fn = found
                    setattr(module, attr, self._wrap(name, site or PACKAGE, fn))
        geometry = self.modules["geometry"]
        sub = geometry.DivisorClass.__sub__
        counter = self.sub_calls

        def counted_sub(left, right):
            counter[0] += 1
            return sub(left, right)

        geometry.DivisorClass.__sub__ = counted_sub

    def _cache_infos(self) -> dict[str, object]:
        return {name: cache.cache_info() for name, cache in lru_caches(self.modules).items()}

    def require_cold_caches(self) -> None:
        """Refuse to trace an operation that would start with warm memo caches."""
        warm = {name: info.currsize for name, info in self._cache_infos().items() if info.currsize}
        if warm:
            raise RuntimeError(f"operation starts with warm caches: {warm}")

    def summary(self, import_s: float) -> dict:
        return {
            "op_id": self.op_id,
            "import_s": import_s,
            "stats": self.stats,
            "site_calls": {key: count[0] for key, count in self.site_calls.items()},
            "tallies": self.tallies,
            "divisor_sub_calls": self.sub_calls[0],
            "caches": {
                name: {"hits": info.hits, "misses": info.misses}
                for name, info in self._cache_infos().items()
            },
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def write(self, stem: Path, import_s: float) -> None:
        """Write ``<stem>.json`` (aggregates) and ``<stem>.spans.jsonl`` (spans)."""
        stem.with_suffix(".json").write_text(
            json.dumps(self.summary(import_s), sort_keys=True), encoding="utf-8"
        )
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as handle:
            for span in sorted(self.spans):
                handle.write(json.dumps(span) + "\n")
