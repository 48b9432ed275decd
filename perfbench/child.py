"""One benchmark operation in a fresh process.

Usage::

    python3 perfbench/child.py api SPEC_JSON
    python3 perfbench/child.py trace STEM cli ARG...
    python3 perfbench/child.py trace STEM api SPEC_JSON

``api`` runs a census or certify operation through the public ``verify``
functions and prints one JSON list of ``{name, ok, summary}``.  ``trace``
runs either kind of operation (a CLI call goes through
``blowup_collections.cli.main``) with the boundary tracer installed, and
writes the trace to ``STEM.json`` and ``STEM.spans.jsonl`` even when the
operation raises.  Untraced CLI operations do not use this file: they run
``python3 -m blowup_collections.cli`` directly.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def run_api(spec: dict) -> int:
    # Attribute lookups on the module, so that traced wrappers are seen.
    from blowup_collections import verify

    windows = spec["windows"]
    if spec["op"] == "census":
        results = [verify.check_enumeration(tag, w) for tag, w in windows.items()]
    elif spec["op"] == "certify":
        results = [
            verify.check_chi_agreement(windows["chi"]),
            verify.check_point_vanishing(windows["vanishing"]),
            verify.check_line_vanishing(windows["vanishing"]),
            verify.check_cubic_vanishing(windows["vanishing"]),
            verify.check_tables(windows["tables"]),
            verify.check_relations(windows["relations"]),
            verify.check_family_chains("point", windows["family_chains"]),
            verify.check_family_chains("cubic", windows["family_chains"]),
            verify.check_diophantine(windows["diophantine"]),
        ]
    else:
        raise ValueError(f"unknown API operation {spec['op']!r}")
    print(json.dumps([{"name": r.name, "ok": r.ok, "summary": r.summary} for r in results]))
    return 0


def run_traced(stem: Path, kind: str, rest: list[str]) -> int:
    start = time.perf_counter()
    import blowup_collections.cli as cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer(op_id=int(stem.name.rsplit("-", 1)[-1]))
    tracer.install()
    tracer.require_cold_caches()
    try:
        if kind == "cli":
            return cli.main(rest)
        return run_api(json.loads(rest[0]))
    finally:
        tracer.write(stem, import_s)


def main(argv: list[str]) -> int:
    if argv[0] == "api":
        return run_api(json.loads(argv[1]))
    if argv[0] == "trace":
        return run_traced(Path(argv[1]), argv[2], argv[3:])
    raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
