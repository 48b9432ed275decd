#!/usr/bin/env python3
"""Census of the exhaustive collection search across a range of windows.

For each variety and each coordinate window, report how many normalized
length-6 collections the search confirms, how many distinct types they
realize, and whether any sequence stays undetermined (cubic model only;
possible once the conic-supported candidate classes enter the window).

The confirmed counts grow with the window only through the parameterized
types; the per-window type census is the quickest way to see the
classification stabilize.

Usage::

    python3 scripts/enumeration_census.py
    python3 scripts/enumeration_census.py --variety cubic --max-window 24
    python3 scripts/enumeration_census.py --json

Exit status is 141 (as for SIGPIPE), with stderr left empty, when the
reader closes standard output early, as ``| head`` does.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from blowup_collections.cli import exit_status
from blowup_collections.enumeration import enumerate_collections
from blowup_collections.geometry import VARIETY_TAGS, variety_model


def census_row(tag: str, window: int) -> dict:
    start = time.perf_counter()
    report = enumerate_collections(variety_model(tag), window)
    elapsed = time.perf_counter() - start
    return {
        "variety": tag,
        "window": window,
        "confirmed": len(report.confirmed),
        "types": len(report.confirmed_type_indices),
        "undetermined": len(report.undetermined),
        "unmatched": len(report.unmatched),
        "seconds": round(elapsed, 2),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--variety", choices=VARIETY_TAGS, default=None,
        help="restrict to one variety (default: all three)",
    )
    parser.add_argument("--min-window", type=int, default=10)
    parser.add_argument("--max-window", type=int, default=18)
    parser.add_argument(
        "--json", action="store_true", help="emit one JSON object per row"
    )
    args = parser.parse_args(argv)
    if args.min_window < 10:
        parser.error("--min-window must be at least 10")
    if args.max_window < args.min_window:
        parser.error("--max-window must be at least --min-window")

    tags = (args.variety,) if args.variety else VARIETY_TAGS
    windows = range(args.min_window, args.max_window + 1)
    return exit_status(lambda: print_census(tags, windows, args.json))


def print_census(tags: Sequence[str], windows: range, as_json: bool) -> int:
    """Print the header (text form only) and one row per variety and window.

    Returns the exit status, 0.
    """
    header = f"{'variety':<8} {'window':>6} {'confirmed':>9} {'types':>5} " \
             f"{'undet.':>6} {'unmatched':>9} {'seconds':>7}"
    if not as_json:
        print(header)
    for tag in tags:
        for window in windows:
            row = census_row(tag, window)
            if as_json:
                print(json.dumps(row, sort_keys=True))
            else:
                print(
                    f"{row['variety']:<8} {row['window']:>6} "
                    f"{row['confirmed']:>9} {row['types']:>5} "
                    f"{row['undetermined']:>6} {row['unmatched']:>9} "
                    f"{row['seconds']:>7.2f}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
