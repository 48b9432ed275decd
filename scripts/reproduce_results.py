#!/usr/bin/env python3
"""Run every end-to-end check and print one status line per check.

This is the one-shot reproduction driver: it exercises the vanishing
classifications, the Euler-characteristic cross-validation, the certified
compatibility tables, the three exhaustive enumerations, the mutation
chains, the within-family chain laws, the augmentation lifts, and the
conic Diophantine solver, then exits 0 only if everything passes.  Each
status line is printed as soon as its check finishes.  Exit status is 1
when a check fails and 2, after one ``error:`` line on stderr, when a
check rejects an argument (for example a window too small for it), and
141 (as for SIGPIPE), with stderr left empty, when the reader closes
standard output early, as ``| head`` does.

Usage::

    python3 scripts/reproduce_results.py
    python3 scripts/reproduce_results.py --window 20 --param-range 4
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from blowup_collections.cli import exit_status
from blowup_collections.verify import VERIFY_TOKENS, run_checks


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--window", type=int, default=None,
        help="override the scan window of every windowed check",
    )
    parser.add_argument(
        "--param-range", type=int, default=None,
        help="override the parameter range of the relations check",
    )
    args = parser.parse_args(argv)
    return exit_status(lambda: run_all(args.window, args.param_range))


def run_all(window: Optional[int], param_range: Optional[int]) -> int:
    """Print one status line per check as it finishes; the exit status."""
    failures = 0
    started = time.perf_counter()
    for token, result, seconds in run_checks("all", window, param_range):
        status, *details = result.report_lines()
        print(f"{status}  ({token}, {seconds:.2f}s)", *details, sep="\n", flush=True)
        failures += not result.ok
    total = time.perf_counter() - started
    print(
        f"{len(VERIFY_TOKENS) - failures}/{len(VERIFY_TOKENS)} checks passed "
        f"in {total:.2f}s"
    )
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
