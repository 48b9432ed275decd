"""Command-line interface for the collection-enumeration engine.

===============  ====================================================
``chi``          Euler characteristic of one divisor class
``vanish``       three-valued cohomology-vanishing verdict
``pairs-table``  certified pairwise-compatibility table of a variety
``enumerate``    exhaustive length-6 collection search over a window
``classify``     match a collection (JSON) against the type catalogue
``rotate``       helix rotation of a length-6 collection
``transpose``    transposition of completely orthogonal neighbours
``augment``      lift a length-4 collection from projective 3-space
``dioph``        solve the conic Diophantine system (cubic model)
``verify``       run one named end-to-end check (or ``all``)
===============  ====================================================

Collections are exchanged as JSON objects
``{"variety": "point"|"line"|"cubic", "entries": [[a, b], ...]}``.
``--format`` is a plain string, ``text`` or ``json`` (``markdown``, ``csv``
or ``json`` for ``pairs-table``); JSON is printed with sorted keys.

Every command but ``verify`` returns ``(payload, lines)``: its JSON
payload and an iterable of its text lines.  One function prints the
payload under ``--format json`` and the lines otherwise, so a command
whose lines are lazy (``enumerate``, ``dioph``) formats no text for
JSON.  ``verify`` prints each check's lines as the check finishes.

Each command imports only the modules it uses.  At module level the CLI
imports ``geometry`` and the ``verify`` token table of ``registry``; each
handler imports the rest when it runs.  So a cold ``chi`` loads no other
package module, ``vanish`` adds ``vanishing``, and ``rotate`` and
``transpose`` add ``sequences``.  The standard ``json`` module is imported
only to print ``--format json`` or, in ``Collection.from_json``, to read a
collection, so a cold ``verify`` never loads it.  ``main`` builds only the
subparser of the command ``argv[0]`` names; ``--help`` and a missing or
unknown command get them all.

Exit status: 0 on success, 1 when a ``verify`` check fails, 2 on usage
errors, and 141 (as for SIGPIPE), with stderr left empty, when the
reader closes standard output early, as ``| head`` does.  All output is
plain UTF-8 text with deterministic ordering; no ANSI color is ever
emitted, so ``NO_COLOR`` is honored trivially.  ``main`` maps errors to
these statuses.  ``python -m blowup_collections.cli`` and the
``blowup-collections`` console command both start in ``run``, which turns
the cyclic garbage collector off (the package leaves almost no cyclic
garbage), and end in ``exit_process``, which runs the ``atexit`` handlers,
flushes standard output and error, and skips interpreter teardown.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from functools import partial
from itertools import chain
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, NoReturn, Optional, Sequence

from .geometry import (
    VARIETY_TAGS, DivisorClass, euler_char, euler_char_closed, variety_model,
)
from .registry import VERIFY_TOKENS

if TYPE_CHECKING:
    from .sequences import Collection

__all__ = ["main", "build_parser"]


def _parse_ints(text: str, error: str) -> tuple[int, ...]:
    parts = text.split(",")
    try:
        return tuple(map(int, parts))
    except ValueError:
        # Python 3.10 before 3.10.7 has no limit and no way to read it.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and max(map(len, parts)) > limit:
            raise ValueError(f"integers are limited to {limit} digits") from None
        raise ValueError(f"{error}, got {text!r}") from None


def _parse_divisor(text: str) -> DivisorClass:
    if text.count(",") != 1:
        raise ValueError(f"expected a divisor as 'a,b', got {text!r}")
    return DivisorClass(*_parse_ints(text, "divisor coordinates must be integers"))


def _read_collection(args) -> Collection:
    """The collection at ``--input``, whose variety must match ``--variety``."""
    from .sequences import Collection

    path = args.input
    if path == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc}") from None
    try:
        seq = Collection.from_json(raw)
    except ValueError as exc:
        raise ValueError(f"invalid collection JSON in {path}: {exc}") from None
    if args.variety not in (None, seq.variety):
        raise ValueError(
            f"collection is tagged {seq.variety!r} but --variety says {args.variety!r}"
        )
    return seq


def _dump_json(payload) -> str:
    import json

    return json.dumps(payload, sort_keys=True, indent=2)


# A command's JSON payload and its text lines.
_Output = tuple[dict, Iterable[str]]

# Stands in for a subparser that is not built: takes arguments, keeps none.
_UNBUILT = SimpleNamespace(add_argument=lambda *args, **kwargs: None)


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join value-taking flags with their (possibly negative) values.

    ``--divisor -1,2`` would otherwise be read by ``argparse`` as a flag
    followed by an unknown option; rewriting it to ``--divisor=-1,2``
    sidesteps that without forbidding negative coordinates.
    """
    joined: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        if token in ("--divisor", "--degrees"):
            value = next(tokens, None)
            token = token if value is None else f"{token}={value}"
        joined.append(token)
    return joined


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or only of ``command`` when it names one."""
    parser = argparse.ArgumentParser(
        prog="blowup-collections",
        description=(
            "Exact enumeration and verification of exceptional collections of "
            "line bundles on the blow-up of projective 3-space at a point, a "
            "line, or a twisted cubic curve."
        ),
        epilog="All output is plain text without ANSI color.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    built = names = (*_COMMANDS, "verify")
    if command in names:
        # The top-level usage of an "unrecognized arguments" error lists all.
        sub.metavar, built = "{" + ",".join(names) + "}", (command,)

    def add_parser(name, help):
        return sub.add_parser(name, help=help) if name in built else _UNBUILT

    def add_variety(p, required=True):
        p.add_argument(
            "--variety",
            choices=VARIETY_TAGS,
            required=required,
            help="which blow-up model to use",
        )

    def add_format(p, default, *others):
        p.add_argument(
            "--format",
            choices=(default, *others),
            default=default,
            help=f"output format (default: {default})",
        )

    p_chi = add_parser("chi", help="Euler characteristic of a divisor class")
    add_variety(p_chi)
    p_chi.add_argument("--divisor", required=True, help="divisor class as 'a,b'")
    add_format(p_chi, "text", "json")

    p_van = add_parser("vanish", help="cohomology-vanishing verdict")
    add_variety(p_van)
    p_van.add_argument("--divisor", required=True, help="divisor class as 'a,b'")
    add_format(p_van, "text", "json")

    p_tab = add_parser("pairs-table", help="pairwise-compatibility table")
    add_variety(p_tab)
    p_tab.add_argument(
        "--window", type=int, default=15,
        help="parameter half-width of the certification scan (default: 15)",
    )
    add_format(p_tab, "markdown", "csv", "json")

    p_enum = add_parser("enumerate", help="exhaustive length-6 search")
    add_variety(p_enum)
    p_enum.add_argument(
        "--window", type=int, default=15,
        help="coordinate half-width of the search window (default: 15)",
    )
    add_format(p_enum, "json", "text")

    p_cls = add_parser("classify", help="match a collection against the catalogue")
    add_variety(p_cls, required=False)
    p_cls.add_argument(
        "--input", required=True,
        help="path of a collection JSON file, or '-' for stdin",
    )
    add_format(p_cls, "text", "json")

    p_rot = add_parser("rotate", help="helix rotation of a collection")
    add_variety(p_rot, required=False)
    p_rot.add_argument("--input", required=True, help="collection JSON file or '-'")
    p_rot.add_argument(
        "--direction", choices=("right", "left"), default="right",
        help="rotation direction (default: right)",
    )
    add_format(p_rot, "json", "text")

    p_tr = add_parser("transpose", help="swap completely orthogonal neighbours")
    add_variety(p_tr, required=False)
    p_tr.add_argument("--input", required=True, help="collection JSON file or '-'")
    p_tr.add_argument(
        "--index", type=int, required=True,
        help="1-based position of the left member of the swapped pair",
    )
    add_format(p_tr, "json", "text")

    p_aug = add_parser("augment", help="lift a length-4 collection (point model)")
    p_aug.add_argument(
        "--degrees", required=True,
        help="the four twists downstairs, e.g. '0,1,2,3'",
    )
    p_aug.add_argument(
        "--index", type=int, required=True,
        help="1-based pivot position (2..4)",
    )
    add_format(p_aug, "json", "text")

    p_dio = add_parser("dioph", help="solve the conic Diophantine system")
    p_dio.add_argument(
        "--window", type=int, default=50,
        help="coordinate bound on solutions (default: 50)",
    )
    add_format(p_dio, "text", "json")

    p_ver = add_parser("verify", help="run a named end-to-end check")
    p_ver.add_argument(
        "token",
        choices=VERIFY_TOKENS + ("all",),
        help="which check to run",
    )
    p_ver.add_argument("--window", type=int, default=None, help="override scan window")
    p_ver.add_argument(
        "--param-range", type=int, default=None,
        help="override the relations parameter range",
    )
    return parser


def _divisor_query(key: str, value_of, args) -> _Output:
    """``chi`` and ``vanish``: ``value_of(model, d)`` at ``--variety``/``--divisor``."""
    model = variety_model(args.variety)
    d = _parse_divisor(args.divisor)
    value = value_of(model, d)
    return {"variety": model.tag, "divisor": [d.a, d.b], key: value}, (str(value),)


def _chi(model, d) -> int:
    value = euler_char(model, d)
    closed = euler_char_closed(model, d)
    if value != closed:  # pragma: no cover - the test-suite pins agreement
        raise AssertionError(f"chi routes disagree at {d}: {value} vs {closed}")
    return value


def _verdict(model, d) -> str:
    from .vanishing import coh_zero

    return coh_zero(model, d).value


# The table scan and the search cost at least the square of ``--window``
# (line window 100 takes seconds), so the CLI caps it; the library does not.
_MAX_WINDOW = 100


def _bounded_window(args) -> int:
    if args.window > _MAX_WINDOW:
        raise ValueError(
            f"{args.command} --window must be at most {_MAX_WINDOW}, got {args.window}"
        )
    return args.window


def _cmd_pairs_table(args) -> _Output:
    window = _bounded_window(args)
    from .tables import pair_table

    table = pair_table(variety_model(args.variety), window)
    text = table.to_csv().removesuffix("\n") if args.format == "csv" else table.to_markdown()
    return table.to_json_dict(), (text,)


def _cmd_enumerate(args) -> _Output:
    window = _bounded_window(args)
    from .enumeration import enumerate_collections

    report = enumerate_collections(variety_model(args.variety), window)
    confirmed = (f"{label.render()}: {seq}" for seq, label in report.confirmed)
    undetermined = (f"undetermined: {seq}" for seq in report.undetermined)
    return report.to_json_dict(), chain((report.summary(),), confirmed, undetermined)


def _cmd_classify(args) -> _Output:
    from .families import matching_type_labels
    from .sequences import normalize

    seq = _read_collection(args)
    labels = matching_type_labels(seq)
    payload = {
        "collection": seq.to_json_dict(),
        "normalized": normalize(seq).to_json_dict(),
        "types": [label.to_json_dict() for label in labels],
    }
    return payload, [label.render() for label in labels] or ["no matching type"]


def _cmd_rotate(args) -> _Output:
    from .sequences import helix_rotate_left, helix_rotate_right

    rotate = helix_rotate_left if args.direction == "left" else helix_rotate_right
    result = rotate(_read_collection(args))
    return result.to_json_dict(), (str(result),)


def _cmd_transpose(args) -> _Output:
    from .sequences import transpose_orthogonal

    seq = _read_collection(args)
    length = len(seq.entries)
    if length < 2:
        raise ValueError("transposition needs at least two entries")
    if not 1 <= args.index < length:
        raise ValueError(
            f"--index is 1-based and must lie between 1 and {length - 1} "
            f"for length {length}, got {args.index}"
        )
    result = transpose_orthogonal(seq, args.index - 1)
    return result.to_json_dict(), (str(result),)


def _cmd_augment(args) -> _Output:
    from .families import matching_type_labels
    from .sequences import augment_point_blowup, normalize

    degrees = _parse_ints(args.degrees, "expected comma-separated integers")
    result = augment_point_blowup(degrees, args.index)
    payload = {
        "collection": normalize(result).to_json_dict(),
        "types": [label.to_json_dict() for label in matching_type_labels(result)],
        "lift": result.to_json_dict(),
    }
    return payload, (str(result),)


def _cmd_dioph(args) -> _Output:
    from .diophantine import solve_claim_6_3

    solutions = solve_claim_6_3(args.window)
    payload = {"window": args.window, "solutions": [list(s) for s in solutions]}
    return payload, (",".join(map(str, s)) for s in solutions)


# Every command but ``verify``, which streams its check lines as they finish.
_COMMANDS: dict[str, Callable[[argparse.Namespace], _Output]] = {
    "chi": partial(_divisor_query, "chi", _chi),
    "vanish": partial(_divisor_query, "verdict", _verdict),
    "pairs-table": _cmd_pairs_table,
    "enumerate": _cmd_enumerate,
    "classify": _cmd_classify,
    "rotate": _cmd_rotate,
    "transpose": _cmd_transpose,
    "augment": _cmd_augment,
    "dioph": _cmd_dioph,
}


def _print_output(args) -> int:
    """Print the command's JSON payload under ``--format json``, else its lines."""
    payload, lines = _COMMANDS[args.command](args)
    if args.format == "json":
        print(_dump_json(payload))
    else:
        print(*lines, sep="\n")
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_checks

    ok = True
    for _, result in run_checks(args.token, args.window, args.param_range):
        print(*result.report_lines(), sep="\n", flush=True)
        ok = ok and result.ok
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; its exit status.

    A ``ValueError`` becomes one ``error:`` line on stderr and status 2.
    A reader that closed standard output early (``| head``) gives status
    141, as for SIGPIPE, with stderr left empty.
    """
    raw = list(sys.argv[1:] if argv is None else argv)
    args = build_parser(*raw[:1]).parse_args(_merge_negative_values(raw))
    try:
        status = (_cmd_verify if args.command == "verify" else _print_output)(args)
        sys.stdout.flush()
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at the null device, so the interpreter's final flush
        # of the rest stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def exit_process(status: int) -> NoReturn:
    """End the process with ``status``, skipping interpreter teardown.

    The ``atexit`` handlers run first, as at a normal shutdown, then
    standard output and error are flushed; ``os._exit`` ends the process
    without freeing the modules and memo tables that the operating system
    reclaims anyway.  A reader that closed standard output before the
    final flush gives status 141, as in ``main``.  Only a process entry
    point calls this: ``main`` returns to callers that run it in-process.
    """
    # The function CPython's own shutdown calls to run the handlers.
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        status = 141
    sys.stderr.flush()
    os._exit(status)


def run() -> NoReturn:
    """The process entry point: ``main`` on ``sys.argv``, collector off.

    ``python -m blowup_collections.cli`` and the ``blowup-collections``
    console command both come here.  argparse's own exits (``--help``, a
    parse error) leave ``main`` as ``SystemExit`` and end the process
    through the interpreter's usual shutdown.
    """
    gc.disable()
    exit_process(main())


if __name__ == "__main__":  # pragma: no cover
    run()
