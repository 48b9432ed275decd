"""Seeded workload inputs and the output gate of every operation.

Each workload yields :class:`Op` values.  An op carries its command line
and the outcome the harness expects, derived from the generated input
alone: type instances must classify as the type they were built from,
differences of members of a catalogue collection must have vanishing
cohomology, and Euler characteristics, rotations, transpositions and
lifts are recomputed by the small reference formulas below.  The
package is used only to build inputs (``type_instance``) and, for the
census, to count the expected instances (``expected_instances``), as the
census check itself does.

Why these workloads:

* ``reproduce`` -- ``verify all`` at the paper defaults, the headline user
  action; it touches every layer once and most of its time is the line
  enumeration.
* ``census`` -- ``check_enumeration`` on all three models past the default
  windows, where the search and leaf re-verification dominate.
* ``certify`` -- every check except enumeration, at wide windows; the
  search is bypassed, so an enumeration change should leave it unchanged.
* ``queries`` -- many short CLI calls with JSON input; cold import and
  first-call set-up dominate, and malformed inputs test error handling.
* ``defects`` -- the inputs of the known input-handling defects
  (``KNOWN_DEFECTS``), which fail their gate until the CLI rejects them.

Only ``reproduce`` and ``queries`` are listed in ``BENCHMARK.json``; the
others run with ``--workload NAME``.  ``census`` and ``certify`` spread too
much from run to run on a shared two-core host (few operations a run), and
``reproduce`` enters every layer they load.  ``defects`` fails by design,
while a listed workload must have no failing operation.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

VARIETIES = ("point", "line", "cubic")
CANONICAL = {"point": (-4, 2), "line": (-4, 1), "cubic": (-4, 1)}
TABLE_SIZES = {"point": 7, "line": 4, "cubic": 11}
DIOPHANTINE_SOLUTIONS = (
    "0,1,2,0,-3,3",
    "0,1,2,0,3,0",
    "1,-1,2,-1,4,-2",
    "7,-4,2,-1,4,-2",
)
AUGMENT_TYPES = {2: 5, 3: 4, 4: 9}

# Status-line fragments that pin the paper's frozen numbers in `verify all`.
FROZEN_LINES = {
    "vanishing-point": ["66 vanishing classes in window 30"],
    "vanishing-line": ["121 vanishing classes in window 30"],
    "vanishing-cubic": ["window 30: 38 confirmed, 2 undecided"],
    "chi-agreement": [],
    "tables": ["186 cells certified"],
    "enumeration-point": ["confirmed families: 9, undetermined: 0 (90 sequences in window 15)"],
    "enumeration-line": ["confirmed families: 2, undetermined: 0 (1624 sequences in window 15)"],
    "enumeration-cubic": ["confirmed families: 15, undetermined: 0 (54 sequences in window 15)"],
    "relations": ["146 chain walks"],
    "family-chains-point": [],
    "family-chains-cubic": [],
    "diophantine": ["4 ordered solutions in window 50"],
    "augmentation": [],
}

CERTIFY_CHECKS = [
    "chi-agreement",
    "vanishing-point",
    "vanishing-line",
    "vanishing-cubic",
    "tables",
    "relations",
    "family-chains-point",
    "family-chains-cubic",
    "diophantine",
]

KNOWN_DEFECTS = {
    "entries-not-a-list": "a non-list 'entries' crashes with a TypeError traceback",
    "bool-coordinates": "true/false are accepted as integer coordinates",
}

# One deck of queries; each deck is shuffled, so every seed sees the same mix.
# Every input in it is handled correctly; the known defects have their own
# workload.
QUERY_DECK = (
    ("chi",) * 4
    + ("vanish",) * 4
    + ("classify",) * 3
    + ("classify-perturbed", "rotate", "rotate", "transpose", "transpose")
    + ("augment", "augment", "pairs-table", "dioph")
    + ("malformed", "malformed")
)


@dataclass
class Op:
    """One operation: how to run it and what it must produce."""

    label: str
    kind: str  # "cli": python3 -m blowup_collections.cli ARGS; "api": child.py api SPEC
    args: list[str]
    expect: dict
    known_defect: Optional[str] = None


@dataclass
class Workload:
    name: str
    inputs: dict
    ops: Iterator[Op] = field(repr=False)


# ---------------------------------------------------------------------------
# Reference formulas
# ---------------------------------------------------------------------------


def ref_chi(variety: str, a: int, b: int) -> int:
    """Euler characteristic of ``aH + bE`` from the closed forms of the paper."""
    if variety == "point":
        six_chi = (a + 1) * (a + 2) * (a + 3) + b * (b - 1) * (b - 2)
    elif variety == "line":
        six_chi = (a - 2 * b + 3) * (a + b + 1) * (a + b + 2)
    else:
        six_chi = (a + 2 * b + 1) * (a * a + 5 * a + 6 - 2 * a * b - 5 * b * b + b)
    if six_chi % 6:
        raise ArithmeticError(f"non-integral chi at {variety} ({a}, {b})")
    return six_chi // 6


def _no_sections(a: int, b: int) -> bool:
    return a < 0 or a + b < 0


def ref_vanishes(variety: str, a: int, b: int) -> bool:
    """All cohomology vanishes, on the point and line models only.

    There a line bundle cannot have both ``H^1`` and ``H^2``, so vanishing
    is ``H^0 = H^3 = 0`` (no sections of ``D`` or ``K - D``) and ``chi = 0``.
    """
    if variety not in ("point", "line"):
        raise ValueError("the reference vanishing test covers the point and line models")
    ka, kb = CANONICAL[variety]
    return (
        _no_sections(a, b)
        and _no_sections(ka - a, kb - b)
        and ref_chi(variety, a, b) == 0
    )


def normalized(entries: list[list[int]]) -> list[list[int]]:
    a0, b0 = entries[0]
    return [[a - a0, b - b0] for a, b in entries]


def ref_rotate(variety: str, entries: list[list[int]], direction: str) -> list[list[int]]:
    ka, kb = CANONICAL[variety]
    if direction == "right":
        a, b = entries[0]
        return normalized(entries[1:] + [[a - ka, b - kb]])
    a, b = entries[-1]
    return normalized([[a + ka, b + kb]] + entries[:-1])


def ref_lift(degrees: list[int], pivot: int) -> list[list[int]]:
    """Lift of ``O(d_1), ..., O(d_4)``: members before the pivot pair gain ``2E``,
    the two members entering the staircase each give ``(k-1)E, kE`` steps."""
    before = [[d, 2] for d in degrees[: pivot - 2]]
    staircase = [[degrees[pivot - 2], 1], [degrees[pivot - 2], 2],
                 [degrees[pivot - 1], 0], [degrees[pivot - 1], 1]]
    return before + staircase + [[d, 0] for d in degrees[pivot:]]


# ---------------------------------------------------------------------------
# Gate
# ---------------------------------------------------------------------------

_ENUMERATION_SUMMARY = re.compile(r"undetermined: (\d+) \((\d+) sequences in window (\d+)\)")


def check_output(op: Op, returncode: int, stdout: str, stderr: str) -> Optional[str]:
    """Why the op's outcome differs from the expected one, or ``None``."""
    expect = op.expect
    kind = expect["kind"]
    if kind == "usage_error":
        lines = stderr.splitlines()
        if returncode != 2:
            return f"exit code {returncode}, expected 2"
        if len(lines) != 1 or not lines[0].startswith("error:"):
            return f"expected one 'error:' line on stderr, got {len(lines)} line(s)"
        return None
    if returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {returncode}: {tail[0][:200]}"
    if kind == "text":
        if stdout.strip() != expect["text"]:
            return f"output {stdout.strip()[:200]!r} != expected {expect['text'][:200]!r}"
        return None
    if kind == "json":
        try:
            payload = json.loads(stdout)
        except ValueError:
            return "output is not JSON"
        for key, wanted in expect["fields"].items():
            if payload.get(key) != wanted:
                return f"{key}: {str(payload.get(key))[:200]} != expected {str(wanted)[:200]}"
        return None
    if kind == "pairs_table":
        try:
            payload = json.loads(stdout)
        except ValueError:
            return "output is not JSON"
        size = expect["size"]
        cells = payload.get("cells", [])
        if len(payload.get("labels", [])) != size or len(cells) != size or any(
            len(row) != size for row in cells
        ):
            return f"table is not {size} x {size}"
        return None
    if kind == "verify_all":
        lines = [line for line in stdout.splitlines() if line.startswith("[")]
        if len(lines) != len(expect["lines"]):
            return f"{len(lines)} status lines, expected {len(expect['lines'])}"
        seen = {}
        for line in lines:
            match = re.match(r"\[(PASS|FAIL)\] ([^:]+): (.*)", line)
            if match is None:
                return f"unreadable status line {line[:200]!r}"
            seen[match.group(2)] = (match.group(1), match.group(3))
        for name, fragments in expect["lines"].items():
            if name not in seen:
                return f"no status line for {name}"
            status, summary = seen[name]
            if status != "PASS":
                return f"{name}: {status}"
            for fragment in fragments:
                if fragment not in summary:
                    return f"{name}: {summary[:200]!r} lacks {fragment!r}"
        return None
    if kind == "checks":
        try:
            results = json.loads(stdout)
        except ValueError:
            return "output is not JSON"
        names = [r["name"] for r in results]
        if names != expect["names"]:
            return f"checks {names} != expected {expect['names']}"
        for result in results:
            if not result["ok"]:
                return f"{result['name']} failed: {result['summary'][:200]}"
            wanted = expect.get("sequences", {}).get(result["name"])
            if wanted is None:
                continue
            match = _ENUMERATION_SUMMARY.search(result["summary"])
            if match is None:
                return f"{result['name']}: unreadable summary {result['summary'][:200]!r}"
            undetermined, sequences = int(match.group(1)), int(match.group(2))
            if undetermined or sequences != wanted:
                return (
                    f"{result['name']}: {sequences} sequences and {undetermined} "
                    f"undetermined, expected {wanted} and 0"
                )
        return None
    raise ValueError(f"unknown expectation kind {kind!r}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _repeat(op: Op) -> Iterator[Op]:
    while True:
        yield op


def reproduce(seed: int, input_dir: Path) -> Workload:
    op = Op("verify-all", "cli", ["verify", "all"], {"kind": "verify_all", "lines": FROZEN_LINES})
    return Workload("reproduce", {"command": "verify all", "windows": "paper defaults",
                                  "seed": "unused"}, _repeat(op))


def census(seed: int, input_dir: Path) -> Workload:
    from blowup_collections.families import expected_instances
    from blowup_collections.geometry import variety_model

    rng = random.Random(seed)
    # The line window is fixed: one step of it changes the op's cost by about
    # a fifth, far more than the bound on wall time allows between seeds.
    windows = {"point": rng.randint(38, 42), "line": 16, "cubic": rng.randint(76, 84)}
    sequences = {
        f"enumeration-{tag}": len(expected_instances(variety_model(tag), w))
        for tag, w in windows.items()
    }
    spec = {"op": "census", "windows": windows}
    op = Op("census", "api", [json.dumps(spec)],
            {"kind": "checks", "names": list(sequences), "sequences": sequences})
    return Workload("census", {"windows": windows, "expected_sequences": sequences},
                    _repeat(op))


def certify(seed: int, input_dir: Path) -> Workload:
    rng = random.Random(seed)
    # Relations and family chains cost grows with a power of their window,
    # so those two windows are fixed; the others vary within a few percent.
    windows = {
        "chi": rng.randint(58, 62),
        "vanishing": rng.randint(96, 104),
        "tables": rng.randint(58, 62),
        "relations": 12,
        "family_chains": 15,
        "diophantine": rng.randint(380, 420),
    }
    op = Op("certify", "api", [json.dumps({"op": "certify", "windows": windows})],
            {"kind": "checks", "names": CERTIFY_CHECKS})
    return Workload("certify", {"windows": windows}, _repeat(op))


class _QueryMaker:
    def __init__(self, seed: int, input_dir: Path) -> None:
        from blowup_collections import families

        self.families = families
        self.rng = random.Random(seed)
        self.input_dir = input_dir
        self.count = 0

    def instance(self, varieties=VARIETIES) -> tuple[str, int, tuple[int, ...], list[list[int]]]:
        rng = self.rng
        variety = rng.choice(varieties)
        index = rng.choice(self.families.type_indices(variety))
        params = tuple(
            rng.randint(-6, 6) for _ in range(self.families.type_param_count(variety, index))
        )
        entries = [[d.a, d.b] for d in self.families.type_instance(variety, index, params).entries]
        return variety, index, params, entries

    def twisted(self, entries: list[list[int]]) -> list[list[int]]:
        da, db = self.rng.randint(-5, 5), self.rng.randint(-5, 5)
        return [[a + da, b + db] for a, b in entries]

    def write(self, text: str) -> str:
        self.count += 1
        path = self.input_dir / f"query-{self.count:05d}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def collection_file(self, variety: str, entries) -> str:
        return self.write(json.dumps({"variety": variety, "entries": entries}))

    def make(self, label: str) -> Op:
        return getattr(self, "_" + label.replace("-", "_"))(label)

    def _chi(self, label: str) -> Op:
        variety = self.rng.choice(VARIETIES)
        a, b = self.rng.randint(-30, 30), self.rng.randint(-30, 30)
        return Op(label, "cli", ["chi", "--variety", variety, "--divisor", f"{a},{b}"],
                  {"kind": "text", "text": str(ref_chi(variety, a, b))})

    def _vanish(self, label: str) -> Op:
        rng = self.rng
        if rng.random() < 0.5:
            # A backward difference inside a catalogue collection vanishes.
            variety, _, _, entries = self.instance()
            j, k = sorted(rng.sample(range(6), 2))
            a, b = entries[j][0] - entries[k][0], entries[j][1] - entries[k][1]
            verdict = "Zero"
        else:
            variety = rng.choice(VARIETIES)
            while True:
                a, b = rng.randint(-8, 8), rng.randint(-8, 8)
                if variety != "cubic":
                    verdict = "Zero" if ref_vanishes(variety, a, b) else "Nonzero"
                    break
                if ref_chi(variety, a, b) != 0:
                    verdict = "Nonzero"
                    break
        return Op(label, "cli", ["vanish", "--variety", variety, "--divisor", f"{a},{b}"],
                  {"kind": "text", "text": verdict})

    def _classify(self, label: str) -> Op:
        variety, index, params, entries = self.instance()
        path = self.collection_file(variety, self.twisted(entries))
        wanted = [{"variety": variety, "index": index, "params": list(params)}]
        return Op(label, "cli", ["classify", "--input", path, "--format", "json"],
                  {"kind": "json", "fields": {"types": wanted}})

    def _classify_perturbed(self, label: str) -> Op:
        rng = self.rng
        variety, _, _, entries = self.instance()
        while True:
            moved = [list(e) for e in entries]
            k = rng.randint(1, 5)
            moved[k][0] += rng.randint(-2, 2)
            moved[k][1] += rng.choice((-2, -1, 1, 2))
            # Not exceptional (some backward difference has chi != 0), hence
            # outside the catalogue, which lists exceptional collections only.
            if any(
                ref_chi(variety, moved[j][0] - moved[i][0], moved[j][1] - moved[i][1])
                for i in range(6) for j in range(i)
            ):
                break
        path = self.collection_file(variety, self.twisted(moved))
        return Op(label, "cli", ["classify", "--input", path, "--format", "json"],
                  {"kind": "json", "fields": {"types": []}})

    def _rotate(self, label: str) -> Op:
        variety, _, _, entries = self.instance()
        direction = self.rng.choice(("right", "left"))
        path = self.collection_file(variety, entries)
        wanted = {"variety": variety, "entries": ref_rotate(variety, entries, direction)}
        return Op(label, "cli", ["rotate", "--input", path, "--direction", direction],
                  {"kind": "json", "fields": wanted})

    def _transpose(self, label: str) -> Op:
        # The reference vanishing test decides both orders on these models.
        variety, _, _, entries = self.instance(("point", "line"))
        entries = self.twisted(entries)
        i = self.rng.randint(1, 5)
        left, right = entries[i - 1], entries[i]
        args = ["transpose", "--input", self.collection_file(variety, entries), "--index", str(i)]
        if ref_vanishes(variety, left[0] - right[0], left[1] - right[1]) and ref_vanishes(
            variety, right[0] - left[0], right[1] - left[1]
        ):
            swapped = list(entries)
            swapped[i - 1], swapped[i] = right, left
            return Op(label, "cli", args, {
                "kind": "json",
                "fields": {"variety": variety, "entries": normalized(swapped)},
            })
        return Op(label, "cli", args, {"kind": "usage_error"})

    def _augment(self, label: str) -> Op:
        d = self.rng.randint(-5, 5)
        degrees = [d, d + 1, d + 2, d + 3]
        pivot = self.rng.choice((2, 3, 4))
        wanted_types = [{"variety": "point", "index": AUGMENT_TYPES[pivot], "params": []}]
        return Op(label, "cli", [
            "augment", "--degrees", ",".join(map(str, degrees)), "--index", str(pivot),
        ], {"kind": "json", "fields": {
            "lift": {"variety": "point", "entries": ref_lift(degrees, pivot)},
            "types": wanted_types,
        }})

    def _pairs_table(self, label: str) -> Op:
        variety = self.rng.choice(VARIETIES)
        window = self.rng.randint(10, 20)
        return Op(label, "cli", [
            "pairs-table", "--variety", variety, "--window", str(window), "--format", "json",
        ], {"kind": "pairs_table", "size": TABLE_SIZES[variety]})

    def _dioph(self, label: str) -> Op:
        window = self.rng.randint(10, 60)
        return Op(label, "cli", ["dioph", "--window", str(window)],
                  {"kind": "text", "text": "\n".join(DIOPHANTINE_SOLUTIONS)})

    def _malformed(self, label: str) -> Op:
        rng = self.rng
        variety, _, _, entries = self.instance()
        shape = rng.choice(("divisor", "truncated-json", "pivot", "short-rotate", "variety"))
        if shape == "divisor":
            text = rng.choice((f"{rng.randint(-9, 9)},x", f"1,2,{rng.randint(0, 9)}", "", "a,b"))
            args = [rng.choice(("chi", "vanish")), "--variety", variety, "--divisor", text]
        elif shape == "truncated-json":
            full = json.dumps({"variety": variety, "entries": entries})
            args = ["classify", "--input", self.write(full[: rng.randint(1, len(full) - 1)])]
        elif shape == "pivot":
            args = ["augment", "--degrees", "0,1,2,3", "--index", str(rng.choice((0, 1, 5, 6)))]
        elif shape == "short-rotate":
            args = ["rotate", "--input", self.collection_file(variety, entries[:5])]
        else:
            args = ["classify", "--input", self.collection_file(
                rng.choice(("plane", "quadric", "Point", "")), entries)]
        return Op(f"{label}:{shape}", "cli", args, {"kind": "usage_error"})

    def _entries_not_a_list(self, label: str) -> Op:
        variety = self.rng.choice(VARIETIES)
        path = self.write(json.dumps({"variety": variety, "entries": self.rng.randint(0, 9)}))
        return Op(label, "cli", ["classify", "--input", path], {"kind": "usage_error"},
                  known_defect=KNOWN_DEFECTS[label])

    def _bool_coordinates(self, label: str) -> Op:
        variety, _, _, entries = self.instance()
        entries[self.rng.randint(1, 5)][self.rng.randint(0, 1)] = self.rng.choice((True, False))
        path = self.collection_file(variety, entries)
        return Op(label, "cli", ["classify", "--input", path], {"kind": "usage_error"},
                  known_defect=KNOWN_DEFECTS[label])


def queries(seed: int, input_dir: Path) -> Workload:
    maker = _QueryMaker(seed, input_dir)

    def ops() -> Iterator[Op]:
        while True:
            deck = list(QUERY_DECK)
            maker.rng.shuffle(deck)
            for label in deck:
                yield maker.make(label)

    mix = {label: QUERY_DECK.count(label) for label in dict.fromkeys(QUERY_DECK)}
    return Workload("queries", {"deck": mix, "deck_size": len(QUERY_DECK)}, ops())


def defects(seed: int, input_dir: Path) -> Workload:
    maker = _QueryMaker(seed, input_dir)

    def ops() -> Iterator[Op]:
        while True:
            for label in KNOWN_DEFECTS:
                yield maker.make(label)

    return Workload("defects", {"cycle": list(KNOWN_DEFECTS)}, ops())


WORKLOADS = {
    "reproduce": reproduce,
    "census": census,
    "certify": certify,
    "queries": queries,
    "defects": defects,
}
