"""Named end-to-end checks reproducing the classification results.

Each check cross-validates one layer of the package against independent
evidence -- a second derivation route, an exhaustive scan, or structural
properties -- and returns a :class:`CheckResult` with a one-line summary
and, on failure, explicit diff lines.  :func:`run_check` runs one check by
its registry token, and :func:`run_checks` runs one token or ``all`` of
them, yielding each result as its check finishes; the CLI ``verify``
subcommand prints from it, and the acceptance test-suite calls
:func:`run_check`.

The length-6 enumerations, the B0 chain laws and the claim 6.3 triples
all come from the package's one bitset chain search,
:func:`blowup_collections.sequences._chains`.

Registry tokens (CLI names), declared in
:mod:`~blowup_collections.registry` in the order ``verify all`` runs them:

=================  ====================================================
``claim4.5``       chains after the trivial bundle inside B0, point model
``claim6.2``       chains after the trivial bundle inside B0, cubic model
``claim6.3``       the Diophantine system and its four solutions
``prop4.3``        decided vanishing classification, point model
``prop5.5``        decided vanishing classification, line model
``prop6.4``        three-valued vanishing trichotomy, cubic model
``relations``      declared mutation-relation chains, all varieties
``tables``         pre-encoded pairwise-compatibility tables, certified
``thm4.4``         exhaustive length-6 enumeration, point model
``thm5.6``         exhaustive length-6 enumeration, line model
``thm6.5``         exhaustive length-6 enumeration, cubic model
``chi-agreement``  both Euler-characteristic routes and Serre duality
``augmentation``   lifts of the standard collection from projective 3-space
=================  ====================================================
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Callable, Iterator, NamedTuple, Optional

from .geometry import (
    VARIETY_TAGS,
    DivisorClass,
    VarietyModel,
    ZERO_CLASS,
    _divisor,
    cubic_chi_cofactor,
    euler_char,
    euler_char_closed,
    serre_dual,
    variety_model,
)
from .vanishing import (
    FAMILIES,
    _NONZERO,
    _UNKNOWN,
    _ZERO,
    _cached_verdict,
    _numerically_trivial,
    coh_zero,
)
from .sequences import Collection, _chains, collection_verdict, augment_point_blowup
from .families import (
    expected_instances,
    family_by_label,
    family_members,
    matching_type_labels,
)
from .enumeration import enumerate_collections, verdict_masks
from .tables import TableVerificationError, pair_table
from .relations import verify_mutation_relations
from .diophantine import solve_claim_6_3
from .registry import VERIFY_TOKENS, _TOKENS

__all__ = [
    "CheckResult",
    "VERIFY_TOKENS",
    "run_check",
    "run_checks",
    "check_point_vanishing",
    "check_line_vanishing",
    "check_cubic_vanishing",
    "check_chi_agreement",
    "check_tables",
    "check_enumeration",
    "check_relations",
    "check_family_chains",
    "check_diophantine",
    "check_augmentation",
]


class CheckResult(NamedTuple):
    """Outcome of one named check."""

    name: str
    ok: bool
    summary: str
    details: tuple[str, ...] = ()

    def status_line(self) -> str:
        return f"[{'PASS' if self.ok else 'FAIL'}] {self.name}: {self.summary}"

    def report_lines(self) -> list[str]:
        """The status line, then each detail of a failed check, indented."""
        details = () if self.ok else self.details
        return [self.status_line(), *(f"  {line}" for line in details)]


def _result(name: str, failures: list[str], summary: str) -> CheckResult:
    return CheckResult(
        name=name,
        ok=not failures,
        summary=summary if not failures else f"{summary}; {len(failures)} failure(s)",
        details=tuple(failures),
    )


def _require_window(window: int) -> None:
    # A negative window scans nothing, and an empty scan would pass vacuously.
    if window < 0:
        raise ValueError(f"scan windows must be non-negative, got {window}")


def _pairs(window: int) -> Iterator[tuple[int, int]]:
    # The window's classes as coordinate pairs, a outer and b inner: the
    # order of every grid check and of the chi tables.
    span = range(-window, window + 1)
    return product(span, span)


@lru_cache(maxsize=None)
def _chi_table(
    tag: str, window: int, route: Callable[[VarietyModel, tuple[int, int]], int]
) -> tuple[int, ...]:
    """``route(model, (a, b))`` on every class of the window, in grid order.

    Class ``(a, b)`` sits at index ``(a + W)*(2W + 1) + (b + W)`` for
    ``W = window``.  The grid checks pass their module binding
    ``euler_char`` as ``route``, so one table per model and window serves
    all four, and a patched or traced route is keyed apart and gets a
    table of its own instead of a stale one.
    """
    _require_window(window)
    model = variety_model(tag)
    return tuple([route(model, d) for d in _pairs(window)])


def _undecided_cases(tag: str) -> set[int]:
    # Case k is candidate family B(k-1) negated.
    return {k for k, fam in enumerate(FAMILIES[tag], 1) if fam.kind == "undecided"}


def _case_stamps(model: VarietyModel, window: int) -> dict[tuple[int, int], int]:
    # Case k stamped on each negated member of family B(k-1) inside the box.
    # The cases are disjoint, so a class claimed twice keeps its first case:
    # a decided family's member is never hidden behind a conic-region stamp.
    stamps: dict[tuple[int, int], int] = {}
    for case, group in enumerate(family_members(model, window), 1):
        for _, (a, b) in group:
            if -window <= a <= window and -window <= b <= window:
                stamps.setdefault((-a, -b), case)
    return stamps


def _check_vanishing(tag: str, window: int) -> CheckResult:
    """The vanishing classification of one model, checked class by class.

    Each class of the window must keep two rules, and each broken rule is
    one failure line naming the class, its verdict and the expected one:

    * case line: ``Zero`` in a decided case, ``Unknown`` in an undecided
      one, ``Nonzero`` outside every case;
    * witness line: anything but ``Nonzero`` exactly when
      ``_numerically_trivial`` holds (no sections either way, ``chi = 0``),
      with ``chi`` read from the model's :func:`_chi_table`.

    The expected case of a class is stamped from the members of the
    candidate families (:func:`families.family_members`) inside the box,
    negated: case ``k`` on the members of ``B(k-1)``.  The decided
    families' members come from their bases and directions, so for the
    decided cases the case line checks the oracle's compiled case
    equations against the families themselves.  The conic cases of the
    cubic model are still sorted by ``family_label_of``, which reads the
    oracle's own case lookup, so for them only the witness line is
    independent evidence, though the case line alone sees a ``Zero``
    swapped for ``Unknown``.  Each verdict is read from the memo behind
    ``coh_zero`` by its integer key ``(tag, a, b)``.
    """
    model = variety_model(tag)
    chi = _chi_table(tag, window, euler_char)
    stamps = _case_stamps(model, window)
    undecided_cases = _undecided_cases(tag)
    failures = []
    zero_count = unknown_count = 0
    for d, chi_d in zip(_pairs(window), chi):
        a, b = d
        verdict = _cached_verdict(tag, a, b)
        if verdict is _ZERO:
            zero_count += 1
        elif verdict is _UNKNOWN:
            unknown_count += 1
        case = stamps.get(d)
        if case is None:
            want = _NONZERO
        else:
            want = _UNKNOWN if case in undecided_cases else _ZERO
        if verdict is not want:
            where = "no case" if case is None else f"case {case}"
            failures.append(
                f"{_divisor(d)}: verdict {verdict.value}, case table expects "
                f"{want.value} ({where})"
            )
        # ``_numerically_trivial`` is false wherever chi is not 0.
        trivial = chi_d == 0 and _numerically_trivial(model, d, chi_d)
        if (verdict is _NONZERO) == trivial:
            witness = "Zero or Unknown" if verdict is _NONZERO else "Nonzero"
            failures.append(
                f"{_divisor(d)}: verdict {verdict.value}, sections and chi expect "
                f"{witness}"
            )
    if undecided_cases:
        refuted = len(chi) - zero_count - unknown_count
        summary = (
            f"window {window}: {zero_count} confirmed, {unknown_count} undecided, "
            f"{refuted} refuted"
        )
    else:
        summary = (
            f"{zero_count} vanishing classes in window {window}, "
            f"two derivation routes agree"
        )
    return _result(f"vanishing-{tag}", failures, summary)


def check_point_vanishing(window: int = 30) -> CheckResult:
    return _check_vanishing("point", window)


def check_line_vanishing(window: int = 30) -> CheckResult:
    return _check_vanishing("line", window)


def check_cubic_vanishing(window: int = 30) -> CheckResult:
    return _check_vanishing("cubic", window)


def check_chi_agreement(window: int = 30) -> CheckResult:
    """Riemann-Roch expansion vs closed form, plus duality sanity.

    Per model, the ``euler_char`` values come from :func:`_chi_table`, the
    table the vanishing checks read too; the trivial class and the Serre
    duals ``K - d`` inside the window are read from it by index.  Only a
    dual outside the window is built, by ``serre_dual``, and evaluated
    again.  ``euler_char_closed`` runs once per class, on its coordinate
    pair.
    """
    side = 2 * window + 1
    failures = []
    for tag in VARIETY_TAGS:
        model = variety_model(tag)
        chi = _chi_table(tag, window, euler_char)
        if chi[window * side + window] != 1:
            failures.append(f"{tag}: chi of the trivial class is not 1")
        # K shifted by (W, W): the dual K - d of d = (a, b) has grid offsets
        # (ka - a, kb - b).
        ka, kb = (k + window for k in model.canonical)
        for d, expanded in zip(_pairs(window), chi):
            closed = euler_char_closed(model, d)
            if expanded != closed:
                failures.append(
                    f"{tag} {_divisor(d)}: expansion {expanded} != closed {closed}"
                )
            a, b = d
            i, j = ka - a, kb - b
            if 0 <= i < side and 0 <= j < side:
                dual_chi = chi[i * side + j]
            else:
                dual_chi = euler_char(model, serre_dual(model, _divisor(d)))
            if expanded != -dual_chi:
                failures.append(f"{tag} {_divisor(d)}: Serre antisymmetry fails")
    return _result(
        "chi-agreement",
        failures,
        f"both chi routes and Serre antisymmetry agree on window {window} "
        f"for all three models",
    )


def check_tables(param_window: int = 15) -> CheckResult:
    """Certify all three pre-encoded tables against the oracle."""
    failures = []
    cell_count = 0
    for tag in VARIETY_TAGS:
        try:
            table = pair_table(variety_model(tag), param_window)
            cell_count += len(table.labels) ** 2
        except TableVerificationError as exc:
            failures.append(f"{tag}: {exc}")
    return _result(
        "tables",
        failures,
        f"{cell_count} cells certified over parameter window {param_window}",
    )


_EXPECTED_TYPE_COUNTS = {"point": 9, "line": 2, "cubic": 15}


def check_enumeration(tag: str, window: int = 15) -> CheckResult:
    """Exhaustive search equals the classification, both directions.

    The window search must find exactly the window-restricted type
    instances (no missing instance, no extra sequence), leave nothing
    undetermined, and match every confirmed sequence to exactly one type.
    """
    model = variety_model(tag)
    report = enumerate_collections(model, window)
    expected = expected_instances(model, window)
    failures = []

    # Keyed by the entry tuples, which hash in C.  One comparison decides
    # a pass; the entries are walked only to write the failure lines.
    # Every sequence here is on the one model, so a failure line rebuilds
    # its collection.
    found = {seq.entries: label for seq, label in report.confirmed}
    wanted = {seq.entries: label for seq, label in expected}
    if found != wanted:
        for entries, label in wanted.items():
            if entries not in found:
                seq = Collection(tag, entries)
                failures.append(f"missing instance {label.render()}: {seq}")
        for entries, label in found.items():
            want = wanted.get(entries)
            if want == label:
                continue
            seq = Collection(tag, entries)
            if want is None:
                failures.append(f"extra sequence beyond the classification: {seq}")
            else:
                failures.append(
                    f"{seq}: classified {label.render()}, expected {want.render()}"
                )
    for seq in report.undetermined:
        failures.append(f"undetermined sequence: {seq}")
    for seq in report.unmatched:
        failures.append(f"confirmed but unmatched sequence: {seq}")
    if len(report.confirmed_type_indices) != _EXPECTED_TYPE_COUNTS[tag] and not failures:
        failures.append(
            f"expected {_EXPECTED_TYPE_COUNTS[tag]} types, found "
            f"{report.confirmed_type_indices}"
        )
    return _result(
        f"enumeration-{tag}",
        failures,
        report.summary() + f" ({len(report.confirmed)} sequences in window {window})",
    )


def check_relations(param_range: int = 5) -> CheckResult:
    """Walk all declared relation chains on all three models."""
    failures = []
    walk_count = 0
    for tag in VARIETY_TAGS:
        report = verify_mutation_relations(variety_model(tag), param_range)
        walk_count += len(report.walks)
        failures.extend(f"{tag}: {line}" for line in report.failures())
    return _result(
        "relations",
        failures,
        f"{walk_count} chain walks realized over parameter range {param_range}",
    )


def check_family_chains(tag: str, param_window: int = 10) -> CheckResult:
    """Chains after the trivial bundle inside the parameterized family B0.

    For members ``B0(t)`` the sequence ``(O, B0(t_1), ..., B0(t_k))`` is
    exceptional exactly when consecutive parameters step by 1 or 2 with at
    most one step of 2 overall -- concretely: any single member; pairs with
    ``t_2 - t_1`` in {1, 2}; triples with ``t_2 = t_1 + 1, t_3 = t_2 + 1``;
    and no chains of length 4.

    The pair verdicts come from one :func:`verdict_masks` call as integer
    rows, and the exceptional chains are the index chains that
    :func:`blowup_collections.sequences._chains` finds over the rows of
    certified ``ZERO`` pairs.  The pairs and triples inside
    ``[-param_window, param_window]`` are compared with the law, each
    mismatch becoming a failure line, pairs before triples and in ascending
    parameter order; then every length-4 chain that starts in the window is
    a failure line.
    """
    if tag not in ("point", "cubic"):
        raise ValueError("family-chain checks exist for the point and cubic models")
    _require_window(param_window)
    model = variety_model(tag)
    fam = family_by_label(tag, "B0")
    values = range(-param_window, param_window + 1)
    # Length-4 chains start inside the window and, if they obey the pair
    # law, climb by at most 2 per step, so members up to t = param_window + 6
    # are read.  Member t sits at bit t + param_window; row 0 is the trivial
    # class.
    members = [fam.member(t) for t in range(-param_window, param_window + 7)]
    succ, unk = verdict_masks(model, [ZERO_CLASS, *members], members)
    zero_rows = [ok & ~undecided for ok, undecided in zip(succ, unk)]
    in_window = (1 << len(values)) - 1
    windowed = [row & in_window for row in zero_rows]

    def chains(rows: list[int], length: int) -> list[tuple[int, ...]]:
        found = _chains(rows[1:], rows[0], length)
        return [tuple(j - param_window for j in chain) for chain in found]

    laws = (
        ("pair", 2, {(t, t + s) for t in values for s in (1, 2) if t + s in values}),
        ("triple", 3, {(t, t + 1, t + 2) for t in values if t + 2 in values}),
    )
    failures = []
    for kind, length, wanted in laws:
        mismatches = sorted(wanted.symmetric_difference(chains(windowed, length)))
        failures += [f"{kind} {ts}: expected {ts in wanted}" for ts in mismatches]
    failures += [
        f"length-4 chain {ts} should not be exceptional"
        for ts in chains(zero_rows, 4)
        if ts[0] in values
    ]
    return _result(
        f"family-chains-{tag}",
        failures,
        f"B0 chain laws hold over parameter window {param_window}",
    )


_EXPECTED_SOLUTIONS = (
    (0, 1, 2, 0, -3, 3),
    (0, 1, 2, 0, 3, 0),
    (1, -1, 2, -1, 4, -2),
    (7, -4, 2, -1, 4, -2),
)


def check_diophantine(window: int = 50) -> CheckResult:
    """Solve the system and audit the four solutions structurally."""
    model = variety_model("cubic")
    solutions = tuple(solve_claim_6_3(window))
    failures = []
    if solutions != _EXPECTED_SOLUTIONS:
        failures.append(
            f"solutions {solutions} differ from expected {_EXPECTED_SOLUTIONS}"
        )
    for sol in solutions:
        classes = [DivisorClass(sol[0], sol[1]), DivisorClass(sol[2], sol[3]),
                   DivisorClass(sol[4], sol[5])]
        for d in classes:
            if cubic_chi_cofactor(-d.a, -d.b) != 0:
                failures.append(f"solution {sol}: {d} misses the conic")
            # The key structural consequence: every dual is decided (it
            # falls in one of the sporadic cases), so no solution reaches
            # the undecided regions and no counterexample arises.
            if coh_zero(model, -d) is not _ZERO:
                failures.append(f"solution {sol}: dual of {d} is not decided-Zero")
    return _result(
        "diophantine",
        failures,
        f"{len(solutions)} ordered solutions in window {window}, "
        f"all duals decided",
    )


def check_augmentation() -> CheckResult:
    """Lift the standard length-4 collection at every legal pivot.

    Each lift must be a certified exceptional collection and match exactly
    one catalogue type, the expected one; the pivot-3 lift is pinned
    entrywise.
    """
    failures = []
    expected_types = {2: 5, 3: 4, 4: 9}
    pinned = Collection(
        "point",
        tuple(
            DivisorClass(a, b)
            for a, b in [(0, 2), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]
        ),
    )
    for pivot, want_index in expected_types.items():
        lifted = augment_point_blowup((0, 1, 2, 3), pivot)
        if pivot == 3 and lifted != pinned:
            failures.append(f"pivot 3 lift {lifted} differs from the pinned sequence")
        verdict = collection_verdict(lifted)
        if verdict is not _ZERO:
            failures.append(f"pivot {pivot}: lift is not certified ({verdict.value})")
        labels = matching_type_labels(lifted)
        if tuple(label.index for label in labels) != (want_index,):
            found = ", ".join(label.render() for label in labels) or "nothing"
            failures.append(
                f"pivot {pivot}: lift classifies as {found}, expected type ({want_index})"
            )
    return _result(
        "augmentation",
        failures,
        "all three pivots lift to certified catalogue collections",
    )


def run_check(
    token: str, window: Optional[int] = None, param_range: Optional[int] = None
) -> CheckResult:
    """Run one registered check by its CLI token.

    An override left at ``None`` keeps the check's own default, and one the
    check does not take is ignored, so ``verify all`` can hand the same
    overrides to every check.
    """
    if token not in _TOKENS:
        raise ValueError(
            f"unknown verification token {token!r}; expected one of "
            + ", ".join(VERIFY_TOKENS)
        )
    name, args, override = _TOKENS[token]
    value = {"window": window, "param_range": param_range}.get(override)
    if value is not None:
        args += (value,)
    return globals()[name](*args)


def run_checks(
    token: str, window: Optional[int] = None, param_range: Optional[int] = None
) -> Iterator[tuple[str, CheckResult]]:
    """Run one registered check, or every one for ``all``, in registry order.

    Yields ``(token, result)`` as each check finishes, so a caller can
    report a check before the next one starts.  ``all`` hands each
    override only to the checks that take it; a single token given an
    override its check does not take is rejected with ``ValueError``
    before any check runs.
    """
    tokens = VERIFY_TOKENS if token == "all" else (token,)
    if token in _TOKENS:
        takes = _TOKENS[token][2]
        for name, value in (("window", window), ("param_range", param_range)):
            if value is not None and name != takes:
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"verify {token} takes no {flag}")
    for name in tokens:
        yield name, run_check(name, window, param_range)
