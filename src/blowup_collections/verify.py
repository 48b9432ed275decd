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
:func:`blowup_collections.sequences._chains`.  The declared
mutation-relation chains between collection types are data here,
``_CHAINS``, and the ``relations`` check walks them itself, one right
helix rotation per step.

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
from operator import add
from typing import Callable, Iterator, NamedTuple, Optional

from .geometry import (
    VARIETY_TAGS,
    DivisorClass,
    VarietyModel,
    ZERO_CLASS,
    _divisor,
    cubic_chi_cofactor,
    euler_char_closed_row,
    euler_char_row,
    variety_model,
)
from .vanishing import (
    FAMILIES,
    LineBundleFamily,
    VanishingVerdict,
    _NONZERO,
    _UNKNOWN,
    _ZERO,
    _verdict_row,
    coh_zero,
    h0_vanishes,
    h3_vanishes,
)
from .sequences import (
    Collection,
    _chains,
    augment_point_blowup,
    collection_verdict,
    helix_rotate_right,
)
from .families import (
    TypeLabel,
    expected_instances,
    family_by_label,
    family_members,
    matching_type_labels,
    type_instance,
)
from .enumeration import enumerate_collections, verdict_masks
from .tables import TableVerificationError, pair_table
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
    tag: str, window: int, route: Callable[[VarietyModel, int, range], list[int]]
) -> tuple[int, ...]:
    """``route(model, a, bs)`` over the window's rows, in grid order.

    Class ``(a, b)`` sits at index ``(a + W)*(2W + 1) + (b + W)`` for
    ``W = window``.  Each ``a`` is one row call with ``bs`` the window's
    span, so a table takes 2W + 1 calls.  The grid checks pass their module
    bindings ``euler_char_row`` and ``euler_char_closed_row`` as ``route``,
    so one table per model, window and route serves all four, and a patched
    or traced route is keyed apart and gets a table of its own instead of
    a stale one.
    """
    _require_window(window)
    model = variety_model(tag)
    span = range(-window, window + 1)
    table: list[int] = []
    for a in span:
        table += route(model, a, span)
    return tuple(table)


def _case_stamps(
    model: VarietyModel, window: int
) -> dict[tuple[int, int], LineBundleFamily]:
    # Each family stamped on its negated members inside the box; the
    # negated families are disjoint, so no class is stamped twice.
    return {
        (-a, -b): fam
        for fam, group in zip(FAMILIES[model.tag], family_members(model, window))
        for _, (a, b) in group
        if -window <= a <= window and -window <= b <= window
    }


def _check_vanishing(tag: str, window: int) -> CheckResult:
    """The vanishing classification of one model, checked class by class.

    Each class of the window must keep two rules, and each broken rule is
    one failure line naming the class, its verdict and the expected one:

    * case line: ``Zero`` in a decided case, ``Unknown`` in an undecided
      one, ``Nonzero`` outside every case;
    * witness line: anything but ``Nonzero`` exactly when ``chi = 0`` and
      there are no sections either way (``h0_vanishes`` and
      ``h3_vanishes``), with ``chi`` read from the model's
      :func:`_chi_table`.  Those conditions are necessary for ``Zero`` or
      ``Unknown`` on every model, and sufficient for ``Zero`` on the point
      and line models, where ``H^1`` and ``H^2`` cannot both be nonzero.

    The expected family of a class, like the oracle's case lookup, is the
    family whose negation contains it, stamped from the members of the
    candidate families (:func:`families.family_members`) inside the box.
    The decided families' members come from their bases and directions,
    so for them the case line checks the oracle's compiled case equations
    against the families themselves.  The conic members come from the
    Diophantine solve along ``b``, the oracle's conic from its solve along
    ``a``, so a conic region dropped or solved wrongly shows on the case
    line too; only the two regions' inequalities are shared.

    The verdicts are read a row at a time, one ``_verdict_row`` call per
    ``a``: the rule behind the memo of ``coh_zero``, which solves each case
    once per row, so the check fills no memo entry.  Only three kinds of
    class are visited, in grid order: the stamped ones, those whose verdict
    is not ``Nonzero``, and those with ``chi = 0``.  Every other class
    expects ``Nonzero`` from both lines and has it, so it can break
    neither; the visits also give the ``Zero`` and ``Unknown`` counts.  A
    case-line failure names the stamped family ``B(k-1)`` as the paper's
    case ``k``, a number computed only there.
    """
    model = variety_model(tag)
    chi = _chi_table(tag, window, euler_char_row)
    span = range(-window, window + 1)
    verdicts: list[VanishingVerdict] = []
    for a in span:
        verdicts += _verdict_row(tag, a, span)
    stamps, families = _case_stamps(model, window), FAMILIES[tag]
    side = 2 * window + 1
    visit = {(a + window) * side + b + window for a, b in stamps}
    visit.update([i for i, verdict in enumerate(verdicts) if verdict is not _NONZERO])
    visit.update([i for i, chi_d in enumerate(chi) if chi_d == 0])
    failures = []
    zero_count = unknown_count = 0
    for i in sorted(visit):
        ab = (i // side - window, i % side - window)
        d, verdict, chi_d, fam = _divisor(ab), verdicts[i], chi[i], stamps.get(ab)
        zero_count += verdict is _ZERO
        unknown_count += verdict is _UNKNOWN
        want = _NONZERO if fam is None else _UNKNOWN if fam.kind == "undecided" else _ZERO
        if verdict is not want:
            where = "no case" if fam is None else f"case {families.index(fam) + 1}"
            failures.append(
                f"{d}: verdict {verdict.value}, case table expects "
                f"{want.value} ({where})"
            )
        trivial = chi_d == 0 and h0_vanishes(model, d) and h3_vanishes(model, d)
        if (verdict is _NONZERO) == trivial:
            witness = "Zero or Unknown" if verdict is _NONZERO else "Nonzero"
            failures.append(
                f"{d}: verdict {verdict.value}, sections and chi expect {witness}"
            )
    if any(fam.kind == "undecided" for fam in families):
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


def _serre_duals(model: VarietyModel, chi: tuple[int, ...], window: int) -> list[int]:
    """``chi(K - d)`` for each class ``d`` of the window, in grid order.

    ``chi`` is the model's :func:`_chi_table`.  The duals of row ``a`` lie
    on row ``ka - a``, with ``b`` descending, so their part inside the
    window is that row's slice of ``chi``, reversed; a part outside is
    evaluated by one ``euler_char_row`` call.
    """
    side = 2 * window + 1
    ka, kb = model.canonical
    top, bottom = kb + window, kb - window  # the dual b of b = -W and of b = W
    above = range(top, max(window, bottom - 1), -1)
    below = range(min(-window - 1, top), bottom - 1, -1)
    duals: list[int] = []
    for a in range(-window, window + 1):
        da = ka - a
        if abs(da) > window:
            duals += euler_char_row(model, da, range(top, bottom - 1, -1))
            continue
        start = (da + window) * side + window
        if above:
            duals += euler_char_row(model, da, above)
        duals += chi[start + max(bottom, -window) : start + min(top, window) + 1][::-1]
        if below:
            duals += euler_char_row(model, da, below)
    return duals


def check_chi_agreement(window: int = 30) -> CheckResult:
    """Riemann-Roch expansion vs closed form, plus duality sanity.

    Per model, both routes' values come from :func:`_chi_table`, the
    expansion's being the table the vanishing checks read too, and one
    tuple ``==`` compares them.  Serre antisymmetry is checked against
    :func:`_serre_duals`, which reads the duals inside the window from the
    same table and evaluates only those outside it, one row call each.
    The classes are walked one by one only to write the failure lines:
    the trivial-class line first, then per class the expansion line before
    the Serre line.
    """
    side = 2 * window + 1
    failures = []
    for tag in VARIETY_TAGS:
        model = variety_model(tag)
        chi = _chi_table(tag, window, euler_char_row)
        closed = _chi_table(tag, window, euler_char_closed_row)
        if chi[window * side + window] != 1:
            failures.append(f"{tag}: chi of the trivial class is not 1")
        duals = _serre_duals(model, chi, window)
        if chi == closed and not any(map(add, chi, duals)):
            continue
        for d, expanded, closed_d, dual_chi in zip(_pairs(window), chi, closed, duals):
            if expanded != closed_d:
                failures.append(
                    f"{tag} {_divisor(d)}: expansion {expanded} != closed {closed_d}"
                )
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


def _sporadic(*indices: int):
    return lambda: tuple((index, ()) for index in indices)


# The declared mutation relations between collection types.  Per model:
# (chain name, parameter names, nodes), where ``nodes(*values)`` gives the
# ``(type index, params)`` of every node in walking order, and each node is
# one right helix rotation of the one before.  A cycle lists its start again
# as its last node, so it closes exactly when its last step is realized.
# The cubic parameterized cycle composes the declared three-step relation
# ``(13)_b -> (14)_{b-1} -> (15)_{b-2} -> (13)_{5-b}`` with itself.
_CHAINS = {
    "point": (
        ("sporadic-rotation-cycle", (), _sporadic(4, 5, 6, 7, 8, 9, 4)),
        ("parameterized-rotation-cycle", ("a",), lambda a: (
            (1, (a,)), (2, (a - 1,)), (3, (a - 2,)),
            (1, (4 - a,)), (2, (3 - a,)), (3, (2 - a,)), (1, (a,)),
        )),
    ),
    "line": (
        ("two-step-descent", ("a", "b"), lambda a, b: (
            (1, (a, b)), (2, (b - a, 3 - a)), (1, (b - a - 1, 2 - a)),
        )),
    ),
    "cubic": (
        ("sporadic-rotation-cycle-one", (), _sporadic(1, 2, 3, 4, 5, 6, 1)),
        ("sporadic-rotation-cycle-two", (), _sporadic(7, 8, 9, 10, 11, 12, 7)),
        ("parameterized-rotation-cycle", ("b",), lambda b: (
            (13, (b,)), (14, (b - 1,)), (15, (b - 2,)),
            (13, (5 - b,)), (14, (4 - b,)), (15, (3 - b,)), (13, (b,)),
        )),
    ),
}


def check_relations(param_range: int = 5) -> CheckResult:
    """Walk every declared chain of :data:`_CHAINS` on all three models.

    A chain with free parameters is walked at each point of the grid
    ``[-param_range, param_range]`` per parameter, and ``param_range``
    must be at least 3.  A walk builds its start instance and rotates it
    right once per step; it stops at the first step that misses its
    declared instance, which is one failure line.
    """
    if param_range < 3:
        raise ValueError("relation verification needs a parameter range of at least 3")
    values = range(-param_range, param_range + 1)
    walks = [
        (tag, chain, tuple(zip(names, point)), nodes(*point))
        for tag in VARIETY_TAGS
        for chain, names, nodes in _CHAINS[tag]
        for point in product(values, repeat=len(names))
    ]
    failures = []
    for tag, chain, assignment, ((index, params), *steps) in walks:
        current = type_instance(tag, index, params)
        for index, params in steps:
            current = helix_rotate_right(current)
            if current != type_instance(tag, index, params):
                assign = ", ".join(f"{k}={v}" for k, v in assignment) or "-"
                failures.append(
                    f"{tag}: {chain} [{assign}]: one right rotation does not reach "
                    f"{TypeLabel(tag, index, params).render()}"
                )
                break
    return _result(
        "relations",
        failures,
        f"{len(walks)} chain walks realized over parameter range {param_range}",
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


# Each legal pivot with the index of the one type its lift must match.
_AUGMENTATION_PIVOTS = ((2, 5), (3, 4), (4, 9))


def check_augmentation() -> CheckResult:
    """Lift the standard length-4 collection at every legal pivot.

    Each lift must be a certified exceptional collection and match exactly
    one catalogue type, the expected one; the pivot-3 lift is pinned
    entrywise.
    """
    failures = []
    pinned = Collection(
        "point",
        tuple(
            DivisorClass(a, b)
            for a, b in [(0, 2), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]
        ),
    )
    for pivot, want_index in _AUGMENTATION_PIVOTS:
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
