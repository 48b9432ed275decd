"""Unit behaviour of the named end-to-end checks and their registry."""

from collections import Counter
from itertools import product

import pytest

from blowup_collections import enumeration, vanishing, verify
from blowup_collections.families import TypeLabel, expected_instances, family_by_label
from blowup_collections.geometry import (
    VARIETY_TAGS,
    ZERO_CLASS,
    DivisorClass,
    VarietyModel,
    euler_char,
    euler_char_row,
    serre_dual,
    variety_model,
)
from blowup_collections.sequences import Collection, augment_point_blowup, make_collection
from blowup_collections.vanishing import (
    VanishingVerdict,
    _case_row,
    h0_vanishes,
    h3_vanishes,
)
from blowup_collections.verify import CheckResult, VERIFY_TOKENS, run_check, run_checks


def test_token_registry_frozen():
    # Also the order in which `verify all` prints its status lines.
    assert VERIFY_TOKENS == (
        "claim4.5", "claim6.2", "claim6.3", "prop4.3", "prop5.5", "prop6.4",
        "relations", "tables", "thm4.4", "thm5.6", "thm6.5",
        "chi-agreement", "augmentation",
    )


def test_run_check_rejects_unknown_token():
    with pytest.raises(ValueError, match="claim4.5"):
        run_check("prop9.9", None, None)


def test_run_check_accepts_window_override():
    result = run_check("prop5.5", 20, None)
    assert result.ok
    assert "window 20" in result.summary


def test_run_check_accepts_param_range_override():
    result = run_check("relations", None, 4)
    assert result.ok
    assert "parameter range 4" in result.summary


def test_run_check_passes_only_the_given_override(monkeypatch):
    # The check is called through the module binding, and an override left
    # at None is not passed, so the check's own default applies.
    calls = []

    def fake(*args):
        calls.append(args)
        return CheckResult("enumeration-line", True, "fake")

    monkeypatch.setattr(verify, "check_enumeration", fake)
    assert run_check("thm5.6", None, 7).summary == "fake"
    run_check("thm5.6", 9, None)
    assert calls == [("line",), ("line", 9)]


def test_run_checks_rejects_an_override_first_and_expands_all(monkeypatch):
    calls = []

    def fake(name):
        def check(*args):
            calls.append(name)
            return CheckResult(name, True, "fake")
        return check

    for name in {entry[0] for entry in verify._TOKENS.values()}:
        monkeypatch.setattr(verify, name, fake(name))
    with pytest.raises(ValueError, match="^verify augmentation takes no --window$"):
        next(run_checks("augmentation", window=3))
    assert calls == []
    ran = list(run_checks("all", window=3, param_range=2))
    assert [token for token, _ in ran] == list(VERIFY_TOKENS)
    assert all(result.summary == "fake" for _, result in ran)
    assert len(calls) == len(VERIFY_TOKENS)


@pytest.mark.parametrize("window", [10, 11, 12])
@pytest.mark.parametrize("token,tag", [("thm4.4", "point"), ("thm5.6", "line"), ("thm6.5", "cubic")])
def test_enumeration_check_counts_the_catalogue_instances(token, tag, window):
    # One census row: the check passes only with nothing unmatched.
    result = verify.run_check(token, window=window)
    expected = len(expected_instances(variety_model(tag), window))
    assert result.ok, result.details
    assert result.summary.endswith(f"({expected} sequences in window {window})")


def test_status_line_formats():
    good = CheckResult(name="demo", ok=True, summary="fine", details=())
    bad = CheckResult(name="demo", ok=False, summary="broken", details=("why",))
    assert good.status_line() == "[PASS] demo: fine"
    assert bad.status_line() == "[FAIL] demo: broken"


def _patch_b0_steps(monkeypatch, tag, steps, verdict):
    """Make ``O(B0(t) - B0(t + s))`` read ``verdict`` for every ``s`` in ``steps``."""
    fam = family_by_label(tag, "B0")
    _patch_classes(monkeypatch, tag, {fam.member(0) - fam.member(s) for s in steps}, verdict)


def _patch_classes(monkeypatch, tag, patched, verdict):
    """Make every class in ``patched`` read ``verdict`` on the ``tag`` model."""
    real = enumeration._cached_verdict

    def oracle(t, a, b):
        return verdict if t == tag and (a, b) in patched else real(t, a, b)

    monkeypatch.setattr(enumeration, "_cached_verdict", oracle)


@pytest.mark.parametrize("tag", ["point", "cubic"])
def test_family_chains_fail_when_a_pair_verdict_breaks(monkeypatch, tag):
    _patch_b0_steps(monkeypatch, tag, (2,), VanishingVerdict.NONZERO)
    result = verify.check_family_chains(tag, 4)
    assert not result.ok
    assert "pair (-4, -2): expected True" in result.details


@pytest.mark.parametrize("tag", ["point", "cubic"])
def test_family_chain_length_four_scan_reaches_t1_plus_6(monkeypatch, tag):
    # With steps 3..6 reading ZERO, the all-2-steps chain from the top of
    # the window is exceptional; it is caught only if the scan reads the
    # member at t = window + 6 from the shared verdict matrix.
    _patch_b0_steps(monkeypatch, tag, range(3, 7), VanishingVerdict.ZERO)

    def no_fallback(*args):
        raise AssertionError("chain checks must read the verdict matrix")

    monkeypatch.setattr(verify, "collection_verdict", no_fallback)
    result = verify.check_family_chains(tag, 4)
    assert "length-4 chain (4, 6, 8, 10) should not be exceptional" in result.details


def _reference_chain_lines(tag, param_window):
    """The B0 chain laws as plain loops over the chains, one oracle call per pair."""
    fam = family_by_label(tag, "B0")

    def zero(earlier, later):
        a, b = earlier - later
        return enumeration._cached_verdict(tag, a, b) is VanishingVerdict.ZERO

    def exceptional(ts):
        chain = [ZERO_CLASS, *map(fam.member, ts)]
        return all(zero(chain[j], chain[i]) for i in range(len(chain)) for j in range(i))

    def length_four(ts, reach):
        """Every exceptional length-4 chain extending the exceptional chain ``ts``."""
        if len(ts) == 4:
            return [ts]
        chain = [ZERO_CLASS, *map(fam.member, ts)]
        return [
            found
            for t in reach
            if all(zero(earlier, fam.member(t)) for earlier in chain)
            for found in length_four((*ts, t), range(-param_window, param_window + 7))
        ]

    values = range(-param_window, param_window + 1)
    lines = []
    for t1, t2 in product(values, repeat=2):
        if exceptional((t1, t2)) != (t2 - t1 in (1, 2)):
            lines.append(f"pair ({t1}, {t2}): expected {t2 - t1 in (1, 2)}")
    for t1, t2, t3 in product(values, repeat=3):
        expected = t2 == t1 + 1 and t3 == t2 + 1
        if exceptional((t1, t2, t3)) != expected:
            lines.append(f"triple ({t1}, {t2}, {t3}): expected {expected}")
    for ts in length_four((), values):
        lines.append(f"length-4 chain {ts} should not be exceptional")
    return lines


# Each case patches some pair verdicts: (B0 steps or trivial-row members,
# the verdict they read).  The first case leaves the real verdicts.
_CHAIN_PATCHES = {
    "real": [],
    "step-2-refuted": [("steps", (2,), VanishingVerdict.NONZERO)],
    "step-1-undecided": [("steps", (1,), VanishingVerdict.UNKNOWN)],
    "step-3-vanishes": [("steps", (3,), VanishingVerdict.ZERO)],
    "steps-3-to-6-vanish": [("steps", range(3, 7), VanishingVerdict.ZERO)],
    "trivial-row-breaks": [
        ("members", (-1, 2), VanishingVerdict.NONZERO),
        ("steps", (4,), VanishingVerdict.ZERO),
    ],
}


@pytest.mark.parametrize("case", list(_CHAIN_PATCHES))
@pytest.mark.parametrize("tag", ["point", "cubic"])
def test_family_chain_scan_matches_a_plain_triple_loop(monkeypatch, tag, case):
    fam = family_by_label(tag, "B0")
    for kind, values, verdict in _CHAIN_PATCHES[case]:
        if kind == "steps":
            _patch_b0_steps(monkeypatch, tag, values, verdict)
        else:
            _patch_classes(monkeypatch, tag, {-fam.member(t) for t in values}, verdict)
    for window in (*range(7), 10):
        result = verify.check_family_chains(tag, window)
        assert list(result.details) == _reference_chain_lines(tag, window), window
    assert result.ok == (case == "real")


def test_enumeration_check_reports_missing_extra_and_mislabelled(monkeypatch):
    # Doctor the classification side: one instance the search cannot find,
    # one real instance dropped, and one real instance given a wrong label.
    real = verify.expected_instances

    def doctored(model, window):
        instances = real(model, window)
        (first, first_label), _, (third, _) = instances[:3]
        ghost = make_collection("point", [(0, 0), (99, 0)])
        return [
            (ghost, TypeLabel("point", 1, (99,))),
            (first, first_label),
            (third, first_label),
            *instances[3:],
        ]

    monkeypatch.setattr(verify, "expected_instances", doctored)
    result = verify.check_enumeration("point", 10)
    assert not result.ok
    assert result.summary.endswith("(60 sequences in window 10); 3 failure(s)")
    assert result.details == (
        "missing instance (1)[a=99]: [0, 99H]",
        "extra sequence beyond the classification: "
        "[0, H-E, 2H-2E, -8H+9E, -7H+8E, -6H+7E]",
        "[0, H-E, 2H-2E, -7H+8E, -6H+7E, -5H+6E]: "
        "classified (1)[a=-7], expected (1)[a=-9]",
    )


def test_enumeration_check_reports_leftovers_and_the_type_count(monkeypatch):
    real_search, real_expected = verify.enumerate_collections, verify.expected_instances
    odd = make_collection("point", [(0, 0), (5, 5)])

    def leftovers(model, window):
        return real_search(model, window)._replace(undetermined=(odd,), unmatched=(odd,))

    monkeypatch.setattr(verify, "enumerate_collections", leftovers)
    assert verify.check_enumeration("point", 10).details == (
        "undetermined sequence: [0, 5H+5E]",
        "confirmed but unmatched sequence: [0, 5H+5E]",
    )

    def type_one_only(model, window):
        report = real_search(model, window)
        return report._replace(
            confirmed=tuple(pair for pair in report.confirmed if pair[1].index == 1)
        )

    monkeypatch.setattr(verify, "enumerate_collections", type_one_only)
    monkeypatch.setattr(
        verify, "expected_instances",
        lambda model, window: [p for p in real_expected(model, window) if p[1].index == 1],
    )
    assert verify.check_enumeration("point", 10).details == ("expected 9 types, found (1,)",)


def _patch_verify_oracle(monkeypatch, verdicts):
    """Make the verdict rows ``verify`` reads give ``verdicts[(a, b)]`` where given."""
    real = verify._verdict_row

    def rows(tag, a, bs):
        row = real(tag, a, bs)
        return [verdicts.get((a, b), verdict) for b, verdict in zip(bs, row)]

    monkeypatch.setattr(verify, "_verdict_row", rows)


def test_decided_vanishing_check_reports_each_failure_line(monkeypatch):
    _patch_verify_oracle(monkeypatch, {
        (0, 0): VanishingVerdict.UNKNOWN,
        (1, 0): VanishingVerdict.ZERO,
    })
    result = verify.check_point_vanishing(2)
    assert result.summary == (
        "9 vanishing classes in window 2, two derivation routes agree; 4 failure(s)"
    )
    assert result.details == (
        "0: verdict Unknown, case table expects Nonzero (no case)",
        "0: verdict Unknown, sections and chi expect Nonzero",
        "H: verdict Zero, case table expects Nonzero (no case)",
        "H: verdict Zero, sections and chi expect Nonzero",
    )


def test_cubic_vanishing_check_reports_each_failure_line(monkeypatch):
    _patch_verify_oracle(monkeypatch, {
        (-1, 1): VanishingVerdict.NONZERO,
        (0, 0): VanishingVerdict.ZERO,
        (1, 0): VanishingVerdict.UNKNOWN,
    })
    result = verify.check_cubic_vanishing(1)
    assert result.summary == (
        "window 1: 4 confirmed, 1 undecided, 4 refuted; 6 failure(s)"
    )
    assert result.details == (
        "-H+E: verdict Nonzero, case table expects Zero (case 2)",
        "-H+E: verdict Nonzero, sections and chi expect Zero or Unknown",
        "0: verdict Zero, case table expects Nonzero (no case)",
        "0: verdict Zero, sections and chi expect Nonzero",
        "H: verdict Unknown, case table expects Nonzero (no case)",
        "H: verdict Unknown, sections and chi expect Nonzero",
    )


@pytest.mark.parametrize("window,pair,verdict", [
    (1, (0, -1), VanishingVerdict.UNKNOWN),  # decided case 8
    (23, (-23, 15), VanishingVerdict.ZERO),  # conic region, case 10
])
def test_cubic_vanishing_check_sees_a_zero_unknown_swap(monkeypatch, window, pair, verdict):
    # The class passes the section and chi conditions either way, so the
    # witness line cannot see the swap: the case line is its only report.
    d = DivisorClass(*pair)
    cubic = variety_model("cubic")
    assert euler_char(cubic, d) == 0 and h0_vanishes(cubic, d) and h3_vanishes(cubic, d)
    _patch_verify_oracle(monkeypatch, {pair: verdict})
    result = verify.check_cubic_vanishing(window)
    assert not result.ok
    assert [line.split(": ")[0] for line in result.details] == [str(d)]


def test_cubic_vanishing_check_catches_a_miscompiled_case(monkeypatch):
    # The compiled table moves the decided class -H+E into the conic case
    # 10 (family B9 negated), so the oracle answers Unknown there.  The
    # expected family is stamped from the families themselves, so the case
    # line reports it, and only it: -H+E still has chi = 0 and no sections
    # either way.
    lines, sporadic, regions = vanishing._CASES["cubic"]
    assert sporadic[-1, 1] is family_by_label("cubic", "B1")
    monkeypatch.setitem(
        vanishing._CASES,
        "cubic",
        (lines, {**sporadic, (-1, 1): vanishing.FAMILIES["cubic"][9]}, regions),
    )
    vanishing._cached_verdict.cache_clear()
    try:
        result = verify.check_cubic_vanishing(5)
    finally:
        vanishing._cached_verdict.cache_clear()
    assert result.details == (
        "-H+E: verdict Unknown, case table expects Zero (case 2)",
    )


def test_cubic_vanishing_check_numbers_the_conic_cases(monkeypatch):
    # A failure line prints the paper's case k of the stamped family B(k-1);
    # both undecided families are numbered, B9 as case 10 and B10 as 11.
    _patch_verify_oracle(monkeypatch, {
        (-23, 15): VanishingVerdict.ZERO,
        (19, -14): VanishingVerdict.ZERO,
    })
    assert verify.check_cubic_vanishing(23).details == (
        "-23H+15E: verdict Zero, case table expects Unknown (case 10)",
        "19H-14E: verdict Zero, case table expects Unknown (case 11)",
    )


@pytest.mark.parametrize("case,pair", [(10, (-23, 15)), (11, (19, -14))])
def test_cubic_vanishing_check_sees_a_dropped_conic_region(monkeypatch, case, pair):
    # With one conic region gone from the compiled table, the oracle answers
    # Nonzero on its class.  The family members still come from the
    # Diophantine solve, so the case line reports the class as well as the
    # witness line.
    lines, sporadic, regions = vanishing._CASES["cubic"]
    kept = [(sign, fam) for sign, fam in regions if fam.label != f"B{case - 1}"]
    assert len(kept) == 1
    monkeypatch.setitem(vanishing._CASES, "cubic", (lines, sporadic, kept))
    vanishing._cached_verdict.cache_clear()
    try:
        details = verify.check_cubic_vanishing(23).details
    finally:
        vanishing._cached_verdict.cache_clear()
    d = DivisorClass(*pair)
    assert details == (
        f"{d}: verdict Nonzero, case table expects Unknown (case {case})",
        f"{d}: verdict Nonzero, sections and chi expect Zero or Unknown",
    )


@pytest.mark.parametrize("tag", VARIETY_TAGS)
def test_case_stamps_match_the_case_lookup(tag):
    model = variety_model(tag)
    for window in (0, 1, 2, 15, 30, 100):
        span = range(-window, window + 1)
        wanted = {
            (a, b): case
            for a in span
            for b, case in zip(span, _case_row(tag, a, span))
            if case is not None
        }
        assert verify._case_stamps(model, window) == wanted, window


def test_point_vanishing_check_reports_a_nonzero_verdict_in_a_case(monkeypatch):
    _patch_verify_oracle(monkeypatch, {(-1, 1): VanishingVerdict.NONZERO})
    details = verify.check_point_vanishing(2).details
    assert "-H+E: verdict Nonzero, case table expects Zero (case 2)" in details


@pytest.mark.parametrize("case", ["trivial", "expansion", "dual outside"])
def test_chi_agreement_check_reports_each_failure_line(monkeypatch, case):
    # Each case offsets one route at one (model, class); the details name
    # every consequence in order: the trivial-class line first, then per
    # grid class the expansion line before the Serre line.
    window, offsets, closed_offsets, wanted = {
        # chi(0) = 2 on the point model, on both routes.  K = -4H+2E sees
        # the wrong value as its dual's, and 0 sees it as its own.
        "trivial": (5, {("point", 0, 0): 1}, {("point", 0, 0): 1}, (
            "point: chi of the trivial class is not 1",
            "point -4H+2E: Serre antisymmetry fails",
            "point 0: Serre antisymmetry fails",
        )),
        # The expansion is off by one at 2H-E on the cubic model, whose
        # dual -6H+2E lies inside window 6.
        "expansion": (6, {("cubic", 2, -1): 1}, {}, (
            "cubic -6H+2E: Serre antisymmetry fails",
            "cubic 2H-E: expansion 4 != closed 3",
            "cubic 2H-E: Serre antisymmetry fails",
        )),
        # The dual of 30H+30E is -34H-28E, outside window 30: its chi must
        # still be evaluated, or the broken value would go unseen.
        "dual outside": (30, {("point", -34, -28): 1}, {}, (
            "point 30H+30E: Serre antisymmetry fails",
        )),
    }[case]
    _patch_routes(monkeypatch, offsets, closed_offsets)
    result = verify.check_chi_agreement(window)
    assert result.summary == (
        f"both chi routes and Serre antisymmetry agree on window {window} for all "
        f"three models; {len(wanted)} failure(s)"
    )
    assert result.details == wanted


def _offset_row(route, offsets):
    """The row route ``route`` with ``offsets[(tag, a, b)]`` added where given."""
    def row(model, a, bs):
        values = route(model, a, bs)
        return [v + offsets.get((model.tag, a, b), 0) for b, v in zip(bs, values)]
    return row


def _patch_routes(monkeypatch, offsets, closed_offsets=None):
    """Offset ``verify``'s two row routes by ``offsets[(tag, a, b)]`` where given."""
    routes = (("euler_char_row", offsets), ("euler_char_closed_row", closed_offsets or {}))
    for name, table in routes:
        monkeypatch.setattr(verify, name, _offset_row(getattr(verify, name), table))


def _window_4_faults():
    """Expansion offsets, closed-form offsets and verdicts on all three models.

    On each model the expansion is off in the first row twice: at a class
    with chi = 0 and a Zero verdict whose dual lies inside the window, and
    at -4H+4E, which has no sections either way, so that its chi reads 0.
    It is off in the last row, at the dual of -2H-4E, which lies outside
    the window in the b direction only, and at -H+E, whose Zero verdict
    becomes Nonzero, so that only the case line sees it.  The closed form
    is off in the first and last rows.  The verdicts change in the first
    and last rows too, and -3H's Zero becomes Unknown.
    """
    offsets, closed_offsets = {}, {}
    for tag in VARIETY_TAGS:
        kb = variety_model(tag).canonical.b
        zero = (-4, 3) if tag == "point" else (-4, 2)
        sectionless = {"point": -3, "line": 3, "cubic": 35}[tag]
        offsets.update({
            (tag, *zero): 1, (tag, -4, 4): sectionless, (tag, 4, 4): -1,
            (tag, -2, kb + 4): 1, (tag, -1, 1): 1,
        })
        closed_offsets.update({(tag, 4, -4): 1, (tag, -4, -4): 2})
    verdicts = {
        (-4, -4): VanishingVerdict.UNKNOWN,
        (4, 4): VanishingVerdict.ZERO,
        (-3, 0): VanishingVerdict.UNKNOWN,
        (-1, 1): VanishingVerdict.NONZERO,
    }
    return offsets, closed_offsets, verdicts


# The failure lines of the window-4 faults, recorded with the per-class
# routes the row routes replaced: the same lines in the same order.
_WINDOW_4_DETAILS = {
    "chi-agreement": (
        "point -4H-4E: expansion -21 != closed -19",
        "point -4H+3E: expansion 1 != closed 0",
        "point -4H+3E: Serre antisymmetry fails",
        "point -4H+4E: expansion 0 != closed 3",
        "point -4H+4E: Serre antisymmetry fails",
        "point -3H+E: Serre antisymmetry fails",
        "point -2H-4E: Serre antisymmetry fails",
        "point -H+E: expansion 1 != closed 0",
        "point -H+E: Serre antisymmetry fails",
        "point -2E: Serre antisymmetry fails",
        "point -E: Serre antisymmetry fails",
        "point 4H-4E: expansion 15 != closed 16",
        "point 4H+4E: expansion 38 != closed 39",
        "point 4H+4E: Serre antisymmetry fails",
        "line -4H-4E: expansion 49 != closed 51",
        "line -4H+2E: expansion 1 != closed 0",
        "line -4H+2E: Serre antisymmetry fails",
        "line -4H+4E: expansion 0 != closed -3",
        "line -4H+4E: Serre antisymmetry fails",
        "line -3H: Serre antisymmetry fails",
        "line -2H-4E: Serre antisymmetry fails",
        "line -H+E: expansion 1 != closed 0",
        "line -H+E: Serre antisymmetry fails",
        "line -3E: Serre antisymmetry fails",
        "line -E: Serre antisymmetry fails",
        "line 4H-4E: expansion 5 != closed 6",
        "line 4H+4E: expansion -16 != closed -15",
        "line 4H+4E: Serre antisymmetry fails",
        "cubic -4H-4E: expansion 209 != closed 211",
        "cubic -4H+2E: expansion 1 != closed 0",
        "cubic -4H+2E: Serre antisymmetry fails",
        "cubic -4H+4E: expansion 0 != closed -35",
        "cubic -4H+4E: Serre antisymmetry fails",
        "cubic -3H: Serre antisymmetry fails",
        "cubic -2H-4E: Serre antisymmetry fails",
        "cubic -H+E: expansion 1 != closed 0",
        "cubic -H+E: Serre antisymmetry fails",
        "cubic -3E: Serre antisymmetry fails",
        "cubic -E: Serre antisymmetry fails",
        "cubic 4H-4E: expansion 5 != closed 6",
        "cubic 4H+4E: expansion -144 != closed -143",
        "cubic 4H+4E: Serre antisymmetry fails",
    ),
    "vanishing-point": (
        "-4H-4E: verdict Unknown, case table expects Nonzero (no case)",
        "-4H-4E: verdict Unknown, sections and chi expect Nonzero",
        "-4H+3E: verdict Zero, sections and chi expect Nonzero",
        "-4H+4E: verdict Nonzero, sections and chi expect Zero or Unknown",
        "-3H: verdict Unknown, case table expects Zero (case 6)",
        "-H+E: verdict Nonzero, case table expects Zero (case 2)",
        "4H+4E: verdict Zero, case table expects Nonzero (no case)",
        "4H+4E: verdict Zero, sections and chi expect Nonzero",
    ),
    "vanishing-line": (
        "-4H-4E: verdict Unknown, case table expects Nonzero (no case)",
        "-4H-4E: verdict Unknown, sections and chi expect Nonzero",
        "-4H+2E: verdict Zero, sections and chi expect Nonzero",
        "-4H+4E: verdict Nonzero, sections and chi expect Zero or Unknown",
        "-3H: verdict Unknown, case table expects Zero (case 4)",
        "-H+E: verdict Nonzero, case table expects Zero (case 3)",
        "4H+4E: verdict Zero, case table expects Nonzero (no case)",
        "4H+4E: verdict Zero, sections and chi expect Nonzero",
    ),
    "vanishing-cubic": (
        "-4H-4E: verdict Unknown, case table expects Nonzero (no case)",
        "-4H-4E: verdict Unknown, sections and chi expect Nonzero",
        "-4H+2E: verdict Zero, sections and chi expect Nonzero",
        "-4H+4E: verdict Nonzero, sections and chi expect Zero or Unknown",
        "-3H: verdict Unknown, case table expects Zero (case 5)",
        "-H+E: verdict Nonzero, case table expects Zero (case 2)",
        "4H+4E: verdict Zero, case table expects Nonzero (no case)",
        "4H+4E: verdict Zero, sections and chi expect Nonzero",
    ),
}


def test_window_4_faults_give_the_pinned_lines_in_grid_order(monkeypatch):
    offsets, closed_offsets, verdicts = _window_4_faults()
    _patch_routes(monkeypatch, offsets, closed_offsets)
    _patch_verify_oracle(monkeypatch, verdicts)
    results = [
        verify.check_chi_agreement(4),
        verify.check_point_vanishing(4),
        verify.check_line_vanishing(4),
        verify.check_cubic_vanishing(4),
    ]
    assert {result.name: result.details for result in results} == _WINDOW_4_DETAILS
    assert [result.summary for result in results] == [
        "both chi routes and Serre antisymmetry agree on window 4 for all three "
        "models; 42 failure(s)",
        "13 vanishing classes in window 4, two derivation routes agree; 8 failure(s)",
        "16 vanishing classes in window 4, two derivation routes agree; 8 failure(s)",
        "window 4: 10 confirmed, 2 undecided, 69 refuted; 8 failure(s)",
    ]


def _counting(route, calls, classes):
    """``route`` counting its row calls and the classes they evaluate, per model."""
    def counted(model, a, bs):
        calls[model.tag] += 1
        classes[model.tag] += len(bs)
        return route(model, a, bs)
    return counted


def test_chi_agreement_builds_only_the_duals_outside_the_window(monkeypatch):
    # A dual inside the window is read from the chi table; the 960 outside
    # window 30 are evaluated again, one row call per row of the grid.
    span, real, outside = range(-30, 31), verify.euler_char_row, Counter()

    def counted(model, a, bs):
        if bs != span:
            assert all(max(abs(a), abs(b)) > 30 for b in bs)
            outside[model.tag, "calls"] += 1
            outside[model.tag, "classes"] += len(bs)
        return real(model, a, bs)

    monkeypatch.setattr(verify, "euler_char_row", counted)
    assert verify.check_chi_agreement(30).ok
    assert outside == {
        ("point", "calls"): 61, ("point", "classes"): 358,
        ("line", "calls"): 61, ("line", "classes"): 301,
        ("cubic", "calls"): 61, ("cubic", "classes"): 301,
    }


# Triple numbers divisible by 24 make chi integral whatever K and c2 are,
# so a canonical class can sit anywhere: the duals of a small window may
# then lie above, across, below or wholly outside it.
_INTEGRAL_MODELS = [variety_model(tag) for tag in VARIETY_TAGS] + [
    VarietyModel("point", (24, 0, -24, 48), DivisorClass(*k), (1, 2))
    for k in [(0, 0), (0, 3), (0, -3), (1, -1), (-2, 7), (3, 1)]
]


@pytest.mark.parametrize("window", [0, 1, 2, 4, 6])
def test_serre_duals_equal_the_per_class_duals(window):
    span = range(-window, window + 1)
    for model in _INTEGRAL_MODELS:
        chi = tuple(value for a in span for value in euler_char_row(model, a, span))
        assert verify._serre_duals(model, chi, window) == [
            euler_char(model, serre_dual(model, (a, b))) for a in span for b in span
        ], model


def test_chi_table_is_built_once_per_model_window_and_route(monkeypatch):
    calls, classes = Counter(), Counter()
    counted = _counting(verify.euler_char_row, calls, classes)
    table = verify._chi_table("point", 4, counted)
    assert len(table) == 81 and table[4 * 9 + 4] == 1
    assert verify._chi_table("point", 4, counted) is table
    assert calls == {"point": 9} and classes == {"point": 81}
    # One pass of the four grid checks builds one table per model and route
    # with 2W + 1 row calls each, then evaluates only the 960 Serre duals
    # outside the window again, one row call per row.
    calls.clear()
    classes.clear()
    closed_calls, closed_classes = Counter(), Counter()
    monkeypatch.setattr(verify, "euler_char_row", _counting(verify.euler_char_row, calls, classes))
    monkeypatch.setattr(
        verify, "euler_char_closed_row",
        _counting(verify.euler_char_closed_row, closed_calls, closed_classes),
    )
    for check in (
        verify.check_point_vanishing,
        verify.check_line_vanishing,
        verify.check_cubic_vanishing,
        verify.check_chi_agreement,
    ):
        assert check(30).ok
    assert calls == {"point": 61 + 61, "line": 61 + 61, "cubic": 61 + 61}
    assert classes == {"point": 3721 + 358, "line": 3721 + 301, "cubic": 3721 + 301}
    assert closed_calls == {"point": 61, "line": 61, "cubic": 61}
    assert closed_classes == {"point": 3721, "line": 3721, "cubic": 3721}


def test_vanishing_check_reads_one_verdict_row_per_a_and_no_memo_entry(monkeypatch):
    # A cold check reads each row of the grid once, over the window's span,
    # and neither asks nor fills the verdict memo behind ``coh_zero``.
    asked = []
    real = verify._verdict_row

    def counted(tag, a, bs):
        asked.append((tag, a, bs))
        return real(tag, a, bs)

    monkeypatch.setattr(verify, "_verdict_row", counted)
    memo = vanishing._cached_verdict.cache_info()
    assert verify.check_cubic_vanishing(4).ok
    span = range(-4, 5)
    assert asked == [("cubic", a, span) for a in span]
    assert vanishing._cached_verdict.cache_info() == memo


def test_chi_agreement_reads_no_stale_table(monkeypatch):
    # The vanishing check builds the point table through the real route; the
    # patched route must get a table of its own, not that one.
    assert verify.check_point_vanishing(5).ok
    _patch_routes(monkeypatch, {("point", 0, 0): 1})
    details = verify.check_chi_agreement(5).details
    assert "point: chi of the trivial class is not 1" in details


_EXPECTED = verify._EXPECTED_SOLUTIONS
_DIFFER = f"solutions %s differ from expected {_EXPECTED}"


@pytest.mark.parametrize("last,lines", [
    # One solution short: only the solution tuple is wrong.
    (None, ()),
    # H lies off the conic, though its dual -H is decided-Zero.
    ((1, 0, 2, 0, 3, 0), ("solution (1, 0, 2, 0, 3, 0): H misses the conic",)),
    # 23H-15E lies on the conic, but its dual is undecided: one line.
    ((0, 1, 2, 0, 23, -15),
     ("solution (0, 1, 2, 0, 23, -15): dual of 23H-15E is not decided-Zero",)),
], ids=["short", "off-conic", "undecided-dual"])
def test_diophantine_check_reports_each_failure_line(monkeypatch, last, lines):
    solutions = _EXPECTED[:3] + ((last,) if last else ())
    monkeypatch.setattr(verify, "solve_claim_6_3", lambda window: solutions)
    result = verify.check_diophantine(50)
    assert not result.ok
    assert result.details == (_DIFFER % (solutions,), *lines)


def _patch_lift(monkeypatch, pivot, lift):
    """Make ``verify``'s lift at ``pivot`` return ``lift(real lift)``."""
    real = verify.augment_point_blowup

    def patched(degrees, index):
        lifted = real(degrees, index)
        return lift(lifted) if index == pivot else lifted

    monkeypatch.setattr(verify, "augment_point_blowup", patched)


def test_augmentation_check_reads_a_twisted_lift_as_its_type(monkeypatch):
    # A twist is still certified and of type (4); only the pin sees it.
    _patch_lift(monkeypatch, 3, lambda seq: Collection(
        "point", tuple(e + DivisorClass(1, 1) for e in seq.entries)
    ))
    assert verify.check_augmentation().details == (
        "pivot 3 lift [H+3E, 2H+2E, 2H+3E, 3H+E, 3H+2E, 4H+E] differs from the "
        "pinned sequence",
    )


def test_augmentation_check_reports_an_uncertified_lift(monkeypatch):
    _patch_lift(monkeypatch, 3, lambda seq: Collection("point", seq.entries[::-1]))
    assert verify.check_augmentation().details == (
        "pivot 3 lift [3H, 2H+E, 2H, H+2E, H+E, 2E] differs from the pinned sequence",
        "pivot 3: lift is not certified (Nonzero)",
        "pivot 3: lift classifies as nothing, expected type (4)",
    )


def test_augmentation_check_reports_a_lift_of_the_wrong_type(monkeypatch):
    _patch_lift(monkeypatch, 4, lambda seq: augment_point_blowup((0, 1, 2, 3), 2))
    assert verify.check_augmentation().details == (
        "pivot 4: lift classifies as (5), expected type (9)",
    )
