"""The three-valued vanishing oracle and its independent cross-checks."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup_collections import vanishing
from blowup_collections.diophantine import dual_conic_points
from blowup_collections.families import family_by_label
from blowup_collections.geometry import (
    DivisorClass,
    cubic_chi_cofactor,
    euler_char,
    serre_dual,
    variety_model,
)
from blowup_collections.vanishing import (
    FAMILIES,
    VanishingVerdict,
    _case_row,
    coh_zero,
    h0_vanishes,
    h3_vanishes,
)
from reference_scans import (
    RuledSurfaceClass,
    family_label_of,
    meet_verdicts,
    p1p1_coh_zero,
    restrict_to_E_cubic,
    restrict_to_Q_cubic,
)

ZERO = VanishingVerdict.ZERO
NONZERO = VanishingVerdict.NONZERO
UNKNOWN = VanishingVerdict.UNKNOWN

# Frozen sporadic vanishing classes per variety (everything in the finite
# case lists except the infinite line of cases 1/2 and the conic regions).
POINT_SPORADIC = [(-1, 1), (-1, 2), (-2, 0), (-2, 2), (-3, 0), (-3, 1)]
LINE_SPORADIC = [(-1, 1), (-3, 0)]
CUBIC_SPORADIC = [(-1, 1), (-2, 0), (-2, 1), (-3, 0), (-4, 2), (-7, 4), (0, -1), (3, -3)]

# Frozen: the only undecided classes in the window |a|, |b| <= 30.
CUBIC_UNKNOWN_WINDOW_30 = [(-23, 15), (19, -14)]

# Frozen conic points that are nevertheless refuted (outside both regions).
CUBIC_CONIC_BUT_NONZERO = [(3, 2), (10, 4), (-14, -3), (-7, -1)]

divisors = st.builds(DivisorClass, st.integers(-40, 40), st.integers(-40, 40))


@pytest.mark.parametrize(
    "tag,pair,expected",
    [
        ("point", (0, 0), False),
        ("point", (-1, 0), True),
        ("point", (1, -2), True),
        ("point", (1, -1), False),
        ("line", (2, -3), True),
        ("line", (2, -2), False),
        ("cubic", (1, -1), True),
        ("cubic", (2, -1), False),
        ("cubic", (-1, 5), True),
    ],
)
def test_h0_vanishes(tag, pair, expected):
    assert h0_vanishes(variety_model(tag), DivisorClass(*pair)) is expected


@pytest.mark.parametrize(
    "tag,pair,expected",
    [
        ("point", (0, 0), True),
        ("point", (-4, 2), False),
        ("point", (-5, 2), False),
        ("line", (-4, 0), False),
        ("line", (-3, 0), True),
        ("cubic", (-4, 1), False),
        ("cubic", (-4, 2), True),
    ],
)
def test_h3_vanishes(tag, pair, expected):
    assert h3_vanishes(variety_model(tag), DivisorClass(*pair)) is expected


@settings(max_examples=60)
@given(divisors, st.sampled_from(("point", "line", "cubic")))
def test_h3_is_serre_dual_h0(d, tag):
    model = variety_model(tag)
    assert h3_vanishes(model, d) == h0_vanishes(model, serre_dual(model, d))


def test_meet_precedence():
    assert meet_verdicts([]) is ZERO
    assert meet_verdicts([ZERO, ZERO]) is ZERO
    assert meet_verdicts([ZERO, UNKNOWN]) is UNKNOWN
    assert meet_verdicts([UNKNOWN, NONZERO, ZERO]) is NONZERO


@pytest.mark.parametrize("tag,sporadic", [
    ("point", POINT_SPORADIC), ("line", LINE_SPORADIC), ("cubic", CUBIC_SPORADIC),
])
def test_sporadic_cases_vanish(tag, sporadic):
    model = variety_model(tag)
    for pair in sporadic:
        assert coh_zero(model, DivisorClass(*pair)) is ZERO


def test_line_cases_vanish():
    point = variety_model("point")
    line = variety_model("line")
    cubic = variety_model("cubic")
    for t in range(-20, 20):
        assert coh_zero(point, DivisorClass(t, -1 - t)) is ZERO
        assert coh_zero(line, DivisorClass(t, -1 - t)) is ZERO
        assert coh_zero(line, DivisorClass(t, -2 - t)) is ZERO
        assert coh_zero(cubic, DivisorClass(-1 - 2 * t, t)) is ZERO


@pytest.mark.parametrize("tag", ["point", "line", "cubic"])
@pytest.mark.parametrize("pair", [(0, 0), (1, 0), (0, 1), (-5, 1), (5, -1)])
def test_assorted_nonvanishing(tag, pair):
    assert coh_zero(variety_model(tag), DivisorClass(*pair)) is NONZERO


def test_cubic_unknown_set_window_30():
    model = variety_model("cubic")
    unknown = [
        (a, b)
        for a in range(-30, 31)
        for b in range(-30, 31)
        if coh_zero(model, DivisorClass(a, b)) is UNKNOWN
    ]
    assert unknown == CUBIC_UNKNOWN_WINDOW_30


def test_conic_points_outside_regions_are_refuted():
    model = variety_model("cubic")
    for pair in CUBIC_CONIC_BUT_NONZERO:
        assert cubic_chi_cofactor(*pair) == 0
        assert coh_zero(model, DivisorClass(*pair)) is NONZERO


@pytest.mark.parametrize("tag", ["point", "line"])
def test_decided_models_never_undecided(tag):
    model = variety_model(tag)
    for a in range(-25, 26):
        for b in range(-25, 26):
            assert coh_zero(model, DivisorClass(a, b)) is not UNKNOWN


@pytest.mark.parametrize("tag", ["point", "line"])
def test_chi_route_agrees_with_case_analysis(tag):
    # On these models no sections either way and chi = 0 is also sufficient.
    model = variety_model(tag)
    for a in range(-30, 31):
        for b in range(-30, 31):
            d = DivisorClass(a, b)
            no_sections = h0_vanishes(model, d) and h3_vanishes(model, d)
            trivial = euler_char(model, d) == 0 and no_sections
            assert (coh_zero(model, d) is ZERO) is trivial


@pytest.mark.parametrize("tag", ["point", "line", "cubic"])
def test_coh_zero_reads_a_plain_pair_as_its_class(tag):
    # The pair verdict scans hand the oracle bare coordinate pairs.
    model = variety_model(tag)
    for a in range(-12, 13):
        for b in range(-12, 13):
            assert coh_zero(model, (a, b)) is coh_zero(model, DivisorClass(a, b))


@settings(max_examples=60)
@given(st.sampled_from(("point", "line", "cubic")), st.integers(), st.integers())
def test_coh_zero_reads_any_integer_pair(tag, a, b):
    model = variety_model(tag)
    assert coh_zero(model, (a, b)) is coh_zero(model, DivisorClass(a, b))


@settings(max_examples=60)
@given(st.sampled_from(("point", "line", "cubic")), st.integers(), st.integers())
def test_section_tests_read_any_integer_pair(tag, a, b):
    model = variety_model(tag)
    for vanishes in (h0_vanishes, h3_vanishes):
        assert vanishes(model, (a, b)) is vanishes(model, DivisorClass(a, b))


@pytest.mark.parametrize("tag", ["point", "line", "cubic"])
def test_verdicts_respect_serre_duality(tag):
    # All cohomology of O(D) vanishes exactly when it does for O(K - D),
    # so the case lists must be closed under the dual involution.
    model = variety_model(tag)
    for a in range(-25, 26):
        for b in range(-25, 26):
            d = DivisorClass(a, b)
            assert coh_zero(model, d) is coh_zero(model, serre_dual(model, d))


def test_undecided_classes_pass_all_necessary_conditions():
    model = variety_model("cubic")
    for pair in CUBIC_UNKNOWN_WINDOW_30:
        d = DivisorClass(*pair)
        assert h0_vanishes(model, d)
        assert h3_vanishes(model, d)
        assert euler_char(model, d) == 0
        assert family_label_of(model, -d) in ("B9", "B10")


# Frozen case family of sample classes: every case of every model (the
# paper's case k is family B(k-1) negated), two points on each line, and a
# few classes in no case.
CASE_FAMILIES = {
    "point": {
        (-1, 0): "B0", (5, -6): "B0", (-1, 1): "B1", (-1, 2): "B2", (-2, 0): "B3",
        (-2, 2): "B4", (-3, 0): "B5", (-3, 1): "B6",
        (0, 0): None, (1, -1): None, (-4, 2): None,
    },
    "line": {
        (-1, 0): "B0", (5, -6): "B0", (-2, 0): "B1", (4, -6): "B1", (-1, 1): "B2",
        (-3, 0): "B3",
        (0, 0): None, (-2, 2): None, (-1, 2): None,
    },
    "cubic": {
        (-1, 0): "B0", (5, -3): "B0", (-1, 1): "B1", (-2, 0): "B2", (-2, 1): "B3",
        (-3, 0): "B4", (-4, 2): "B5", (-7, 4): "B6", (0, -1): "B7", (3, -3): "B8",
        (-23, 15): "B9", (19, -14): "B10",
        (0, 0): None, (3, 2): None, (-1, 2): None,
    },
}


def test_case_lookup_returns_the_frozen_families():
    # The lookup returns the family of FAMILIES itself, not a copy.
    for tag, wanted in CASE_FAMILIES.items():
        for (a, b), label in wanted.items():
            [fam] = _case_row(tag, a, range(b, b + 1))
            if label is None:
                assert fam is None, (tag, a, b)
            else:
                assert fam is family_by_label(tag, label), (tag, a, b)
            assert family_label_of(variety_model(tag), DivisorClass(-a, -b)) == label


def test_a_model_without_a_case_analysis_is_rejected():
    model = variety_model("point")._replace(tag="plane")
    for ask in (coh_zero, family_label_of):
        with pytest.raises(ValueError, match="no case analysis for tag 'plane'"):
            ask(model, DivisorClass(-1, 0))


# --- the row lookup against a reference read from the families ---------

# The undecided regions of the cubic model, negated: where the conic
# classes fall into B9 (case 10) and B10 (case 11).
_REFERENCE_REGIONS = {
    "B9": lambda a, b: a < -3 and a + 2 * b > 3,
    "B10": lambda a, b: a > -1 and a + 2 * b < -3,
}


def _reference_families(tag, a, b):
    """Every family whose negation holds ``(a, b)``, class by class.

    Read from the families' bases and directions, not the compiled cases:
    ``-(a, b)`` must be a member, and an undecided family holds the conic
    classes of its region.
    """
    found = []
    for fam in FAMILIES[tag]:
        (a0, b0), (da, db) = fam.base, fam.direction
        if fam.kind == "parameterized":
            t = (-a - a0) // da if da else (-b - b0) // db
            holds = fam.member(t) == (-a, -b)
        elif fam.kind == "sporadic":
            holds = fam.base == (-a, -b)
        else:
            holds = cubic_chi_cofactor(a, b) == 0 and _REFERENCE_REGIONS[fam.label](a, b)
        if holds:
            found.append(fam)
    return found


def _reference_case(tag, a, b):
    # The one family that holds ``(a, b)``, or ``None``.
    return next(iter(_reference_families(tag, a, b)), None)


def test_a_parameterized_family_needs_a_nonzero_da():
    # Its negated line is solved for ``b``; with ``da == 0`` that divides by 0.
    flat = FAMILIES["point"][0]._replace(direction=DivisorClass(0, 1))
    with pytest.raises(ValueError, match=r"family B0: .* da != 0, got E"):
        vanishing._compile_cases((flat, *FAMILIES["point"][1:]))


@pytest.mark.parametrize("tag", ["point", "line", "cubic"])
def test_negated_families_are_disjoint(tag):
    # ``_case_stamps`` and ``_case_row`` write the cases in no particular
    # order; both are sound only if no class is claimed twice.
    span = range(-50, 51)
    far = [(-d.a, -d.b) for d in dual_conic_points(10**5)]
    points = [*product(span, span), *far]
    for a, b in points:
        assert len(_reference_families(tag, a, b)) <= 1, (a, b)
    lines, _, regions = vanishing._CASES[tag]
    # Every family direction has da != 0, so no compiled line is a whole row.
    assert all(q != 0 for _, q, _, _ in lines)
    # The lookup's region inequalities are the reference's.
    for sign, fam in regions:
        in_region = _REFERENCE_REGIONS[fam.label]
        for a, b in points:
            assert vanishing._in_conic_region(sign, a, b) is in_region(a, b), (a, b)


@pytest.mark.parametrize("tag", ["point", "line", "cubic"])
def test_case_rows_match_the_reference_on_the_window_100_box(tag):
    span = range(-100, 101)
    for a in span:
        assert _case_row(tag, a, span) == [_reference_case(tag, a, b) for b in span], a


@pytest.mark.parametrize("tag", ["point", "line", "cubic"])
@pytest.mark.parametrize("bs", [
    range(0), range(7, 7), range(-4, -3), range(15, 16), range(-14, -13),
    range(-30, 3), range(2, 61), range(-61, -40),
], ids=repr)
def test_case_rows_of_any_range_match_the_reference(tag, bs):
    # Rows through the lines, the sporadic classes and the four undecided
    # classes of window 100, given as empty, one-element and off-centre ranges.
    for a in (-52, -23, -7, -4, -3, -2, -1, 0, 1, 3, 19, 48):
        assert _case_row(tag, a, bs) == [_reference_case(tag, a, b) for b in bs], a


def _far_conic_roots(steps):
    """Conic classes ``(a, b)`` far out, found without a square root.

    Row ``a`` of the conic has discriminant ``s^2 = 24*(a + 2)^2 + 25``, a
    Pell equation in ``(s, x = a + 2)``: multiplying by the unit
    ``5 + sqrt(24)`` maps one solution to the next, and ``(s, -x)`` is a
    solution too.  The roots ``b = (1 - 2a -+ s) / 10`` that are integers
    are the row's conic classes.
    """
    roots = []
    for s, x in ((5, 0), (11, 2)):
        for _ in range(steps):
            s, x = 5 * s + 24 * x, s + 5 * x
            for a in (x - 2, -x - 2):
                tops = (1 - 2 * a + s, 1 - 2 * a - s)
                roots += [(a, top // 10) for top in tops if top % 10 == 0]
    return roots


def test_case_rows_find_the_conic_classes_far_out():
    # The negated dual conic points out to 10**5, and Pell solutions beyond
    # 10**24, far past where a floating-point square root is exact.
    far = [(-d.a, -d.b) for d in dual_conic_points(10**5)] + _far_conic_roots(25)
    assert max(abs(a) for a, _ in far) > 10**24
    for a, b in far:
        assert cubic_chi_cofactor(a, b) == 0
        assert _case_row("cubic", a, range(b, b + 1)) == [_reference_case("cubic", a, b)]
        bs = range(b - 3, b + 4)
        assert _case_row("cubic", a, bs) == [_reference_case("cubic", a, c) for c in bs]


def test_doctored_case_rows_agree_with_their_one_element_rows(monkeypatch):
    # Two more lines, one with q < 0, two more sporadic classes, all
    # disjoint from the real cases, and the conic rows cut so that a root
    # falls outside the range: each full row must equal its one-element rows.
    fams = FAMILIES["cubic"]
    lines, sporadic, regions = vanishing._CASES["cubic"]
    assert [(p, q, c) for p, q, c, _ in lines] == [(1, 2, -1)]
    doctored = (
        [*lines, (1, 2, 3, fams[1]), (3, -1, 50, fams[2])],
        {**sporadic, (5, 2): fams[4], (-1, 5): fams[3]},
        regions,
    )
    monkeypatch.setitem(vanishing._CASES, "cubic", doctored)
    ranges = (range(-30, 31), range(0), range(0, 10), range(-20, -1), range(16, 40))
    for a, bs in product((-23, -2, -1, 5, 7, 19), ranges):
        ones = [_case_row("cubic", a, range(b, b + 1))[0] for b in bs]
        assert _case_row("cubic", a, bs) == ones, (a, bs)
    assert _case_row("cubic", 7, range(-29, -28)) == [fams[2]]  # the q < 0 line
    # The conic roots -23H+15E and 19H-14E, inside their rows and cut off.
    assert _case_row("cubic", -23, range(15, 16)) == [fams[9]]
    assert _case_row("cubic", 19, range(-14, -13)) == [fams[10]]
    assert fams[9] not in _case_row("cubic", -23, range(0, 15))
    assert fams[10] not in _case_row("cubic", 19, range(-13, 0))


# --- restriction to the two quadric surfaces (cubic model) ---------------


def test_p1p1_vanishing_rule():
    assert p1p1_coh_zero(RuledSurfaceClass(-1, 5))
    assert p1p1_coh_zero(RuledSurfaceClass(7, -1))
    assert not p1p1_coh_zero(RuledSurfaceClass(0, 0))
    assert not p1p1_coh_zero(RuledSurfaceClass(-2, 0))


def test_restriction_map_values():
    assert restrict_to_E_cubic(DivisorClass(-1, 1)) == RuledSurfaceClass(-1, 2)
    assert restrict_to_E_cubic(DivisorClass(1, 0)) == RuledSurfaceClass(0, 3)
    assert restrict_to_Q_cubic(DivisorClass(3, -2)) == RuledSurfaceClass(-1, 1)
    assert restrict_to_Q_cubic(DivisorClass(1, 0)) == RuledSurfaceClass(1, 1)


@settings(max_examples=40)
@given(divisors, divisors)
def test_restriction_maps_are_additive(d1, d2):
    assert restrict_to_E_cubic(d1 + d2) == restrict_to_E_cubic(d1) + restrict_to_E_cubic(d2)
    assert restrict_to_Q_cubic(d1 + d2) == restrict_to_Q_cubic(d1) + restrict_to_Q_cubic(d2)


def test_restriction_routes_for_sporadic_confirmations():
    """Confirmed sporadics split into direct restriction routes and duals.

    Four of the eight decided sporadic classes restrict to a vanishing
    class on the exceptional surface E or the distinguished quadric Q,
    which drives their confirmation; two more are the Serre duals of
    restriction-route classes, so their verdicts follow by duality.
    """
    model = variety_model("cubic")
    e_route = {(-1, 1), (-7, 4)}
    q_route = {(-2, 1), (0, -1)}
    for pair in e_route:
        assert p1p1_coh_zero(restrict_to_E_cubic(DivisorClass(*pair))), pair
    for pair in q_route:
        assert p1p1_coh_zero(restrict_to_Q_cubic(DivisorClass(*pair))), pair
    assert serre_dual(model, DivisorClass(0, -1)) == DivisorClass(-4, 2)
    assert serre_dual(model, DivisorClass(-7, 4)) == DivisorClass(3, -3)


def test_case_one_restricts_to_vanishing_on_Q():
    for t in range(-15, 16):
        d = DivisorClass(-1 - 2 * t, t)
        assert p1p1_coh_zero(restrict_to_Q_cubic(d))
