"""The conic-supported pairwise chi-vanishing problem on the cubic model."""

import pytest

from reference_scans import cofactor_scan, conic_triples, family_label_of
from blowup_collections.geometry import (
    DivisorClass, euler_char, euler_char_closed, variety_model,
)
from blowup_collections.vanishing import VanishingVerdict, coh_zero
from blowup_collections.diophantine import dual_conic_points, solve_claim_6_3

# Frozen: the sixteen classes in |a|, |b| <= 50 whose dual lies on the
# integral conic, in sorted order.
CONIC_POINTS_WINDOW_50 = [
    (-48, -15), (-48, 34), (-19, 14), (-10, -4), (-3, -2), (-3, 3),
    (0, 1), (1, -1), (2, -1), (2, 0), (3, 0), (4, -2), (7, -4), (7, 1),
    (14, 3), (23, -15),
]

# Frozen: all ordered solutions of the three-class pairwise problem.
SOLUTIONS = [
    (0, 1, 2, 0, -3, 3),
    (0, 1, 2, 0, 3, 0),
    (1, -1, 2, -1, 4, -2),
    (7, -4, 2, -1, 4, -2),
]


def test_conic_points_window_50_frozen():
    points = dual_conic_points(50)
    assert points == CONIC_POINTS_WINDOW_50
    assert points == sorted(points)


def test_conic_points_satisfy_pell_form():
    # The defining quadric, reduced by completing the square: a dual pair
    # (x, y) lies on the conic iff (2x - 2y + 5)^2 - 6(2y - 1)^2 = -5.
    # In terms of the class itself (x, y) = (-a, -b).
    for a, b in CONIC_POINTS_WINDOW_50:
        m, gamma = -2 * a + 2 * b + 5, -2 * b - 1
        assert m * m - 6 * gamma * gamma == -5


def test_conic_points_smaller_window_is_prefix_set():
    inside_20 = [p for p in CONIC_POINTS_WINDOW_50 if max(abs(p[0]), abs(p[1])) <= 20]
    assert dual_conic_points(20) == inside_20
    assert len(inside_20) == 13


def test_row_solve_matches_the_cofactor_scan():
    scan = cofactor_scan(200)
    for window in [*range(0, 61), 200]:
        expected = [d for d in scan if max(abs(d.a), abs(d.b)) <= window]
        assert dual_conic_points(window) == expected, window


def test_window_100000_keeps_the_four_solutions():
    # Far beyond any 2-D scan: the row solve is linear in the window.
    points = dual_conic_points(10**5)
    assert len(points) == 42
    assert solve_claim_6_3(10**5) == SOLUTIONS


@pytest.mark.parametrize("window", [*range(10, 61), 10**5])
def test_chain_search_matches_the_plain_triple_loop(window):
    assert solve_claim_6_3(window) == conic_triples(window)


def test_solutions_window_50_frozen():
    assert solve_claim_6_3(50) == SOLUTIONS


@pytest.mark.parametrize("window", [10, 20, 35])
def test_solutions_stable_across_windows(window):
    assert solve_claim_6_3(window) == SOLUTIONS


def test_window_validation():
    with pytest.raises(ValueError, match="below 10"):
        solve_claim_6_3(9)


def test_solution_pairwise_chi_vanishing():
    cubic = variety_model("cubic")
    for a1, b1, a2, b2, a3, b3 in SOLUTIONS:
        d1, d2, d3 = DivisorClass(a1, b1), DivisorClass(a2, b2), DivisorClass(a3, b3)
        for earlier, later in ((d1, d2), (d1, d3), (d2, d3)):
            assert euler_char(cubic, earlier - later) == 0
        assert len({d1, d2, d3}) == 3


def test_solution_duals_are_decided_zero():
    # Every class used by a solution has a dual in a decided vanishing
    # case; the two undecided conic families contribute no solution.
    cubic = variety_model("cubic")
    used = set()
    for sol in SOLUTIONS:
        used.update(
            DivisorClass(*pair) for pair in (sol[0:2], sol[2:4], sol[4:6])
        )
    for d in used:
        assert coh_zero(cubic, -d) is VanishingVerdict.ZERO
        assert family_label_of(cubic, d) in [f"B{k}" for k in range(9)]
    assert DivisorClass(23, -15) not in used
    assert DivisorClass(-19, 14) not in used


def test_numerator_vanishing_iff_chi_zero_on_conic():
    # The solver tests the closed form, whose cubic numerator is 6*chi.
    cubic = variety_model("cubic")
    for a, b in CONIC_POINTS_WINDOW_50:
        for a2, b2 in CONIC_POINTS_WINDOW_50:
            diff = DivisorClass(a - a2, b - b2)
            assert (euler_char(cubic, diff) == 0) == (euler_char_closed(cubic, diff) == 0)
