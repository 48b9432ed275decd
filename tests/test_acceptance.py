"""Acceptance suite: the thirteen registered checks at their default scan sizes.

Every check runs through the same registry the ``verify`` command reads,
by its token and with no override, and its status line must equal the
frozen one exactly.  Each test prints the status line with its elapsed
time and enforces the stated runtime budget where one exists, so
``python3 -m pytest tests/test_acceptance.py -s`` shows how long each
check takes.
"""

import time

from blowup_collections.verify import VERIFY_TOKENS, run_check

# Token -> (frozen status line, runtime budget in seconds or None), in
# registry order.
EXPECTED = {
    "claim4.5": (
        "[PASS] family-chains-point: B0 chain laws hold over parameter window 10",
        None,
    ),
    "claim6.2": (
        "[PASS] family-chains-cubic: B0 chain laws hold over parameter window 10",
        None,
    ),
    "claim6.3": (
        "[PASS] diophantine: 4 ordered solutions in window 50, all duals decided",
        30.0,
    ),
    "prop4.3": (
        "[PASS] vanishing-point: 66 vanishing classes in window 30, "
        "two derivation routes agree",
        1.0,
    ),
    "prop5.5": (
        "[PASS] vanishing-line: 121 vanishing classes in window 30, "
        "two derivation routes agree",
        1.0,
    ),
    "prop6.4": (
        "[PASS] vanishing-cubic: window 30: 38 confirmed, 2 undecided, 3681 refuted",
        1.0,
    ),
    "relations": (
        "[PASS] relations: 146 chain walks realized over parameter range 5",
        10.0,
    ),
    "tables": (
        "[PASS] tables: 186 cells certified over parameter window 15",
        None,
    ),
    "thm4.4": (
        "[PASS] enumeration-point: confirmed families: 9, undetermined: 0 "
        "(90 sequences in window 15)",
        10.0,
    ),
    "thm5.6": (
        "[PASS] enumeration-line: confirmed families: 2, undetermined: 0 "
        "(1624 sequences in window 15)",
        30.0,
    ),
    "thm6.5": (
        "[PASS] enumeration-cubic: confirmed families: 15, undetermined: 0 "
        "(54 sequences in window 15)",
        60.0,
    ),
    "chi-agreement": (
        "[PASS] chi-agreement: both chi routes and Serre antisymmetry agree on "
        "window 30 for all three models",
        1.0,
    ),
    "augmentation": (
        "[PASS] augmentation: all three pivots lift to certified catalogue collections",
        None,
    ),
}


def _accept(token: str) -> None:
    line, budget = EXPECTED[token]
    start = time.perf_counter()
    result = run_check(token)
    elapsed = time.perf_counter() - start
    print(f"{result.status_line()} [{elapsed:.2f}s]")
    assert result.status_line() == line, result.details
    if budget is not None:
        assert elapsed < budget, f"{token} took {elapsed:.2f}s, budget {budget:g}s"


def test_every_registered_check_is_pinned():
    assert tuple(EXPECTED) == VERIFY_TOKENS


def test_criterion_01_point_vanishing_classification():
    _accept("prop4.3")


def test_criterion_02_line_vanishing_classification():
    _accept("prop5.5")


def test_criterion_03_cubic_vanishing_classification():
    _accept("prop6.4")


def test_criterion_04_euler_characteristic_cross_validation():
    _accept("chi-agreement")


def test_criterion_05_compatibility_tables_golden():
    _accept("tables")


def test_criterion_06_point_enumeration():
    _accept("thm4.4")


def test_criterion_07_line_enumeration():
    _accept("thm5.6")


def test_criterion_08_cubic_enumeration():
    _accept("thm6.5")


def test_criterion_09_conic_diophantine_solutions():
    _accept("claim6.3")


def test_criterion_10_mutation_relations():
    _accept("relations")


def test_criterion_11_augmentation_lifts():
    _accept("augmentation")


def test_criterion_12_within_family_chain_laws():
    _accept("claim4.5")
    _accept("claim6.2")
