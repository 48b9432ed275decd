"""Lattice data, triple products, and the two Euler-characteristic routes."""

import pickle

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowup_collections import geometry
from blowup_collections.geometry import (
    DivisorClass,
    E_CLASS,
    H_CLASS,
    VARIETY_TAGS,
    VarietyModel,
    ZERO_CLASS,
    _divisor,
    cubic_chi_cofactor,
    euler_char,
    euler_char_closed,
    euler_char_closed_row,
    euler_char_row,
    serre_dual,
    triple_product,
    variety_model,
)
from blowup_collections.sequences import Collection

# Frozen model data: one row per variety with the four triple intersection
# numbers (H^3, H^2E, HE^2, E^3), the canonical class, and c2 coefficients.
MODEL_DATA = {
    "point": ((1, 0, 0, 1), (-4, 2), (6, 0)),
    "line": ((1, 0, -1, -2), (-4, 1), (7, -4)),
    "cubic": ((1, 0, -3, -10), (-4, 1), (9, -4)),
}

# Frozen chi spot values, computed independently from the closed forms.
CHI_SPOT_VALUES = [
    ("point", (0, 0), 1),
    ("point", (1, 0), 4),
    ("point", (0, 1), 1),
    ("point", (-1, 2), 0),
    ("point", (-2, 2), 0),
    ("point", (-4, 2), -1),
    ("line", (0, 0), 1),
    ("line", (1, 0), 4),
    ("line", (0, 1), 1),
    ("line", (-3, 0), 0),
    ("line", (-1, 1), 0),
    ("line", (2, -1), 7),
    ("cubic", (0, 0), 1),
    ("cubic", (1, 0), 4),
    ("cubic", (0, 1), 1),
    ("cubic", (3, -3), 0),
    ("cubic", (0, -1), 0),
    ("cubic", (-7, 4), 0),
    ("cubic", (2, -1), 3),
]

divisors = st.builds(
    DivisorClass, st.integers(-100, 100), st.integers(-100, 100)
)
big_divisors = st.builds(
    DivisorClass, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)
)


@pytest.mark.parametrize("tag", VARIETY_TAGS)
def test_model_data_is_pinned(tag):
    model = variety_model(tag)
    triples, canonical, c2 = MODEL_DATA[tag]
    assert model.tag == tag
    assert model.triple_numbers == triples
    assert model.canonical == DivisorClass(*canonical)
    assert model.c2 == c2


def test_unknown_tag_rejected():
    with pytest.raises(ValueError, match="unknown variety tag"):
        variety_model("plane")


def test_divisor_arithmetic():
    d = DivisorClass(2, -1)
    assert d + DivisorClass(1, 1) == DivisorClass(3, 0)
    assert d - DivisorClass(1, 1) == DivisorClass(1, -2)
    assert -d == DivisorClass(-2, 1)
    assert 3 * d == DivisorClass(6, -3)
    assert str(d) == "2H-E"
    assert str(ZERO_CLASS) == "0"
    assert str(DivisorClass(-3, 2)) == "-3H+2E"


@pytest.mark.parametrize("other", [1, 2.5, None, "E", (1, 1)])
def test_divisor_arithmetic_with_a_non_class_raises_type_error(other):
    d = DivisorClass(1, 2)
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \+"):
        d + other
    with pytest.raises(TypeError, match="unsupported operand type"):
        d - other


@pytest.mark.parametrize("tag", VARIETY_TAGS)
def test_triple_product_on_generators(tag):
    model = variety_model(tag)
    h3, h2e, he2, e3 = MODEL_DATA[tag][0]
    assert triple_product(model, H_CLASS, H_CLASS, H_CLASS) == h3
    assert triple_product(model, H_CLASS, H_CLASS, E_CLASS) == h2e
    assert triple_product(model, H_CLASS, E_CLASS, E_CLASS) == he2
    assert triple_product(model, E_CLASS, E_CLASS, E_CLASS) == e3


@settings(max_examples=60)
@given(divisors, divisors, divisors, st.sampled_from(VARIETY_TAGS))
def test_triple_product_symmetric(d1, d2, d3, tag):
    model = variety_model(tag)
    value = triple_product(model, d1, d2, d3)
    assert value == triple_product(model, d2, d1, d3)
    assert value == triple_product(model, d3, d2, d1)
    assert value == triple_product(model, d1, d3, d2)


@settings(max_examples=60)
@given(divisors, divisors, divisors, divisors, st.integers(-9, 9),
       st.sampled_from(VARIETY_TAGS))
def test_triple_product_linear_in_first_slot(d1, d1b, d2, d3, k, tag):
    model = variety_model(tag)
    assert triple_product(model, d1 + k * d1b, d2, d3) == triple_product(
        model, d1, d2, d3
    ) + k * triple_product(model, d1b, d2, d3)


@pytest.mark.parametrize("tag,pair,expected", CHI_SPOT_VALUES)
def test_chi_spot_values(tag, pair, expected):
    model = variety_model(tag)
    d = DivisorClass(*pair)
    assert euler_char(model, d) == expected
    assert euler_char_closed(model, d) == expected


@pytest.mark.parametrize("tag", VARIETY_TAGS)
def test_chi_of_trivial_class_is_one(tag):
    # Equivalent to c1*c2 = 24 on each model.
    assert euler_char(variety_model(tag), ZERO_CLASS) == 1


@pytest.mark.parametrize("tag", VARIETY_TAGS)
def test_chi_routes_agree_symbolically(tag):
    """Riemann-Roch expansion equals the closed form as polynomials.

    Both sides are rebuilt symbolically here, independent of the package's
    integer evaluation path.
    """
    a, b = sympy.symbols("a b", integer=True)
    triples, canonical, c2 = MODEL_DATA[tag]
    h3, h2e, he2, e3 = triples

    def triple(u1, v1, u2, v2, u3, v3):
        return (
            u1 * u2 * u3 * h3
            + (u1 * u2 * v3 + u1 * v2 * u3 + v1 * u2 * u3) * h2e
            + (u1 * v2 * v3 + v1 * u2 * v3 + v1 * v2 * u3) * he2
            + v1 * v2 * v3 * e3
        )

    c1a, c1b = -canonical[0], -canonical[1]
    c2x, c2y = c2

    def c2_dot(u, v):
        return c2x * triple(1, 0, 1, 0, u, v) + c2y * triple(1, 0, 0, 1, u, v)

    rr = (
        sympy.Rational(1, 24) * c2_dot(c1a, c1b)
        + sympy.Rational(1, 12) * (triple(c1a, c1b, c1a, c1b, a, b) + c2_dot(a, b))
        + sympy.Rational(1, 4) * triple(c1a, c1b, a, b, a, b)
        + sympy.Rational(1, 6) * triple(a, b, a, b, a, b)
    )
    if tag == "point":
        closed = ((a + 1) * (a + 2) * (a + 3) + b * (b - 1) * (b - 2)) / sympy.S(6)
    elif tag == "line":
        closed = (a - 2 * b + 3) * (a + b + 1) * (a + b + 2) / sympy.S(6)
    else:
        closed = (
            (a + 2 * b + 1)
            * (a**2 + 5 * a + 6 - 2 * a * b - 5 * b**2 + b)
            / sympy.S(6)
        )
    assert sympy.simplify(sympy.expand(rr - closed)) == 0


@settings(max_examples=80)
@given(big_divisors, st.sampled_from(VARIETY_TAGS))
def test_chi_routes_agree_on_large_inputs(d, tag):
    model = variety_model(tag)
    assert euler_char(model, d) == euler_char_closed(model, d)


@settings(max_examples=80)
@given(st.integers(), st.integers(), st.sampled_from(VARIETY_TAGS))
def test_closed_chi_reads_a_plain_pair_as_its_class(a, b, tag):
    # The chi cross-check hands the closed form bare coordinate pairs.
    model = variety_model(tag)
    assert euler_char_closed(model, (a, b)) == euler_char_closed(model, DivisorClass(a, b))


@settings(max_examples=80)
@given(divisors, st.sampled_from(VARIETY_TAGS))
def test_serre_antisymmetry(d, tag):
    model = variety_model(tag)
    assert euler_char(model, d) == -euler_char(model, serre_dual(model, d))


@settings(max_examples=40)
@given(st.integers(-100, 100), st.integers(-100, 100), st.sampled_from(VARIETY_TAGS))
def test_serre_dual_reads_a_plain_pair_as_its_class(a, b, tag):
    model = variety_model(tag)
    dual = serre_dual(model, (a, b))
    assert type(dual) is DivisorClass and dual == serre_dual(model, DivisorClass(a, b))


def test_serre_dual_of_a_pair_on_the_point_model():
    assert serre_dual(variety_model("point"), (1, 2)) == DivisorClass(-5, 0)


@settings(max_examples=40)
@given(divisors, st.sampled_from(VARIETY_TAGS))
def test_serre_dual_is_an_involution(d, tag):
    model = variety_model(tag)
    assert serre_dual(model, serre_dual(model, d)) == d


def test_cubic_cofactor_matches_chi_factorization():
    model = variety_model("cubic")
    for a in range(-12, 13):
        for b in range(-12, 13):
            assert 6 * euler_char(model, DivisorClass(a, b)) == (
                a + 2 * b + 1
            ) * cubic_chi_cofactor(a, b)


def test_non_integral_chi_aborts():
    # Corrupted model data must abort, never round.
    broken = VarietyModel(
        tag="point", triple_numbers=(1, 0, 0, 1),
        canonical=DivisorClass(-4, 2), c2=(5, 0),
    )
    with pytest.raises(ArithmeticError, match="non-integer"):
        euler_char(broken, ZERO_CLASS)
    # The inline division raises the same message the helper always built.
    with pytest.raises(ArithmeticError) as caught:
        euler_char(broken, H_CLASS)
    assert str(caught.value) == "chi(H) on the point model evaluated to the non-integer 90/24"
    # A bare pair is named as its class.
    with pytest.raises(ArithmeticError) as caught:
        euler_char(broken, (1, 0))
    assert str(caught.value) == "chi(H) on the point model evaluated to the non-integer 90/24"


def _expanded_twenty_four_chi(model, d):
    """Reference: the trilinear Riemann-Roch expansion of ``24*chi(d)``."""
    c1, h, e = -model.canonical, H_CLASS, E_CLASS
    x, y = model.c2

    def c2_dot(u):
        return x * triple_product(model, h, h, u) + y * triple_product(model, h, e, u)

    return (c2_dot(c1) + 2 * (triple_product(model, c1, c1, d) + c2_dot(d))
            + 6 * triple_product(model, c1, d, d) + 4 * triple_product(model, d, d, d))


@settings(max_examples=80)
@given(big_divisors, st.sampled_from(VARIETY_TAGS))
def test_chi_coefficients_match_the_trilinear_expansion(d, tag):
    model = variety_model(tag)
    assert 24 * euler_char(model, d) == _expanded_twenty_four_chi(model, d)


@pytest.mark.parametrize("tag", VARIETY_TAGS)
def test_chi_coefficients_match_the_expansion_on_the_window_60_grid(tag):
    model = variety_model(tag)
    for a in range(-60, 61):
        for b in range(-60, 61):
            d = DivisorClass(a, b)
            assert 24 * euler_char(model, d) == _expanded_twenty_four_chi(model, d)


@pytest.mark.parametrize("broken_first", [True, False])
def test_corrupted_model_never_shares_chi_coefficients(broken_first):
    # Same tag, different c2: each model must use its own data, whichever
    # of the two is evaluated first.  ``real`` is a fresh copy of the point
    # model, so neither has derived its coefficients yet.
    real = VarietyModel(*variety_model("point"))
    broken = VarietyModel(
        tag="point", triple_numbers=(1, 0, 0, 1),
        canonical=DivisorClass(-4, 2), c2=(5, 0),
    )
    assert real == variety_model("point") and real is not variety_model("point")
    for model in (broken, real) if broken_first else (real, broken):
        if model is broken:
            with pytest.raises(ArithmeticError, match="non-integer"):
                euler_char(broken, ZERO_CLASS)
        else:
            assert euler_char(real, ZERO_CLASS) == 1
            assert euler_char(real, DivisorClass(1, 0)) == 4
    assert euler_char(variety_model("point"), ZERO_CLASS) == 1


def test_divisor_class_value_semantics():
    d = DivisorClass(-4, 2)
    assert repr(d) == "DivisorClass(a=-4, b=2)"
    assert d == (-4, 2) and (d.a, d.b) == (-4, 2)
    classes = [DivisorClass(1, 0), DivisorClass(-1, 5), DivisorClass(1, -1), DivisorClass(-1, 2)]
    assert sorted(classes) == [
        DivisorClass(-1, 2), DivisorClass(-1, 5), DivisorClass(1, -1), DivisorClass(1, 0)
    ]
    lookup = {d: "K", DivisorClass(1, 0): "H"}
    assert lookup[DivisorClass(-4, 2)] == "K" and lookup[H_CLASS] == "H"
    first = Collection("point", (ZERO_CLASS, DivisorClass(1, 0)))
    same = Collection("point", (DivisorClass(0, 0), H_CLASS))
    assert first == same and hash(first) == hash(same) and len({first, same}) == 1
    with pytest.raises(AttributeError):
        d.a = 3
    assert d + d == DivisorClass(-8, 4)
    assert 2 * d == d * 2 == DivisorClass(-8, 4)
    assert isinstance(d + d, DivisorClass) and isinstance(2 * d, DivisorClass)
    with pytest.raises(TypeError):
        d * 1.5


def test_fast_constructor_is_indistinguishable_from_the_public_one():
    pairs = [(0, 0), (-4, 2), (3, -7), (-1, 5), (10**30, -(10**30))]
    fast = [_divisor(pair) for pair in pairs]
    public = [DivisorClass(a, b) for a, b in pairs]
    for f, p in zip(fast, public):
        assert type(f) is DivisorClass
        assert f == p and hash(f) == hash(p) and repr(f) == repr(p) and str(f) == str(p)
        assert pickle.dumps(f) == pickle.dumps(p)
        restored = pickle.loads(pickle.dumps(f))
        assert type(restored) is DivisorClass and restored == p
        assert f + p == 2 * p and isinstance(f - p, DivisorClass) and -f == -p
    assert sorted(fast) == sorted(public)
    assert [f < q for f in fast for q in public] == [p < q for p in public for q in public]


# Rows for the row evaluators: empty, one element, unsorted and repeated
# ``b``, with coordinates up to about 10^6.
coordinates = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))
rows = st.lists(coordinates, max_size=8)
small = st.integers(-12, 12)
models = st.builds(
    VarietyModel,
    tag=st.sampled_from(VARIETY_TAGS),
    triple_numbers=st.tuples(small, small, small, small),
    canonical=st.builds(DivisorClass, small, small),
    c2=st.tuples(small, small),
)


def _closed_six_chi(tag, a, b):
    """Reference: ``6*chi(a, b)`` from each variety's factored polynomial."""
    if tag == "point":
        return (a + 1) * (a + 2) * (a + 3) + b * (b - 1) * (b - 2)
    if tag == "line":
        return (a - 2 * b + 3) * (a + b + 1) * (a + b + 2)
    return (a + 2 * b + 1) * (a * a + 5 * a + 6 - 2 * a * b - 5 * b * b + b)


@settings(max_examples=200)
@given(st.one_of(models, st.sampled_from(VARIETY_TAGS).map(variety_model)), coordinates, rows)
@example(variety_model("line"), -3, [])
@example(variety_model("cubic"), 10**6, [-(10**6)])
@example(variety_model("point"), 2, [5, -1, 5, 0, -1])
def test_expansion_row_equals_the_trilinear_expansion_class_by_class(model, a, bs):
    # Random model data is mostly not integral: the row must then name its
    # first non-integral class.
    numerators = [_expanded_twenty_four_chi(model, DivisorClass(a, b)) for b in bs]
    wrong = [(b, n) for b, n in zip(bs, numerators) if n % 24]
    if not wrong:
        assert euler_char_row(model, a, bs) == [n // 24 for n in numerators]
        return
    b, n = wrong[0]
    with pytest.raises(ArithmeticError) as caught:
        euler_char_row(model, a, bs)
    assert str(caught.value) == (
        f"chi({DivisorClass(a, b)}) on the {model.tag} model evaluated to the "
        f"non-integer {n}/24"
    )


@settings(max_examples=200)
@given(st.sampled_from(VARIETY_TAGS), coordinates, rows)
@example("line", -3, [])
@example("cubic", 10**6, [-(10**6)])
@example("point", 2, [5, -1, 5, 0, -1])
def test_closed_row_equals_the_factored_polynomials_class_by_class(tag, a, bs):
    model = variety_model(tag)
    assert euler_char_closed_row(model, a, bs) == [
        _closed_six_chi(tag, a, b) // 6 for b in bs
    ]
    assert all(_closed_six_chi(tag, a, b) % 6 == 0 for b in bs)


def test_doctored_rows_name_their_first_non_integral_class(monkeypatch):
    # H^2*E = 1 breaks the point model on some classes of row 1 only:
    # 24*chi is divisible by 24 at H-2E and H+E but not at H-E.
    broken = VarietyModel(
        tag="point", triple_numbers=(1, 1, 0, 1),
        canonical=DivisorClass(-4, 2), c2=(6, 0),
    )
    numerators = [_expanded_twenty_four_chi(broken, DivisorClass(1, b)) for b in (-2, 1, -1)]
    assert [n % 24 for n in numerators] == [0, 0, 8]
    for bs in ([-2, 1, -1, 0], [-1, -2, 0]):
        with pytest.raises(ArithmeticError) as caught:
            euler_char_row(broken, 1, bs)
        assert str(caught.value) == (
            f"chi(H-E) on the point model evaluated to the non-integer {numerators[2]}/24"
        )
    # The closed form reads only the tag, so its formula is doctored instead:
    # the cubic's cofactor is off by one wherever b = 5.
    real = geometry.cubic_chi_cofactor
    monkeypatch.setattr(geometry, "cubic_chi_cofactor", lambda a, b: real(a, b) + (b == 5))
    cubic = variety_model("cubic")
    with pytest.raises(ArithmeticError) as caught:
        euler_char_closed_row(cubic, 0, [1, -2, 5, 7, 5])
    assert str(caught.value) == (
        f"closed-form chi(5E) on the cubic model evaluated to the non-integer "
        f"{11 * (real(0, 5) + 1)}/6"
    )
