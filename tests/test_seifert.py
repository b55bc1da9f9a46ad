"""Seifert data validation, flatness, and the flat-manifold catalog."""

import pickle
import sys
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flateta import (
    BaseSurface,
    FiberPair,
    NotFlatError,
    SeifertData,
    ValidationError,
    eta_flat,
    euler_number,
    flat_catalog,
    orbifold_euler_characteristic,
    parse_descriptor,
    render_descriptor,
    validate,
)
from flateta.errors import digit_limit
from helpers import check_value_protocol

G5_DATA = SeifertData(BaseSurface.S2, 0, ((2, 1), (3, -1), (6, -1)))
G3_DATA = SeifertData(BaseSurface.S2, 0, ((3, 2), (3, -1), (3, -1)))
TORUS = SeifertData(BaseSurface.T2)


class TestValidate:
    def test_accepts_catalog_example(self):
        assert validate(G5_DATA) is G5_DATA

    def test_accepts_torus(self):
        assert validate(TORUS) is TORUS

    def test_rejects_non_coprime_fiber(self):
        with pytest.raises(ValidationError, match=r"gcd\(4,2\)"):
            validate(SeifertData(BaseSurface.S2, 0, ((4, 2),)))

    def test_rejects_small_alpha(self):
        with pytest.raises(ValidationError, match="alpha"):
            validate(SeifertData(BaseSurface.S2, 0, ((1, 1),)))

    def test_base_accepts_string_spelling(self):
        assert SeifertData("T2").base is BaseSurface.T2

    @pytest.mark.parametrize("base", ["X2", "s2", 2, None])
    def test_unknown_base_is_validation_error(self, base):
        # ValidationError is a ValueError, so `except ValueError` callers still catch it
        with pytest.raises(ValidationError, match="base must be 'S2' or 'T2'") as excinfo:
            SeifertData(base)
        assert isinstance(excinfo.value, ValueError)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((BaseSurface.S2, 0.0), r"^b must be an int, got 0\.0$"),
            ((BaseSurface.S2, 0, ((2.0, 1),)), r"^fibers\[0\]: alpha must be an int"),
            ((BaseSurface.S2, 0, ((2, 1), (3, 1.0))), r"^fibers\[1\]: beta must be an int"),
        ],
        ids=["b", "alpha", "beta"],
    )
    def test_rejects_non_integer_fields(self, args, message):
        # the data is refused as it is built, before any validate call
        with pytest.raises(ValidationError, match=message):
            SeifertData(*args)


G5_FIBERS = (FiberPair(2, 1), FiberPair(3, -1), FiberPair(6, -1))
VALUES = {
    "fiber_pair": (FiberPair(2, 1), {"alpha": 2, "beta": 1}, "FiberPair(alpha=2, beta=1)"),
    "seifert_data": (
        G5_DATA,
        {"base": BaseSurface.S2, "b": 0, "fibers": G5_FIBERS},
        "SeifertData(base=<BaseSurface.S2: 'S2'>, b=0, fibers=(FiberPair(alpha=2, beta=1), "
        "FiberPair(alpha=3, beta=-1), FiberPair(alpha=6, beta=-1)))",
    ),
}


@pytest.mark.parametrize("case", VALUES.values(), ids=VALUES.keys())
def test_value_protocol(case):
    check_value_protocol(*case)


# Each structural invariant, broken in one field: (field, value, message).
INVALID_FIELDS = {
    "b_float": ("b", 0.5, r"^b must be an int, got 0\.5$"),
    "b_text": ("b", "0", r"^b must be an int, got '0'$"),
    "b_bool": ("b", True, r"^b must be an int, got True$"),
    "alpha_bool": ("fibers", ((True, 1),), r"^fibers\[0\]: alpha must be an int, got True$"),
    "beta_bool": ("fibers", ((2, 1), (3, True)), r"^fibers\[1\]: beta must be an int, got True$"),
    "alpha_float": ("fibers", ((2.0, 1),), r"^fibers\[0\]: alpha must be an int"),
    "beta_float": ("fibers", ((2, 1), (3, 1.0)), r"^fibers\[1\]: beta must be an int"),
    "alpha_one": ("fibers", ((1, 1),), r"^fibers\[0\]: alpha must be >= 2, got 1$"),
    "alpha_negative": ("fibers", ((-2, 1),), r"^fibers\[0\]: alpha must be >= 2, got -2$"),
    "not_coprime": ("fibers", ((2, 1), (4, 2)), r"^fibers\[1\]: gcd\(4,2\) != 1$"),
    "base": ("base", "X2", r"^base must be 'S2' or 'T2', got 'X2'$"),
    "fiber_shape": ("fibers", ((2,),), r"^fibers must be \(alpha, beta\) pairs"),
}


class _Tampered:
    """Pickles as SeifertData's own reduction of G5_DATA with one field replaced."""

    def __init__(self, field, value):
        cls, args = G5_DATA.__reduce__()
        self.reduced = cls, tuple(value if name == field else arg
                                  for name, arg in zip(("base", "b", "fibers"), args))

    def __reduce__(self):
        return self.reduced


@pytest.mark.parametrize("case", INVALID_FIELDS.values(), ids=INVALID_FIELDS.keys())
def test_invalid_field_is_refused_at_construction_and_replace(case):
    field, value, message = case
    fields = {"base": BaseSurface.S2, "b": 0, "fibers": ((2, 1), (3, -1), (6, -1)), field: value}
    with pytest.raises(ValidationError, match=message):
        SeifertData(**fields)
    # a valid instance cannot take the value: the field is neither set nor
    # deleted in place, and pickled data is read back through the constructor
    before = getattr(G5_DATA, field)
    with pytest.raises(AttributeError):
        setattr(G5_DATA, field, value)
    with pytest.raises(AttributeError):
        delattr(G5_DATA, field)
    assert getattr(G5_DATA, field) is before
    with pytest.raises(ValidationError, match=message):
        pickle.loads(pickle.dumps(_Tampered(field, value)))


LIMIT = digit_limit()
TOO_LONG = 10**LIMIT + 1  # one digit past what parse_descriptor reads


@pytest.mark.parametrize(
    "b, fibers, field",
    [
        (-TOO_LONG, (), "b"),
        (1, ((2, 1), (3, TOO_LONG)), r"fibers\[1\]: beta"),
        (0, ((2 * TOO_LONG, 1),), r"fibers\[0\]: alpha"),
    ],
    ids=["b", "beta", "alpha"],
)
def test_render_refuses_an_integer_past_the_digit_limit(b, fibers, field):
    data = SeifertData(BaseSurface.S2, b, fibers)
    with pytest.raises(ValidationError, match=f"^{field} has too many digits to render$"):
        render_descriptor(data)
    fewer = 10 ** (LIMIT - 1)  # one digit fewer renders in full
    assert render_descriptor(SeifertData(BaseSurface.S2, fewer)) == f"S2;b={fewer};"


@pytest.mark.parametrize("limit", [None, 0], ids=["in_force", "off"])
def test_rendered_text_parses_back_at_any_limit(limit):
    # with the limit off str() writes any int, but parse_descriptor still
    # reads at most CPython's default limit: render refuses at that bound
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(before if limit is None else limit)
    try:
        widest = 10 ** digit_limit() - 1
        data = SeifertData(BaseSurface.S2, -widest, ((2, 1), (widest, 1)))
        assert parse_descriptor(render_descriptor(data)) == data
        for b in (widest + 1, widest * widest):
            with pytest.raises(ValidationError, match="^b has too many digits to render$"):
                render_descriptor(SeifertData(BaseSurface.S2, b))
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("invariant", [euler_number, orbifold_euler_characteristic])
def test_invariants_reject_invalid_data(invariant):
    with pytest.raises(ValidationError, match=r"gcd\(4,2\)"):
        invariant(SeifertData(BaseSurface.S2, 0, ((4, 2),)))


class TestEulerNumber:
    def test_flat_examples_vanish(self):
        assert euler_number(G5_DATA) == 0
        assert euler_number(G3_DATA) == 0

    def test_plain_obstruction_term(self):
        assert euler_number(SeifertData(BaseSurface.S2, b=1)) == -1

    def test_single_fiber(self):
        assert euler_number(SeifertData(BaseSurface.S2, 0, ((2, 1),))) == Fraction(-1, 2)


def _paper_invariants(s):
    """(e, chi_orb) straight from the formulas, one Fraction per term:
    e = -(b + sum beta_i/alpha_i), chi_orb = 2 - 2g - sum (1 - 1/alpha_i)."""
    genus = {BaseSurface.S2: 0, BaseSurface.T2: 1}[s.base]
    e = -(Fraction(s.b) + sum((Fraction(f.beta, f.alpha) for f in s.fibers), Fraction(0)))
    cone = sum((1 - Fraction(1, f.alpha) for f in s.fibers), Fraction(0))
    return e, 2 - 2 * genus - cone


_FIBER = st.tuples(st.integers(2, 10**6), st.integers(-(10**6), 10**6)).filter(
    lambda pair: gcd(*pair) == 1
)


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from(BaseSurface),
    b=st.integers(-(10**30), 10**30),
    fibers=st.lists(_FIBER, max_size=8),
)
def test_invariants_equal_the_paper_formulas(base, b, fibers):
    data = SeifertData(base, b, tuple(fibers))
    e, chi_orb = _paper_invariants(data)
    assert (euler_number(data), orbifold_euler_characteristic(data)) == (e, chi_orb)
    assert type(euler_number(data)) is type(orbifold_euler_characteristic(data)) is Fraction


class TestOrbifoldEulerCharacteristic:
    def test_flat_examples_vanish(self):
        assert orbifold_euler_characteristic(G5_DATA) == 0
        assert orbifold_euler_characteristic(G3_DATA) == 0

    def test_torus_base(self):
        assert orbifold_euler_characteristic(TORUS) == 0

    def test_sphere_with_one_cone_point(self):
        data = SeifertData(BaseSurface.S2, 0, ((2, 1),))
        assert orbifold_euler_characteristic(data) == Fraction(3, 2)


class TestIsFlat:
    """The flatness check, e = 0 and chi_orb = 0, which eta_flat applies
    before any Dedekind sum."""

    def test_catalog_example(self):
        assert eta_flat(G5_DATA).value == Fraction(-4, 3)

    def test_torus(self):
        assert eta_flat(TORUS).value == 0

    def test_nonzero_euler_number(self):
        # chi_orb = 0 but e = -1
        with pytest.raises(NotFlatError) as excinfo:
            eta_flat(SeifertData(BaseSurface.S2, 0, ((2, 1), (3, 1), (6, 1))))
        assert str(excinfo.value) == "not flat: e = -1"

    def test_nonzero_orbifold_characteristic(self):
        # e = 0 but the base orbifold is spherical
        with pytest.raises(NotFlatError) as excinfo:
            eta_flat(SeifertData(BaseSurface.S2, 0, ()))
        assert str(excinfo.value) == "not flat: chi_orb = 2"


class TestPermutationAndMoveInvariance:
    def test_invariants_ignore_fiber_order(self):
        for perm in permutations(G5_DATA.fibers):
            shuffled = SeifertData(BaseSurface.S2, 0, perm)
            assert euler_number(shuffled) == euler_number(G5_DATA)
            assert orbifold_euler_characteristic(shuffled) == orbifold_euler_characteristic(G5_DATA)

    def test_coefficient_move_preserves_euler_number(self):
        # (alpha, beta) -> (alpha, beta - alpha) is compensated by b -> b + 1
        for data in (G5_DATA, G3_DATA):
            fibers = list(data.fibers)
            fibers[0] = FiberPair(fibers[0].alpha, fibers[0].beta - fibers[0].alpha)
            moved = SeifertData(data.base, data.b + 1, tuple(fibers))
            assert euler_number(moved) == euler_number(data)


class TestCatalog:
    def test_six_entries_in_order(self):
        assert [e.name for e in flat_catalog()] == ["G1", "G2", "G3", "G4", "G5", "G6"]

    def test_holonomy_labels(self):
        assert [e.holonomy for e in flat_catalog()] == [
            "trivial",
            "Z2",
            "Z3",
            "Z4",
            "Z6",
            "Z2xZ2",
        ]

    def test_every_presented_entry_has_flat_invariants(self):
        for entry in flat_catalog():
            if entry.seifert is not None:
                assert euler_number(entry.seifert) == 0, entry.name
                assert orbifold_euler_characteristic(entry.seifert) == 0, entry.name

    def test_eta_values(self):
        etas = {e.name: e.eta for e in flat_catalog()}
        assert etas["G1"] == 0
        assert etas["G2"] == 0
        assert etas["G3"] == Fraction(-2, 3)
        assert etas["G4"] == -1
        assert etas["G5"] == Fraction(-4, 3)
        assert etas["G6"] is None

    def test_exactly_g3_and_g5_non_integral(self):
        non_integral = {e.name for e in flat_catalog() if not e.eta_integral}
        assert non_integral == {"G3", "G5"}

    def test_integral_flag_consistent_with_eta(self):
        for entry in flat_catalog():
            if entry.eta is not None:
                assert entry.eta_integral == (entry.eta.denominator == 1), entry.name

    def test_hantzsche_wendt_entry(self):
        g6 = flat_catalog()[5]
        assert g6.seifert is None
        assert g6.eta is None
        assert g6.eta_integral
        assert g6.note
