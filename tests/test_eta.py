"""Eta-invariant assembly and the geometric-bounding obstruction logic."""

import io
from fractions import Fraction
from itertools import permutations, product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import flateta.eta as eta_module
import flateta.seifert as seifert
from flateta import (
    BaseSurface,
    EtaResult,
    FiberPair,
    NotFlatError,
    ObstructionError,
    SeifertData,
    ValidationError,
    dedekind_cot,
    dedekind_sawtooth,
    eta_flat,
    euler_number,
    flat_catalog,
    obstruction_report,
    orbifold_euler_characteristic,
    parse_descriptor,
    predicted_signature,
)
from flateta.cli import run
from flateta.errors import digit_limit
from helpers import check_value_protocol, within

G5_DATA = SeifertData(BaseSurface.S2, 0, ((2, 1), (3, -1), (6, -1)))
G3_DATA = SeifertData(BaseSurface.S2, 0, ((3, 2), (3, -1), (3, -1)))
G4_DATA = SeifertData(BaseSurface.S2, 0, ((2, 1), (4, -1), (4, -1)))
TORUS = SeifertData(BaseSurface.T2)


class TestEtaFlat:
    @pytest.mark.parametrize(
        "data, expected",
        [
            (G5_DATA, Fraction(-4, 3)),
            (G3_DATA, Fraction(-2, 3)),
            (G4_DATA, Fraction(-1)),
            (TORUS, Fraction(0)),
        ],
    )
    def test_values(self, data, expected):
        assert eta_flat(data).value == expected

    def test_breakdown_sums_to_value(self):
        for data in (G5_DATA, G3_DATA, G4_DATA):
            result = eta_flat(data)
            assert result.value == 4 * sum(
                (c for _, c in result.fiber_contributions), Fraction(0)
            )
            assert [f for f, _ in result.fiber_contributions] == list(data.fibers)
            assert result.integral == (result.value.denominator == 1)

    def test_rejects_nonzero_euler_number(self):
        with pytest.raises(NotFlatError, match=r"e = -1/2"):
            eta_flat(SeifertData(BaseSurface.S2, 0, ((2, 1),)))

    def test_rejects_nonzero_orbifold_characteristic(self):
        with pytest.raises(NotFlatError, match=r"chi_orb = 2"):
            eta_flat(SeifertData(BaseSurface.S2))

    def test_rejects_invalid_data(self):
        with pytest.raises(ValidationError):
            eta_flat(SeifertData(BaseSurface.S2, 0, ((4, 2),)))

    def test_rejects_non_integer_b(self):
        with pytest.raises(ValidationError, match="b must be an int"):
            eta_flat(SeifertData(BaseSurface.T2, "0"))

    def test_validates_once(self, monkeypatch):
        calls = []
        real = seifert.validate

        def counting(s):
            calls.append(s)
            return real(s)

        # patch every module that could hold a reference to validate
        monkeypatch.setattr(seifert, "validate", counting)
        monkeypatch.setattr(eta_module, "validate", counting, raising=False)
        eta_flat(G5_DATA)
        assert calls == [G5_DATA]

    def test_fiber_order_irrelevant(self):
        reference = eta_flat(G5_DATA).value
        for perm in permutations(G5_DATA.fibers):
            assert eta_flat(SeifertData(BaseSurface.S2, 0, perm)).value == reference

    def test_orientation_reversal_negates_eta(self):
        for entry in flat_catalog():
            if entry.seifert is None:
                continue
            reversed_data = SeifertData(
                entry.seifert.base,
                entry.seifert.b,
                tuple(FiberPair(f.alpha, -f.beta) for f in entry.seifert.fibers),
            )
            assert eta_flat(reversed_data).value == -entry.eta, entry.name

    def test_catalog_denominators_divide_nine(self):
        # regression envelope over the computable catalog entries
        for entry in flat_catalog():
            if entry.eta is not None:
                assert 9 % entry.eta.denominator == 0, entry.name


# The multiplicities of every flat fibration over S2, largest (= their lcm) last.
_FLAT_ALPHAS = ((2, 2, 2, 2), (3, 3, 3), (2, 4, 4), (2, 3, 6))


@st.composite
def _flat_data(draw):
    """Flat Seifert data: T2 with b = 0 and no fibers, or S2 over a flat
    orbifold with the last beta and b chosen so that e = 0, in any order."""
    if draw(st.booleans()):
        return SeifertData(BaseSurface.T2)
    *alphas, last = draw(st.sampled_from(_FLAT_ALPHAS))
    betas = [draw(st.integers(-(10**6), 10**6).filter(lambda b, a=a: gcd(a, b) == 1))
             for a in alphas]
    part = sum((Fraction(b, a) for a, b in zip(alphas, betas)), Fraction(0))
    beta = -part.numerator * (last // part.denominator) + last * draw(st.integers(-(10**6), 10**6))
    assume(gcd(last, beta) == 1)
    fibers = draw(st.permutations(list(zip(alphas, betas)) + [(last, beta)]))
    return SeifertData(BaseSurface.S2, -int(part + Fraction(beta, last)), tuple(fibers))


@settings(max_examples=200, deadline=None)
@given(_flat_data())
def test_eta_is_four_times_the_sawtooth_sums(data):
    result = eta_flat(data)
    assert result.value == 4 * sum(
        (dedekind_sawtooth(f.beta, f.alpha) for f in data.fibers), Fraction(0)
    )
    assert type(result.value) is Fraction
    assert result.integral == (result.value.denominator == 1)


def _residue_classes(alphas):
    """Every flat residue class over the base orbifold with multiplicities
    alphas: eta depends on each beta only mod its alpha and not on the
    order of the fibers, and some b makes e = 0 exactly when the
    beta/alpha sum to an integer.  Each class is its sorted (alpha, beta
    mod alpha) pairs; no fibers is T2's one class."""
    units = [[r for r in range(1, a) if gcd(r, a) == 1] for a in alphas]
    return {
        tuple(sorted(zip(alphas, residues)))
        for residues in product(*units)
        if sum(map(Fraction, residues, alphas), Fraction(0)).denominator == 1
    }


# Each multiplicity list (T2's empty one first) with its catalog manifold.
_FLAT_TYPES = {(): "G1", (2, 2, 2, 2): "G2", (3, 3, 3): "G3", (2, 4, 4): "G4", (2, 3, 6): "G5"}
_CLASSES = {alphas: _residue_classes(alphas) for alphas in _FLAT_TYPES}


def _class_eta(pairs, route=dedekind_sawtooth):
    return 4 * sum((route(r, a) for a, r in pairs), Fraction(0))


@pytest.mark.parametrize(
    "alphas, values",
    [
        ((), {0}),
        ((2, 2, 2, 2), {0}),
        ((3, 3, 3), {Fraction(2, 3), Fraction(-2, 3)}),
        ((2, 4, 4), {1, -1}),
        ((2, 3, 6), {Fraction(4, 3), Fraction(-4, 3)}),
    ],
    ids=_FLAT_TYPES.values(),
)
def test_every_flat_residue_class_is_plus_or_minus_the_catalog_eta(alphas, values):
    # the paper's numbers for all flat input, not only the catalog's five
    catalog = {entry.name: entry.eta for entry in flat_catalog()}[_FLAT_TYPES[alphas]]
    assert values == {catalog, -catalog}
    found = set()
    for pairs in _CLASSES[alphas]:
        value = _class_eta(pairs)
        assert _class_eta(pairs, dedekind_cot) == value, pairs
        b = -sum((Fraction(r, a) for a, r in pairs), Fraction(0))
        data = SeifertData(BaseSurface.S2 if pairs else BaseSurface.T2, int(b), pairs)
        report = obstruction_report(data)
        assert report.eta.value == value, pairs
        if value.denominator == 1:
            assert report.predicted_signature == predicted_signature(value) == -value
        else:
            assert report.predicted_signature is None
            with pytest.raises(ObstructionError):
                predicted_signature(value)
        found.add(value)
    assert found == values
    assert len(_CLASSES[alphas]) == len(values)  # one class per value


@settings(max_examples=200, deadline=None)
@given(_flat_data())
def test_flat_data_takes_the_eta_of_its_residue_class(data):
    alphas = tuple(sorted(f.alpha for f in data.fibers))
    pairs = tuple(sorted((f.alpha, f.beta % f.alpha) for f in data.fibers))
    assert pairs in _CLASSES[alphas]
    assert eta_flat(data).value == _class_eta(pairs)


# Refused non-flat data and the whole NotFlatError text, as the per-term
# Fraction sums rendered it.
NOT_FLAT_MESSAGES = {
    "e_only": ("S2;(2,1)(3,1)(6,1)", "not flat: e = -1"),
    "chi_orb_only": ("S2;b=-1;(2,1)(2,1)", "not flat: chi_orb = 1"),
    "both": ("S2;(2,1)", "not flat: e = -1/2, chi_orb = 3/2"),
    "torus_b": ("T2;b=1;", "not flat: e = -1"),
    "sphere_bare": ("S2;", "not flat: chi_orb = 2"),
    "torus_fiber": ("T2;(2,1)", "not flat: e = -1/2, chi_orb = -1/2"),
    "five_fibers": ("S2;(2,1)(2,1)(2,-1)(2,-1)(3,1)", "not flat: e = -1/3, chi_orb = -2/3"),
    "five_primes": (
        "S2;(2,1)(3,1)(5,1)(7,1)(11,1)",
        "not flat: e = -2927/2310, chi_orb = -4003/2310",
    ),
    "ten_primes": (
        "S2;b=3;(2,1)(3,-1)(5,2)(7,-3)(11,4)(13,-5)(17,6)(19,-7)(23,8)(29,-9)",
        "not flat: e = -20309127887/6469693230, chi_orb = -41836667399/6469693230",
    ),
    "b_30_digits": (
        "S2;b=1000000000000000000000000000000;(3,2)(3,-1)(3,-1)",
        "not flat: e = -1000000000000000000000000000000",
    ),
    "alpha_near_million": (
        "S2;b=-1;(999983,1)(999979,-999978)(2,1)(3,1)(5,1)(7,1)",
        "not flat: e = 172993006069741/209992020074970, "
        "chi_orb = -592977046219681/209992020074970",
    ),
}


@pytest.mark.parametrize("case", NOT_FLAT_MESSAGES.values(), ids=NOT_FLAT_MESSAGES.keys())
def test_not_flat_message(case):
    text, message = case
    with pytest.raises(NotFlatError) as excinfo:
        eta_flat(parse_descriptor(text))
    assert str(excinfo.value) == message


def _primes(count):
    primes, candidate = [], 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


# Non-flat data whose e has more digits than int's str limit (4,300 by
# default): 3,000 fibers of distinct prime multiplicity (e and chi_orb have
# a denominator of about 11,900 digits), or a b of digit_limit() digits,
# the most parse_descriptor reads.
MANY_PRIMES = "S2;" + "".join(f"({p},-1)" for p in _primes(3000))
LONG_B = "S2;b=" + "9" * digit_limit() + ";(2,1)(3,1)"


def test_many_distinct_fibers_are_refused_promptly():
    data = parse_descriptor(MANY_PRIMES)
    with pytest.raises(NotFlatError) as refused:
        within(0.5, lambda: eta_flat(data))
    e, chi_orb = euler_number(data), orbifold_euler_characteristic(data)
    parts = e.numerator, e.denominator, -chi_orb.numerator, chi_orb.denominator
    # each part in digits up to digit_limit() of them, else by its bit length, at any limit
    expected = "not flat: e = {}/{}, chi_orb = -{}/{}".format(
        *(n if n < 10 ** digit_limit() else f"<int of {n.bit_length()} bits>" for n in parts)
    )
    assert str(refused.value) == expected


@pytest.mark.parametrize("text", [MANY_PRIMES, LONG_B], ids=["many_primes", "long_b"])
def test_huge_invariants_exit_2_from_the_cli(text):
    out, err = io.StringIO(), io.StringIO()
    assert run(["obstruct", text, "--json"], out, err) == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: not flat: e ")
    assert err.getvalue().count("\n") == 1


class TestPredictedSignature:
    def test_zero(self):
        assert predicted_signature(0) == 0

    def test_sign_flip(self):
        assert predicted_signature(5) == -5
        assert predicted_signature(Fraction(-4)) == 4

    def test_non_integral_is_obstructed(self):
        with pytest.raises(ObstructionError):
            predicted_signature(Fraction(-4, 3))


class TestObstructionReport:
    def test_obstructed_manifold(self):
        report = obstruction_report(G5_DATA)
        assert report.geodesic_boundary_obstructed
        assert report.one_cusped_cross_section_obstructed
        assert report.predicted_signature is None

    def test_unobstructed_torus(self):
        report = obstruction_report(TORUS)
        assert not report.geodesic_boundary_obstructed
        assert not report.one_cusped_cross_section_obstructed
        assert report.predicted_signature == 0

    def test_signature_prediction(self):
        assert obstruction_report(G4_DATA).predicted_signature == 1

    def test_flags_mirror_integrality(self):
        for entry in flat_catalog():
            if entry.seifert is None:
                continue
            report = obstruction_report(entry.seifert)
            assert report.geodesic_boundary_obstructed == (not report.eta.integral)
            assert report.one_cusped_cross_section_obstructed == (
                not report.eta.integral
            )
            assert (report.predicted_signature is not None) == report.eta.integral
            if report.predicted_signature is not None:
                assert report.predicted_signature == -report.eta.value


G1_NOTE = "3-torus: circle bundle over T2, no exceptional fibers."
VALUES = {
    "eta_result": (
        eta_flat(G5_DATA),
        {"value": Fraction(-4, 3), "integral": False, "fiber_contributions": (
            (FiberPair(2, 1), Fraction(0)),
            (FiberPair(3, -1), Fraction(-1, 18)),
            (FiberPair(6, -1), Fraction(-5, 18)),
        )},
        "EtaResult(value=Fraction(-4, 3), integral=False, fiber_contributions=("
        "(FiberPair(alpha=2, beta=1), Fraction(0, 1)), (FiberPair(alpha=3, beta=-1), "
        "Fraction(-1, 18)), (FiberPair(alpha=6, beta=-1), Fraction(-5, 18))))",
    ),
    "obstruction_report": (
        obstruction_report(TORUS),
        {"eta": EtaResult(Fraction(0), True, ()), "geodesic_boundary_obstructed": False,
         "one_cusped_cross_section_obstructed": False, "predicted_signature": 0},
        "ObstructionReport(eta=EtaResult(value=Fraction(0, 1), integral=True, "
        "fiber_contributions=()), geodesic_boundary_obstructed=False, "
        "one_cusped_cross_section_obstructed=False, predicted_signature=0)",
    ),
    "catalog_entry": (
        flat_catalog()[0],
        {"name": "G1", "holonomy": "trivial", "seifert": TORUS, "eta": Fraction(0),
         "eta_integral": True, "note": G1_NOTE},
        "CatalogEntry(name='G1', holonomy='trivial', seifert=SeifertData(base=<BaseSurface.T2: "
        f"'T2'>, b=0, fibers=()), eta=Fraction(0, 1), eta_integral=True, note={G1_NOTE!r})",
    ),
}


@pytest.mark.parametrize("case", VALUES.values(), ids=VALUES.keys())
def test_value_protocol(case):
    check_value_protocol(*case)
