"""Eta-invariant assembly and the geometric-bounding obstruction logic."""

from fractions import Fraction
from itertools import permutations

import pytest

import flateta.eta as eta_module
import flateta.seifert as seifert
from flateta import (
    BaseSurface,
    FiberPair,
    NotFlatError,
    ObstructionError,
    SeifertData,
    ValidationError,
    eta_flat,
    flat_catalog,
    obstruction_report,
    predicted_signature,
)

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
