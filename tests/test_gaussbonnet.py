"""Volume <-> Euler characteristic conversion for hyperbolic 4-manifolds."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flateta import (
    AmbiguousToleranceError,
    DomainError,
    NoLatticePointError,
    chi_from_volume,
    doubled_euler,
    volume_from_chi,
)


class TestVolumeFromChi:
    def test_unit_characteristic(self):
        value = volume_from_chi(1)
        assert value.coefficient == Fraction(4, 3)
        assert value.approx == "13.1594725348"

    def test_three(self):
        value = volume_from_chi(3)
        assert value.coefficient == Fraction(4)
        assert value.approx == "39.4784176044"

    @pytest.mark.parametrize("chi", [0, -1, -100])
    def test_nonpositive_rejected(self, chi):
        with pytest.raises(DomainError):
            volume_from_chi(chi)

    @pytest.mark.parametrize("chi", [1.5, 2.0, "3", Fraction(3)])
    def test_non_integer_rejected(self, chi):
        # the coefficient must stay an exact rational, never a float
        with pytest.raises(DomainError, match="chi must be an int"):
            volume_from_chi(chi)

    @pytest.mark.parametrize("chi", [1, 2, 17, 1000])
    def test_rendering_matches_coefficient(self, chi):
        value = volume_from_chi(chi)
        exact = float(value.coefficient) * math.pi**2
        assert math.isclose(float(value.approx), exact, rel_tol=1e-11)

    @pytest.mark.parametrize("chi", [10**308, 10**400])
    def test_float_overflow_is_domain_error(self, chi):
        with pytest.raises(DomainError, match="too large"):
            volume_from_chi(chi)

    def test_strictly_increasing(self):
        coefficients = [volume_from_chi(chi).coefficient for chi in range(1, 500)]
        assert all(a < b for a, b in zip(coefficients, coefficients[1:]))


class TestChiFromVolume:
    def test_unit_volume(self):
        assert chi_from_volume(13.1594725348, 1e-6) == 1

    def test_double_volume(self):
        assert chi_from_volume(26.3189450696, 1e-6) == 2

    def test_accepts_rendered_strings(self):
        assert chi_from_volume(volume_from_chi(7).approx) == 7

    def test_off_lattice_volume(self):
        with pytest.raises(NoLatticePointError, match=r"4\*pi\^2/3"):
            chi_from_volume(20.0, 1e-6)

    def test_oversized_tolerance_is_ambiguous(self):
        with pytest.raises(AmbiguousToleranceError):
            chi_from_volume(20.0, 7.0)

    def test_nonpositive_volume_rejected(self):
        with pytest.raises(DomainError):
            chi_from_volume(-1.0)
        with pytest.raises(DomainError):
            chi_from_volume(0.0)

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(DomainError):
            chi_from_volume(13.0, 0.0)

    @pytest.mark.parametrize("volume", [math.nan, math.inf, -math.inf, "nan", "inf"])
    def test_non_finite_volume_rejected(self, volume):
        with pytest.raises(DomainError, match="finite"):
            chi_from_volume(volume)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, tolerance):
        with pytest.raises(DomainError, match="finite"):
            chi_from_volume(13.1594725348, tolerance)

    def test_tiny_volume_matches_nothing(self):
        with pytest.raises(NoLatticePointError):
            chi_from_volume(1e-9, 1e-6)

    @pytest.mark.parametrize("chi", [1, 2, 3, 50, 999, 4321])
    def test_round_trip_samples(self, chi):
        # full 1..10^4 round trip is an acceptance criterion
        assert chi_from_volume(volume_from_chi(chi).approx, 1e-6) == chi


class TestDoubledEuler:
    @pytest.mark.parametrize("chi, expected", [(1, 2), (0, 0), (7, 14), (-3, -6)])
    def test_values(self, chi, expected):
        assert doubled_euler(chi) == expected

    @given(a=st.integers(-10**9, 10**9), b=st.integers(-10**9, 10**9))
    def test_linear(self, a, b):
        assert doubled_euler(a + b) == doubled_euler(a) + doubled_euler(b)
