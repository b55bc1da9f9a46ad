"""Volume <-> Euler characteristic conversion for hyperbolic 4-manifolds."""

import math
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flateta import (
    LATTICE_COEFFICIENT,
    AmbiguousToleranceError,
    DomainError,
    NoLatticePointError,
    chi_from_volume,
    doubled_euler,
    volume_from_chi,
)
from flateta.errors import digit_limit
from helpers import within

# decimal digits past what the library reads: at least 5000, and past the
# limit in force (or CPython's default one when the limit is off)
LONG = max(5000, digit_limit() + 1)


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

    def test_twelve_digits_match_the_float_rendering_up_to_3e4(self):
        # below 10^6 the text has 12 significant digits, as the float rendering had
        floats = [f"{float(LATTICE_COEFFICIENT * chi) * math.pi**2:.12g}" for chi in range(1, 30001)]
        assert [volume_from_chi(chi).approx for chi in range(1, 30001)] == floats

    @settings(max_examples=300, deadline=None)
    @given(exponent=st.floats(0, 30))
    def test_log_uniform_chi_round_trips_up_to_1e30(self, exponent):
        chi = max(1, round(10**exponent))
        assert chi_from_volume(volume_from_chi(chi).approx) == chi

    @pytest.mark.parametrize("chi", [1, 7, 10**5 + 7, 10**10 + 7, 10**13 + 7, 10**16, 10**29 + 3])
    def test_text_is_the_correctly_rounded_volume(self, chi):
        with mpmath.workdps(80):
            volume = 4 * chi * mpmath.pi**2 / 3
            places = max(12 - len(str(int(volume))), 6)
            expected = mpmath.nstr(volume, len(str(int(volume))) + places, strip_zeros=False)
        assert volume_from_chi(chi).approx == expected.rstrip("0").rstrip(".")

    def test_largest_printable_chi_reads_back(self):
        # the cap is where a float of the volume would be infinite, so the
        # largest volume printed still reads back and the next chi is refused
        with mpmath.workdps(400):
            limit = mpmath.mpf(2) ** 1024 - mpmath.mpf(2) ** 970
            largest = int(mpmath.floor(limit * 3 / (4 * mpmath.pi**2)))
        assert chi_from_volume(volume_from_chi(largest).approx) == largest
        with pytest.raises(DomainError, match="too large"):
            volume_from_chi(largest + 1)

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

    def test_volume_past_the_float_spacing_is_refused(self):
        # a float's ulp at 9.87e16 is 16, wider than the spacing 13.16, and
        # the nearest lattice point lies 6.17 away
        with pytest.raises(NoLatticePointError):
            chi_from_volume(9.87e16)

    # 3900 at the default limit: the text's exponent + 50 digits stay within it
    @pytest.mark.parametrize("exponent", [40, digit_limit() - 400])
    @pytest.mark.parametrize("sign, expected", [(1, None), (-1, 7)])
    def test_decided_exactly_next_to_the_tolerance(self, exponent, sign, expected):
        # (4*pi^2/3)*7 + 1e-6 +/- 10^-exponent, as text and as a Decimal:
        # refused just outside the tolerance, 7 just inside
        with mpmath.workdps(exponent + 60):
            volume = 4 * 7 * mpmath.pi**2 / 3 + mpmath.mpf(10) ** -6
            text = mpmath.nstr(volume + sign * mpmath.mpf(10) ** -exponent, exponent + 50)
        for volume in (text, Decimal(text)):
            try:
                decided = within(1, lambda: chi_from_volume(volume))
            except NoLatticePointError:
                decided = None
            assert decided == expected

    def test_default_tolerance_is_exactly_1e_6(self):
        # the float 1e-6 is 4.5e-23 below 10^-6: it refuses what the default takes
        with mpmath.workdps(60):
            text = mpmath.nstr(4 * 7 * mpmath.pi**2 / 3 + mpmath.mpf(10) ** -6 - mpmath.mpf(10) ** -30, 50)
        assert chi_from_volume(text) == chi_from_volume(text, "1e-6") == 7
        with pytest.raises(NoLatticePointError):
            chi_from_volume(text, 1e-6)

    @pytest.mark.parametrize("volume", [f"1e{LONG}", f"1e-{LONG}", "1" * LONG, Decimal("1e-999999999")])
    @pytest.mark.parametrize("limit", [None, 0])
    def test_decimal_past_the_digit_limit_is_refused(self, volume, limit):
        # the default limit is 4300 digits; the refusal bounds the work on the text, which
        # grows with the exponent, so it holds with the limit off too, at the default limit
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(before if limit is None else limit)
        try:
            with pytest.raises(DomainError, match=f"more than {digit_limit()} digits"):
                chi_from_volume(volume)
        finally:
            sys.set_int_max_str_digits(before)


class TestDoubledEuler:
    @pytest.mark.parametrize("chi, expected", [(1, 2), (0, 0), (7, 14), (-3, -6)])
    def test_values(self, chi, expected):
        assert doubled_euler(chi) == expected

    @given(a=st.integers(-10**9, 10**9), b=st.integers(-10**9, 10**9))
    def test_linear(self, a, b):
        assert doubled_euler(a + b) == doubled_euler(a) + doubled_euler(b)
