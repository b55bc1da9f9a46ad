"""Exact rational and cyclotomic field arithmetic."""

import cmath
import math
import threading
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flateta import (
    CertificationError,
    CyclotomicElement,
    DomainError,
    PoleError,
    cot_exact,
    cyclotomic_polynomial,
    root_of_unity,
)
from flateta.cyclotomic import FIELD_ORDER_MAX, _int_product, _pack, _slot_bits, _unpack
from flateta.dedekind import COT_ALPHA_MAX

from helpers import embed_complex


def _poly_mul(a, b):
    # independent dense multiplication for the divisor-product identity
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestCyclotomicPolynomial:
    @pytest.mark.parametrize(
        "order, expected",
        [
            (1, (-1, 1)),
            (2, (1, 1)),
            (3, (1, 1, 1)),
            (4, (1, 0, 1)),
            (6, (1, -1, 1)),
            (8, (1, 0, 0, 0, 1)),
            (12, (1, 0, -1, 0, 1)),
        ],
    )
    def test_small_values(self, order, expected):
        assert cyclotomic_polynomial(order) == expected

    @pytest.mark.parametrize("order", range(1, 31))
    def test_product_over_divisors_is_x_n_minus_1(self, order):
        product = [1]
        for d in range(1, order + 1):
            if order % d == 0:
                product = _poly_mul(product, list(cyclotomic_polynomial(d)))
        assert product == [-1] + [0] * (order - 1) + [1]

    @pytest.mark.parametrize("order", range(1, 61))
    def test_vanishes_at_primitive_root(self, order):
        zeta = cmath.exp(2j * cmath.pi / order)
        value = sum(c * zeta**j for j, c in enumerate(cyclotomic_polynomial(order)))
        assert abs(value) < 1e-9

    def test_invalid_order(self):
        with pytest.raises(DomainError):
            cyclotomic_polynomial(0)


def _summed_products(pairs, length):
    # the schoolbook oracle for a sum of packed products
    out = [0] * (2 * length - 1)
    for a, b in pairs:
        for i, c in enumerate(_poly_mul(a, b)):
            out[i] += c
    return out


@st.composite
def _vector_pairs(draw, extreme=False):
    """(length, top, pairs): equal-length signed vectors with entries of
    absolute value at most top; with extreme, every entry is +-top."""
    length = draw(st.integers(1, 12))
    top = draw(st.integers(0, 2**80))
    entry = st.sampled_from((-top, top)) if extreme else st.integers(-top, top)
    vector = st.lists(entry, min_size=length, max_size=length)
    pairs = draw(st.lists(st.tuples(vector, vector), min_size=1, max_size=6))
    return length, top, pairs


class TestPackedConvolution:
    @staticmethod
    def _packed_sum(length, top, pairs):
        bits = _slot_bits(len(pairs) * length * top * top)
        total = sum(_pack(a, bits) * _pack(b, bits) for a, b in pairs)
        return _unpack(total, 2 * length - 1, bits)

    @given(case=_vector_pairs())
    @settings(max_examples=150, deadline=None)
    def test_sum_of_products_matches_schoolbook(self, case):
        length, top, pairs = case
        assert self._packed_sum(length, top, pairs) == _summed_products(pairs, length)

    @given(case=_vector_pairs(extreme=True))
    @settings(max_examples=150, deadline=None)
    def test_every_slot_at_full_magnitude(self, case):
        length, top, pairs = case
        assert self._packed_sum(length, top, pairs) == _summed_products(pairs, length)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("length, count, top", [(1, 1, 1), (5, 3, 127), (9, 4, 2**40 - 1)])
    def test_bound_is_reached_without_carry(self, sign, length, count, top):
        # all entries equal: the middle slot is exactly count * length * top^2
        pairs = [([top] * length, [sign * top] * length)] * count
        result = self._packed_sum(length, top, pairs)
        assert result[length - 1] == sign * count * length * top * top
        assert result == _summed_products(pairs, length)

    @given(
        a=st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=14),
        b=st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=14),
    )
    @settings(max_examples=150, deadline=None)
    def test_int_product_matches_schoolbook(self, a, b):
        assert _int_product(a, b) == _poly_mul(a, b)

    def test_int_product_with_zero_vector(self):
        assert _int_product([10**30, -5], [0, 0, 0]) == [0, 0, 0, 0]

    @pytest.mark.parametrize("excess", [1 << 24, -(1 << 24)])
    def test_overflow_past_the_top_slot_is_an_internal_error(self, excess):
        with pytest.raises(RuntimeError, match="internal error"):
            _unpack(excess, 3, 8)


class TestRootsOfUnity:
    def test_i_squared_is_minus_one(self):
        i = root_of_unity(4)
        assert i * i == -1

    def test_zeta3_plus_zeta3_squared_is_minus_one(self):
        z = root_of_unity(3)
        assert z + z * z == -1

    def test_adding_zero_is_identity(self):
        for order in (1, 2, 3, 5, 8, 24):
            z = root_of_unity(order)
            assert z + CyclotomicElement.zero() == z

    @pytest.mark.parametrize("order", range(1, 25))
    def test_repeated_multiplication_closes_cycle(self, order):
        z = root_of_unity(order)
        acc = CyclotomicElement.one()
        for _ in range(order):
            acc = acc * z
        assert acc == 1

    def test_mixed_orders_promote_to_lcm(self):
        assert root_of_unity(2) * root_of_unity(3) == root_of_unity(6, 5)
        assert root_of_unity(4) + root_of_unity(4, 3) == 0


_small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


def _elements(order):
    degree = len(cyclotomic_polynomial(order)) - 1
    return st.lists(
        _small_fractions, min_size=degree, max_size=degree
    ).map(lambda coeffs: CyclotomicElement(order, coeffs))


class TestFieldAxioms:
    @given(a=_elements(12), b=_elements(12), c=_elements(12))
    @settings(max_examples=60, deadline=None)
    def test_ring_identities(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    def test_negative_power_refused_promptly(self):
        # without the guard, square-and-multiply on a negative exponent
        # never terminates: -1 >> 1 == -1
        outcome = []

        def attempt():
            try:
                root_of_unity(5) ** -1
            except DomainError:
                outcome.append("refused")

        worker = threading.Thread(target=attempt, daemon=True)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert outcome == ["refused"]


class TestFieldOrderCeiling:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: cyclotomic_polynomial(10**12 + 39),  # trial division alone ran > 10 s
            lambda: CyclotomicElement(FIELD_ORDER_MAX + 1, [1]),
            lambda: root_of_unity(FIELD_ORDER_MAX + 1),
            lambda: cot_exact(1, 2001),  # lcm(4, 4002) = 8004
            lambda: root_of_unity(3) * root_of_unity(1999),  # promoted to order 5997
        ],
        ids=["polynomial", "element", "root_of_unity", "cot_exact", "promoted"],
    )
    def test_refused_promptly(self, call):
        outcome = []

        def attempt():
            try:
                call()
            except DomainError as exc:
                outcome.append(str(exc))

        worker = threading.Thread(target=attempt, daemon=True)
        worker.start()
        worker.join(timeout=1)
        assert not worker.is_alive()
        assert len(outcome) == 1 and "FIELD_ORDER_MAX" in outcome[0]

    def test_promotion_refused_before_spreading(self):
        wide = CyclotomicElement(3989, range(3988))  # 3989 and 3967 are prime
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="FIELD_ORDER_MAX"):
                wide * root_of_unity(3967)  # spread to order 3989 * 3967: 16M slots
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_covers_every_dedekind_field(self):
        assert FIELD_ORDER_MAX == 4 * COT_ALPHA_MAX
        assert max(math.lcm(4, 2 * n) for n in range(1, COT_ALPHA_MAX + 1)) <= FIELD_ORDER_MAX
        assert cot_exact(1, 999).order == 3996
        assert root_of_unity(FIELD_ORDER_MAX).order == FIELD_ORDER_MAX


class TestRepresentation:
    @given(coeffs=st.lists(_small_fractions, min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_integer_vector_in_lowest_terms(self, coeffs):
        elem = CyclotomicElement(12, coeffs)  # deg Phi_12 = 4: already reduced
        assert elem.coefficients + (0,) * (4 - len(elem.coefficients)) == tuple(coeffs)
        assert elem.denominator > 0
        assert math.gcd(elem.denominator, *elem.numerator) == 1
        assert not elem.numerator or elem.numerator[-1] != 0

    def test_constructor_folds_and_reduces(self):
        # z^13 = z and z^4 = z^2 - 1 in Q(zeta_12)
        elem = CyclotomicElement(12, [0] * 4 + [Fraction(1, 2)] + [0] * 8 + [Fraction(1, 3)])
        assert (elem.numerator, elem.denominator) == ((-3, 2, 3), 6)


class TestCotExact:
    def test_cot_quarter_pi_is_one(self):
        assert cot_exact(1, 4).to_rational() == 1

    def test_cot_half_pi_is_zero(self):
        assert cot_exact(1, 2).is_zero

    def test_cot_sixth_pi_squares_to_three(self):
        c = cot_exact(1, 6)
        assert c * c == 3
        assert abs(embed_complex(c) - 1 / math.tan(math.pi / 6)) < 1e-12

    @pytest.mark.parametrize("k, n", [(0, 5), (5, 5), (10, 5), (-3, 3)])
    def test_poles_rejected(self, k, n):
        with pytest.raises(PoleError):
            cot_exact(k, n)

    def test_invalid_n(self):
        with pytest.raises(DomainError):
            cot_exact(1, 0)

    def test_matches_floating_cotangent(self):
        for n in range(2, 25):
            for k in range(1, n):
                if 2 * k == n:
                    continue
                value = embed_complex(cot_exact(k, n))
                expected = 1 / math.tan(k * math.pi / n)
                assert abs(value.real - expected) < 1e-9, (k, n)
                assert abs(value.imag) < 1e-9, (k, n)

    def test_periodic_in_k(self):
        assert cot_exact(1, 6) == cot_exact(7, 6) == cot_exact(-5, 6)


class TestToRational:
    def test_zero_element(self):
        assert CyclotomicElement.zero().to_rational() == Fraction(0, 1)

    def test_rational_cot(self):
        assert cot_exact(1, 4).to_rational() == Fraction(1, 1)

    def test_irrational_cot_fails_certification(self):
        with pytest.raises(CertificationError) as excinfo:
            cot_exact(1, 6).to_rational()
        assert excinfo.value.index >= 1

    @given(
        value=st.fractions(
            min_value=Fraction(-(10**6)), max_value=Fraction(10**6), max_denominator=10**6
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trips_rationals(self, value):
        assert CyclotomicElement.from_rational(value).to_rational() == value

    def test_embedding_at_higher_order_stays_rational(self):
        x = Fraction(-7, 3)
        promoted = CyclotomicElement.from_rational(x).promoted(12)
        assert promoted.to_rational() == x
