"""Exact cotangents in cyclotomic fields and the integer kernel under them."""

import cmath
import math
import random
import tracemalloc

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flateta import (
    DomainError,
    PoleError,
    cot_exact,
    cyclotomic_polynomial,
)
from flateta.cyclotomic import FIELD_ORDER_MAX, _reduce_int_mod_phi, _reduction
from flateta.dedekind import COT_ALPHA_MAX

from helpers import embed_complex, embed_mp, within


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


def _long_division(vec, order):
    # plain sparse long division mod the monic Phi_order, one leading term
    # at a time, with no fold: the oracle for the folded reduction
    phi = cyclotomic_polynomial(order)
    dd = len(phi) - 1
    rem = list(vec)
    terms = [(j, c) for j, c in enumerate(phi[:dd]) if c]
    for i in range(len(rem) - dd - 1, -1, -1):
        c = rem[i + dd]
        if c:
            for j, d in terms:
                rem[i + j] -= c * d
    rem = rem[:dd]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


class TestReduction:
    # every order to 600, odd ones folding with y^N = 1 and even ones with
    # y^(N/2) = -1, larger orders to 2310 with many or large prime factors,
    # and cot_exact's Q(zeta_M); after the fold, long division by Phi_3972
    # (3972 = 4*3*331) runs 666 steps over 440 nonzero lower terms, the
    # most of any field cot_exact reaches
    @pytest.mark.parametrize(
        "order",
        [*range(1, 601), 945, 960, 997, 999, 1155, 1994, 1998, 2000, 2310, 3972, 3996, 4000],
    )
    def test_matches_long_division(self, order):
        rng = random.Random(order)
        for length in (0, 1, order // 2, order - 1, order, order + 3, 2 * order, 3 * order + 1):
            vec = [rng.randint(-999, 999) for _ in range(length)]
            assert _reduce_int_mod_phi(vec, order) == _long_division(vec, order), length


class TestFieldOrderCeiling:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: cyclotomic_polynomial(10**12 + 39),  # trial division alone ran > 10 s
            lambda: cot_exact(1, 2001),  # lcm(4, 4002) = 8004
            lambda: cot_exact(1, 3).promoted(12 * 500),  # from Q(zeta_12) to order 6000
        ],
        ids=["polynomial", "cot_exact", "promoted"],
    )
    def test_refused_promptly(self, call):
        with pytest.raises(DomainError, match="FIELD_ORDER_MAX"):
            within(1, call)

    def test_slowest_field_answers_promptly(self):
        # cot(pi/993) in Q(zeta_3972), the longest long division of any
        # field cot_exact reaches (TestReduction), from an empty cache
        _reduction.cache_clear()
        assert within(1, lambda: cot_exact(1, 993)).order == 3972

    def test_promotion_refused_before_spreading(self):
        wide = cot_exact(1, 997)  # in Q(zeta_3988), 1992 coefficients
        assert len(wide.numerator) > 1000
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="FIELD_ORDER_MAX"):
                wide.promoted(3988 * 3967)  # refused before an O(order) list
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_covers_every_dedekind_field(self):
        assert FIELD_ORDER_MAX == 4 * COT_ALPHA_MAX
        assert max(math.lcm(4, 2 * n) for n in range(1, COT_ALPHA_MAX + 1)) <= FIELD_ORDER_MAX
        assert cot_exact(1, 999).order == 3996
        assert cot_exact(1, 4).promoted(FIELD_ORDER_MAX) == cot_exact(1, 4)  # cot(pi/4) = 1


class TestRepresentation:
    @given(n=st.integers(2, 60), k=st.integers(-100, 100))
    @settings(max_examples=100, deadline=None)
    def test_integer_vector_in_lowest_terms(self, n, k):
        # == compares numerator and denominator, so the form must be canonical
        assume(k % n)
        elem = cot_exact(k, n)
        assert elem.denominator > 0
        assert math.gcd(elem.denominator, *elem.numerator) == 1
        assert not elem.numerator or elem.numerator[-1] != 0
        assert elem.order == (1 if len(elem.numerator) <= 1 else math.lcm(4, 2 * n))


class TestCotExact:
    @given(n=st.integers(1, 300), k=st.integers(-1000, 1000))
    @settings(max_examples=200, deadline=None)
    def test_nonzero_entries_share_the_parity_of_a_quarter_order(self, n, k):
        # Phi_M(x) = Phi_(M/2)(x^2) and cot = zeta_M^(M/4) * (polynomial in
        # zeta_M^2), as M/n is even
        assume(k % n)
        elem = cot_exact(k, n)
        assume(elem.order > 1)
        quarter = math.lcm(4, 2 * n) // 4
        assert all(j % 2 == quarter % 2 for j, c in enumerate(elem.numerator) if c)

    @staticmethod
    def _parts(elem):
        return elem.order, elem.numerator, elem.denominator

    def test_cot_quarter_pi_is_one(self):
        assert self._parts(cot_exact(1, 4)) == (1, (1,), 1)

    def test_cot_half_pi_is_zero(self):
        assert self._parts(cot_exact(1, 2)) == (1, (), 1)

    def test_cot_sixth_pi_squares_to_three(self):
        # sqrt(3) = z + z^-1 = 2z - z^3 in Q(zeta_12), since z^4 = z^2 - 1
        c = cot_exact(1, 6)
        assert (c.order, c.coefficients) == (12, (0, 2, 0, -1))
        assert abs(embed_mp(c) ** 2 - 3) < mpmath.mpf(10) ** -45
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
        assert hash(cot_exact(1, 6)) == hash(cot_exact(7, 6))

    def test_is_immutable(self):
        value = cot_exact(1, 6)
        with pytest.raises(AttributeError):
            value.order = 24
        assert value.order == 12

    def test_promotion_to_another_field_is_refused(self):
        # cot(pi/3) lives in Q(zeta_12) and is read there only: fields that
        # contain Q(zeta_12) (24, 72) are refused as well as one that does not
        value = cot_exact(1, 3)
        assert value.promoted(12) is value
        for order in (24, 72, 5):
            with pytest.raises(DomainError, match=f"not promoted to another field .order {order}."):
                value.promoted(order)

    def test_embedding_at_higher_order_stays_rational(self):
        promoted = cot_exact(3, 4).promoted(24)  # cot(3*pi/4) = -1
        assert self._parts(promoted) == (1, (-1,), 1)
