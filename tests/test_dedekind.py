"""Dedekind sums: sawtooth oracle, cotangent path, and their identities."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flateta import (
    DomainError,
    cot_exact,
    cyclotomic,
    dedekind,
    dedekind_cot,
    dedekind_sawtooth,
    sawtooth,
)
from flateta.cyclotomic import _reduce_int_mod_phi
from flateta.dedekind import COT_ALPHA_MAX, SAWTOOTH_ALPHA_MAX, _cot_table, _unpack


def coprime_pairs(max_alpha, include_negative=True):
    for alpha in range(1, max_alpha + 1):
        for beta in range(-alpha if include_negative else 1, alpha + 1):
            if gcd(beta, alpha) == 1:
                yield beta, alpha


@st.composite
def _coprime_pair(draw, max_alpha):
    alpha = draw(st.integers(1, max_alpha))
    residue = draw(st.sampled_from([r for r in range(alpha) if gcd(r, alpha) == 1]))
    return residue + alpha * draw(st.integers(-3, 3)), alpha


class TestSawtooth:
    @pytest.mark.parametrize(
        "x, expected",
        [
            (Fraction(1, 2), Fraction(0)),
            (Fraction(1, 4), Fraction(-1, 4)),
            (Fraction(7, 3), Fraction(-1, 6)),
            (Fraction(-1, 4), Fraction(1, 4)),
            (Fraction(5), Fraction(0)),
            (0, Fraction(0)),
        ],
    )
    def test_values(self, x, expected):
        assert sawtooth(x) == expected

    @given(x=st.fractions(min_value=-100, max_value=100, max_denominator=50))
    @settings(deadline=None)
    def test_periodic_and_odd(self, x):
        assert sawtooth(x + 1) == sawtooth(x)
        assert sawtooth(-x) == -sawtooth(x)


class TestSawtoothSum:
    def test_empty_sum(self):
        assert dedekind_sawtooth(1, 1) == 0

    def test_known_values(self):
        assert dedekind_sawtooth(3, 7) == Fraction(-1, 14)
        assert dedekind_sawtooth(1, 3) == Fraction(1, 18)

    def test_matches_its_literal_definition(self):
        # The integer sum against sum ((k/alpha)) ((k*beta/alpha)) itself,
        # beta < 0 and beta > alpha included.
        for alpha in range(1, 61):
            for beta in range(-2 * alpha - 1, 2 * alpha + 2):
                if gcd(beta, alpha) == 1:
                    literal = sum(
                        (sawtooth(Fraction(k, alpha)) * sawtooth(Fraction(k * beta, alpha))
                         for k in range(1, alpha)),
                        Fraction(0),
                    )
                    assert dedekind_sawtooth(beta, alpha) == literal, (beta, alpha)

    @pytest.mark.parametrize("n", range(2, 61))
    def test_closed_form_for_beta_one(self, n):
        assert dedekind_sawtooth(1, n) == Fraction((n - 1) * (n - 2), 12 * n)

    def test_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            dedekind_sawtooth(2, 4)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(DomainError):
            dedekind_sawtooth(1, 0)

    def test_refuses_alpha_above_ceiling(self):
        n = SAWTOOTH_ALPHA_MAX
        assert dedekind_sawtooth(1, n) == Fraction((n - 1) * (n - 2), 12 * n)
        with pytest.raises(DomainError, match="SAWTOOTH_ALPHA_MAX"):
            dedekind_sawtooth(1, n + 1)


class TestCotangentSum:
    @pytest.mark.parametrize(
        "beta, alpha, expected",
        [
            (1, 2, Fraction(0)),
            (-1, 6, Fraction(-5, 18)),
            (-1, 3, Fraction(-1, 18)),
            (3, 7, Fraction(-1, 14)),
            (1, 1, Fraction(0)),
        ],
    )
    def test_known_values(self, beta, alpha, expected):
        assert dedekind_cot(beta, alpha) == expected

    def test_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            dedekind_cot(3, 6)

    def test_matches_sawtooth_oracle(self):
        # quick sweep; the full alpha <= 60 sweep is an acceptance criterion
        for beta, alpha in coprime_pairs(20):
            assert dedekind_cot(beta, alpha) == dedekind_sawtooth(beta, alpha), (
                beta,
                alpha,
            )

    @given(pair=_coprime_pair(max_alpha=400))
    @settings(max_examples=12, deadline=None)
    def test_matches_sawtooth_oracle_on_random_pairs(self, pair):
        beta, alpha = pair
        assert dedekind_cot(beta, alpha) == dedekind_sawtooth(beta, alpha)

    @pytest.mark.parametrize("beta, alpha", [(7, 997), (3, 998), (7, 999), (7, 1000)])
    def test_matches_sawtooth_oracle_near_ceiling(self, beta, alpha):
        # one alpha per class mod 4, so both parities of M/4, where the
        # slot bound (alpha//2 + 1) * deg * D^2 is largest
        assert dedekind_cot(beta, alpha) == dedekind_sawtooth(beta, alpha)

    def test_irrational_remainder_fails_certification(self, monkeypatch):
        # a sum with anything left past the constant term must not be returned
        monkeypatch.setattr(dedekind, "_reduce_int_mod_phi", lambda vec, order: [0, 1])
        dedekind._cot_sum.cache_clear()
        with pytest.raises(RuntimeError, match="failed rationality certification"):
            dedekind_cot(2, 5)

    @pytest.mark.parametrize("route", [dedekind_cot, dedekind_sawtooth])
    @pytest.mark.parametrize("beta, alpha", [(1.5, 3), (1, 3.0), (Fraction(1), 3)])
    def test_rejects_non_integer_arguments(self, route, beta, alpha):
        with pytest.raises(DomainError, match="must be ints"):
            route(beta, alpha)

    def test_refuses_alpha_above_ceiling(self):
        with pytest.raises(DomainError, match=str(COT_ALPHA_MAX)):
            dedekind_cot(1, COT_ALPHA_MAX + 1)
        with pytest.raises(DomainError):
            dedekind_cot(1, 10**9)


@pytest.mark.parametrize("alpha", [*range(2, 121), 997, 998, 999, 1000])
def test_packed_table_rows_are_scaled_cotangents(alpha):
    # every row, the negated back half included, read back, spread onto
    # Q(zeta_M) with step M/alpha, shifted by M/4 (times i) and reduced mod
    # Phi_M, is den * cot(k*pi/alpha)
    den, bits, slots, rows = _cot_table(alpha)
    order = lcm(4, 2 * alpha)
    step, quarter = order // alpha, order // 4
    for k in range(1, alpha):
        spread = [0] * (quarter + step * slots)
        spread[quarter::step] = _unpack(rows[k], slots, bits)
        value = cot_exact(k, alpha)
        assert den % value.denominator == 0
        expected = [c * (den // value.denominator) for c in value.numerator]
        assert _reduce_int_mod_phi(spread, order) == expected, k


@pytest.mark.parametrize("alpha, den, bits", [(200, 5, 24), (180, 15, 32)])
def test_table_is_over_its_least_common_denominator(alpha, den, bits):
    # alpha itself, 200 and 180, would need 32- and 40-bit slots
    assert _cot_table(alpha)[:2] == (den, bits)


@pytest.mark.parametrize("alpha", range(2, 61))
def test_table_denominator_is_in_lowest_terms(alpha):
    den, bits, slots, rows = _cot_table(alpha)
    entries = [c for row in rows[1:] for c in _unpack(row, slots, bits)]
    assert gcd(den, *entries) == 1


@pytest.mark.parametrize("alpha", [100, 144, 180, 200])
def test_every_residue_matches_sawtooth(alpha):
    # composite alphas whose tables lose a factor to lowest terms
    for beta in range(alpha):
        if gcd(beta, alpha) == 1:
            assert dedekind_cot(beta, alpha) == dedekind_sawtooth(beta, alpha), beta


def test_table_past_64_bit_slots_is_an_internal_error(monkeypatch):
    # the packer writes 8-byte entries; a wider slot must never be packed
    monkeypatch.setattr(dedekind, "_slot_bits", lambda bound: 72)
    dedekind._cot_table.cache_clear()
    with pytest.raises(RuntimeError, match="internal error.*72-bit slots"):
        _cot_table(5)


def test_widest_table_is_56_bits():
    # alpha = 595 is the first of the 21 alphas <= COT_ALPHA_MAX whose
    # table needs 56-bit slots, the widest any needs; its longest row
    # fills deg Phi_595 = 384 slots.  Each sum there takes about 0.1 s,
    # so a sample of its 384 residues is checked.
    _, bits, slots, _ = _cot_table(595)
    assert (bits, slots) == (56, 384)
    for beta in (1, 2, 3, 4, 297, 298, 593, 594):
        assert dedekind_cot(beta, 595) == dedekind_sawtooth(beta, 595), beta


def test_field_set_up_is_shared_with_cot_exact():
    # a table builds Q(zeta_alpha)'s reduction once; cot_exact in the same
    # alpha reuses it and adds Q(zeta_M)'s, M = lcm(4, 2*alpha), once
    dedekind._cot_sum.cache_clear()
    dedekind._cot_table.cache_clear()
    cyclotomic._reduction.cache_clear()
    dedekind_cot(1, 60)
    misses = cyclotomic._reduction.cache_info().misses
    cot_exact(1, 60)
    assert cyclotomic._reduction.cache_info().misses == misses + 1
    for k in range(2, 60):
        cot_exact(k, 60)
    assert cyclotomic._reduction.cache_info().misses == misses + 1


@pytest.mark.parametrize(
    "module, names",
    [
        (cyclotomic, {"_reduction"}),
        (dedekind, {"_cot_sum", "_cot_table"}),
    ],
    ids=["cyclotomic", "dedekind"],
)
def test_module_caches_clear_and_report(module, names):
    caches = {
        name: obj
        for name, obj in vars(module).items()
        if hasattr(obj, "__wrapped__") and obj.__module__ == module.__name__
    }
    assert set(caches) == names
    dedekind_cot(5, 24)
    for fn in caches.values():
        assert fn.cache_info().currsize > 0
        fn.cache_clear()
        assert fn.cache_info().currsize == 0
    assert dedekind_cot(5, 24) == dedekind_sawtooth(5, 24)


class TestIdentities:
    def test_periodicity(self):
        for beta, alpha in coprime_pairs(40):
            assert dedekind_sawtooth(beta + alpha, alpha) == dedekind_sawtooth(
                beta, alpha
            )

    def test_periodicity_cotangent_path(self):
        for beta, alpha in coprime_pairs(12):
            assert dedekind_cot(beta + alpha, alpha) == dedekind_cot(beta, alpha)

    def test_oddness(self):
        for beta, alpha in coprime_pairs(40):
            assert dedekind_sawtooth(-beta, alpha) == -dedekind_sawtooth(beta, alpha)

    def test_oddness_cotangent_path(self):
        for beta, alpha in coprime_pairs(12):
            assert dedekind_cot(-beta, alpha) == -dedekind_cot(beta, alpha)

    def test_reciprocity_instance(self):
        assert dedekind_sawtooth(3, 7) + dedekind_sawtooth(7, 3) == Fraction(-1, 63)

    def test_reciprocity(self):
        # capped here for speed; alpha <= 60 is an acceptance criterion
        for alpha in range(2, 26):
            for beta in range(1, alpha):
                if gcd(beta, alpha) != 1:
                    continue
                lhs = dedekind_sawtooth(beta, alpha) + dedekind_sawtooth(alpha, beta)
                rhs = (
                    Fraction(-1, 4)
                    + Fraction(1, 12)
                    * (
                        Fraction(alpha, beta)
                        + Fraction(beta, alpha)
                        + Fraction(1, alpha * beta)
                    )
                )
                assert lhs == rhs, (beta, alpha)
