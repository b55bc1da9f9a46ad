"""Dedekind sums: sawtooth oracle, cotangent path, and their identities."""

import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flateta import (
    DomainError,
    cot_exact,
    cyclotomic,
    cyclotomic_polynomial,
    dedekind,
    dedekind_cot,
    dedekind_sawtooth,
    sawtooth,
)
from flateta.cyclotomic import _reduce_int_mod_phi
from flateta.dedekind import COT_ALPHA_MAX, SAWTOOTH_ALPHA_MAX, _ramanujan, _traces


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
        # the largest alphas the route accepts: a prime (one trace, of
        # degree 996), 2 * 499, 27 * 37 and 8 * 125 (16 divisors)
        assert dedekind_cot(beta, alpha) == dedekind_sawtooth(beta, alpha)

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


def _trace_of_power(j, e):
    # Tr(w^j) over Q(zeta_e) as the trace of multiplication by w^j on the
    # power basis: the sum of the diagonal entries y^(i+j) mod Phi_e at y^i
    degree = len(cyclotomic_polynomial(e)) - 1
    total = 0
    for i in range(degree):
        rem = _reduce_int_mod_phi([0] * (i + j) + [1], e)
        total += rem[i] if i < len(rem) else 0
    return total


@pytest.mark.parametrize("e", range(2, 61))
def test_ramanujan_sums_are_traces_of_powers(e):
    assert _ramanujan(e) == [_trace_of_power(j, e) for j in range(e)]


@pytest.mark.parametrize("e", [*range(2, 61), 997, 999, 1000])
def test_trace_vector_is_the_trace_of_a_times_a_power(e):
    # D_e[k] = Tr(A(w) * w^k), A = e*(w + 1)/(w - 1) with A_0 = e and
    # A_j = 2j: reduce A * y^k mod Phi_e and take the trace through c_e
    # (pinned to the power-basis trace above); _traces keeps D_e / e
    (*_, (last, scale, d)) = _traces(e)
    assert (last, scale, len(d)) == (e, 1, e)
    c = _ramanujan(e)
    a = [e] + [2 * j for j in range(1, e)]
    for k in range(e):
        rem = _reduce_int_mod_phi([0] * k + a, e)
        assert e * d[k] == sum(r * c[j] for j, r in enumerate(rem)), k


@pytest.mark.parametrize("alpha, k", [(5, 1), (24, 7), (997, 400)])
@pytest.mark.parametrize("off_by", ["one", "alpha"])
def test_corrupted_trace_fails_certification(monkeypatch, alpha, k, off_by):
    # one entry of alpha's own trace vector, read by s(1, alpha) with weight
    # alpha - 2k, moved by 1 leaves 12*alpha*s fractional; moved by alpha it
    # leaves an integer that is no longer 1 + 1 mod alpha
    *rest, (e, scale, d) = _traces(alpha)
    d = list(d)
    d[k] += 1 if off_by == "one" else alpha
    monkeypatch.setattr(dedekind, "_traces", lambda alpha: (*rest, (e, scale, d)))
    dedekind._cot_sum.cache_clear()
    with pytest.raises(RuntimeError, match="internal error.*failed certification"):
        dedekind_cot(1, alpha)
    dedekind._cot_sum.cache_clear()


@pytest.mark.parametrize("alpha", range(2, 201))
def test_every_residue_matches_sawtooth(alpha):
    # the benchmark's ladder and everything between, every residue, each
    # alpha from a cold set-up
    dedekind._cot_sum.cache_clear()
    dedekind._traces.cache_clear()
    for beta in range(alpha):
        if gcd(beta, alpha) == 1:
            assert dedekind_cot(beta, alpha) == dedekind_sawtooth(beta, alpha), beta


def test_cold_sum_near_the_ceiling_stays_small():
    # alpha = 997 is prime, so its one trace vector, of 997 ints, is the
    # longest the route builds; the table it replaced peaked at 26.9 MiB
    dedekind._cot_sum.cache_clear()
    dedekind._traces.cache_clear()
    tracemalloc.start()
    try:
        value = dedekind_cot(1, 997)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == dedekind_sawtooth(1, 997)
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "module, names",
    [
        (cyclotomic, {"_reduction"}),
        (dedekind, {"_cot_sum", "_traces"}),
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
    cot_exact(5, 24)
    for fn in caches.values():
        assert fn.cache_info().currsize > 0
        fn.cache_clear()
        assert fn.cache_info().currsize == 0
    assert dedekind_cot(5, 24) == dedekind_sawtooth(5, 24)
    assert cot_exact(5, 24) == cot_exact(29, 24)


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
