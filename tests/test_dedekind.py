"""Dedekind sums: the reciprocity answer, the sawtooth oracle, the cotangent
trace route, and their identities."""

import io
import tracemalloc
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flateta import (
    DomainError,
    cli,
    cot_exact,
    cyclotomic,
    dedekind,
    dedekind_cot,
    dedekind_sawtooth,
    gaussbonnet,
    parse_descriptor,
    run,
    sawtooth,
    seifert,
    volume_from_chi,
)
from flateta.dedekind import (
    COT_ALPHA_MAX,
    SAWTOOTH_ALPHA_MAX,
    _cot_sum,
    _jacobi,
    _ramanujan,
    _reciprocity,
    _squarefree,
    _traces,
)


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


def _trace_of_power(n, e):
    # Tr(w^n) over Q(zeta_e) from its definition: the sum of the conjugates
    # zeta_e^(j*n), gcd(j, e) = 1, whose imaginary parts cancel in pairs
    with mpmath.workdps(50):
        total = mpmath.fsum(mpmath.cospi(mpmath.mpf(2 * j * n) / e)
                            for j in range(e) if gcd(j, e) == 1)
        return int(mpmath.nint(total))


@pytest.mark.parametrize("e", range(2, 61))
def test_ramanujan_sums_are_traces_of_powers(e):
    traces = [_trace_of_power(n, e) for n in range(e)]
    assert _ramanujan(e) == traces
    assert _sterneck(e) == traces


def _moebius(q):
    primes, p = 0, 2
    while q > 1:
        if q % p == 0:
            q //= p
            if q % p == 0:
                return 0
            primes += 1
        p += 1
    return (-1) ** primes


def _sterneck(e):
    # c_e(n), n = 0 .. e-1, by von Sterneck's formula mu(m)*phi(e)/phi(m),
    # m = e/gcd(n, e) (Hardy-Wright, section 16.6), free of _ramanujan
    divisors = [m for m in range(1, e + 1) if e % m == 0]
    mu = {m: _moebius(m) for m in divisors}
    phi = {m: sum(gcd(j, m) == 1 for j in range(m)) for m in divisors}
    return [mu[m] * phi[e] // phi[m] for m in (e // gcd(n, e) for n in range(e))]


def test_squarefree_divisors_with_their_moebius_values():
    # rad(n) comes last: cyclotomic_polynomial reads it from there
    for n in range(1, 1001):
        expected = [(q, _moebius(q)) for q in range(1, n + 1) if n % q == 0 and _moebius(q)]
        pairs = _squarefree(n)
        assert sorted(pairs) == expected, n
        assert pairs[-1] == expected[-1], n


@pytest.mark.parametrize("alpha", [*range(2, 61), 997, 999, 1000])
def test_trace_vector_is_the_trace_of_a_times_a_power(alpha):
    # D_e[k] = Tr(A(w) * w^k) = sum_i A_i * c_e(i + k), A = e*(w + 1)/(w - 1)
    # with A_0 = e and A_i = 2i, summed term by term from that definition,
    # not by the running sum _traces uses; _traces keeps at n the sum of
    # D_e[n/s] / e over the divisors e > 1 with s = alpha/e dividing n
    h = _traces(alpha)
    assert len(h) == alpha
    expected = [0] * alpha
    for e in range(2, alpha + 1):
        if alpha % e == 0:
            c = _sterneck(e)
            a = [e] + [2 * i for i in range(1, e)]
            for k in range(e):
                trace = sum(a[i] * c[(i + k) % e] for i in range(e))
                assert trace % e == 0, (e, k)
                expected[k * (alpha // e)] += trace // e
    assert h == expected


@pytest.mark.parametrize("alpha, k", [(5, 1), (24, 7), (997, 400)])
@pytest.mark.parametrize("off_by", ["one", "alpha"])
def test_corrupted_trace_fails_certification(monkeypatch, alpha, k, off_by):
    # one entry of alpha's trace vector, read by s(1, alpha) with weight
    # alpha - 2k, moved by 1 leaves 12*alpha*s fractional; moved by alpha it
    # leaves an integer that is no longer 1 + 1 mod alpha
    h = list(_traces(alpha))
    h[k] += 1 if off_by == "one" else alpha
    monkeypatch.setattr(dedekind, "_traces", lambda alpha: h)
    with pytest.raises(RuntimeError, match="internal error.*failed certification"):
        _cot_sum(1, alpha)


@pytest.mark.parametrize("alpha", range(2, 201))
def test_every_residue_matches_sawtooth(alpha):
    # the benchmark's ladder and everything between, every residue, on the
    # trace route from a cold set-up and on the answering route
    dedekind._reciprocity.cache_clear()
    dedekind._traces.cache_clear()
    for beta in range(alpha):
        if gcd(beta, alpha) == 1:
            expected = dedekind_sawtooth(beta, alpha)
            assert _cot_sum(beta, alpha) == expected, beta
            assert dedekind_cot(beta, alpha) == expected, beta


@pytest.mark.parametrize("alpha", [997, 840])
def test_cold_sum_near_the_ceiling_stays_small(alpha):
    # alpha = 997 is the largest prime the route accepts, so one running
    # sum of 997 ints; 840 has the most divisors (32) of any alpha up to the
    # ceiling, so the most running sums
    dedekind._reciprocity.cache_clear()
    dedekind._traces.cache_clear()
    tracemalloc.start()
    try:
        value = _cot_sum(1, alpha)
        answer = dedekind_cot(1, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == answer == dedekind_sawtooth(1, alpha)
    assert peak < 1 << 20


def test_walk_over_every_alpha_keeps_retained_memory_small():
    # s(1, alpha) = (alpha - 1)(alpha - 2)/(12 alpha) for every alpha the
    # routes accept, one new trace set-up each; the caches are bounded, so
    # what stays after the walk is their last entries, not one per alpha
    dedekind._reciprocity.cache_clear()
    dedekind._traces.cache_clear()
    tracemalloc.start()
    try:
        for alpha in range(1, COT_ALPHA_MAX + 1):
            expected = Fraction((alpha - 1) * (alpha - 2), 12 * alpha)
            assert _cot_sum(1, alpha) == dedekind_cot(1, alpha) == expected
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current < 8 << 20


# Pairs at which each corruption below is caught: 8 does not divide alpha,
# so a total moved by alpha is no longer Rademacher's value mod 8.
CORRUPTED_PAIRS = [(3, 7), (5, 12), (79, 198), (400, 997), (10**17 + 3, 10**18 + 9)]


def _answer(beta, alpha):
    """s(beta, alpha) through dedekind_cot where it accepts alpha."""
    return _reciprocity(beta, alpha) if alpha > COT_ALPHA_MAX else dedekind_cot(beta, alpha)


def _bhk_twelve(b, alpha, moved=0):
    """12*alpha*s(b, alpha) from the Euclid loop's divmod form, its 3-tuple
    (A, n odd, b^-1), and the Barkan-Hickerson-Knuth formula; the first
    quotient moved by ``moved``, the remainders kept.  The reference for
    dedekind._continued_fraction."""
    x, y, total, odd, previous, current = alpha, b, 0, False, 0, 1
    while y:
        a, r = divmod(x, y)
        a, moved = a + moved, 0
        x, y, total, odd = y, r, a - total, not odd
        previous, current = current, a * current + previous
    total, odd, inverse = (total, True, previous) if odd else (-total, False, alpha - previous)
    return alpha * (total - 3 if odd else total - 1) + b + inverse


@pytest.mark.parametrize("beta, alpha", CORRUPTED_PAIRS)
@pytest.mark.parametrize(
    "change",
    [lambda twelve, alpha: twelve + alpha, lambda twelve, alpha: twelve + 1],
    ids=["alternating_sum", "inverse"],
)
def test_corrupted_loop_fails_certification(monkeypatch, beta, alpha, change):
    # the alternating sum moved by one moves 12*alpha*s by alpha, which the
    # mod-8 congruence sees; the inverse moved by one moves it by 1, which
    # the mod-alpha congruence sees
    loop = dedekind._continued_fraction
    monkeypatch.setattr(dedekind, "_continued_fraction", lambda b, alpha: change(loop(b, alpha), alpha))
    dedekind._reciprocity.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="internal error.*failed certification"):
            _answer(beta, alpha)
    finally:
        dedekind._reciprocity.cache_clear()


@pytest.mark.parametrize("beta, alpha", CORRUPTED_PAIRS)
def test_moved_partial_quotient_fails_certification(monkeypatch, beta, alpha):
    # a faithful copy of the loop with its first quotient off by one, its
    # remainders kept: the alternating sum and every convergent after it
    # move together
    assert _bhk_twelve(beta, alpha) == dedekind._continued_fraction(beta, alpha)
    assert _bhk_twelve(beta, alpha, moved=1) != _bhk_twelve(beta, alpha)
    monkeypatch.setattr(dedekind, "_continued_fraction",
                        lambda b, alpha: _bhk_twelve(b, alpha, moved=1))
    dedekind._reciprocity.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="internal error.*failed certification"):
            _answer(beta, alpha)
    finally:
        dedekind._reciprocity.cache_clear()


def _jacobi_by_euler(a, n):
    # (a|n) as the product of Legendre symbols a^((p-1)/2) mod p over the
    # prime factors p of n, with multiplicity
    symbol, p = 1, 3
    while n > 1:
        while n % p == 0:
            legendre = pow(a, (p - 1) // 2, p)
            symbol *= -1 if legendre == p - 1 else legendre
            n //= p
        p += 2
    return symbol


def test_jacobi_symbol_matches_euler_criterion():
    for n in range(1, 400, 2):
        for a in range(-n, 2 * n):
            if gcd(a, n) == 1:
                assert _jacobi(a, n) == _jacobi_by_euler(a, n), (a, n)


_BEYOND = st.integers(1, 10**18)


@st.composite
def _residue_pair(draw, alphas=_BEYOND):
    alpha = draw(alphas)
    b = draw(st.integers(0, alpha - 1).filter(lambda b: gcd(b, alpha) == 1))
    return b, alpha


class TestReciprocityBeyondTheCeiling:
    # _reciprocity itself has no ceiling: alpha up to 10^18
    @given(pair=_residue_pair())
    @settings(deadline=None)
    def test_six_alpha_s_is_an_integer(self, pair):
        b, alpha = pair
        assert (6 * alpha * _reciprocity(b, alpha)).denominator == 1

    @given(pair=_residue_pair())
    @settings(deadline=None)
    def test_odd(self, pair):
        b, alpha = pair
        assert _reciprocity(-b % alpha, alpha) == -_reciprocity(b, alpha)

    @given(pair=_residue_pair())
    @settings(deadline=None)
    def test_inverse_has_the_same_sum(self, pair):
        b, alpha = pair
        assert _reciprocity(pow(b, -1, alpha), alpha) == _reciprocity(b, alpha)

    @given(pair=_residue_pair().filter(lambda pair: pair[0] > 0))
    @settings(deadline=None)
    def test_reciprocity_law(self, pair):
        b, alpha = pair
        law = Fraction(alpha * alpha + b * b + 1, 12 * alpha * b) - Fraction(1, 4)
        assert _reciprocity(b, alpha) + _reciprocity(alpha % b, b) == law

    @given(pair=_residue_pair())
    @settings(deadline=None)
    def test_loop_matches_the_divmod_reference(self, pair):
        assert dedekind._continued_fraction(*pair) == _bhk_twelve(*pair)

    @given(pair=_residue_pair(st.integers(1, SAWTOOTH_ALPHA_MAX)))
    @settings(max_examples=50, deadline=None)
    def test_matches_sawtooth_up_to_its_ceiling(self, pair):
        assert _reciprocity(*pair) == dedekind_sawtooth(*pair)

    @given(pair=_residue_pair(st.integers(1, COT_ALPHA_MAX)))
    @settings(deadline=None)
    def test_matches_the_trace_route_up_to_its_ceiling(self, pair):
        assert _reciprocity(*pair) == _cot_sum(*pair)


def _fill_caches():
    out = io.StringIO()
    assert run(["catalog", "--json"], stdout=out) == 0
    assert run(["dedekind", "5", "24", "--json"], stdout=out) == 0
    return (dedekind_cot(5, 24), cot_exact(5, 24), volume_from_chi(1), parse_descriptor("T2;"),
            out.getvalue())


@pytest.mark.parametrize(
    "module, names",
    [
        (cli, {"_catalog"}),
        (cyclotomic, {"_reduction"}),
        (dedekind, {"_reciprocity", "_traces"}),
        (gaussbonnet, {"_pi_squared"}),
        (seifert, {"_well_formed"}),
    ],
    ids=["cli", "cyclotomic", "dedekind", "gaussbonnet", "seifert"],
)
def test_module_caches_clear_and_report(module, names):
    caches = {
        name: obj
        for name, obj in vars(module).items()
        if hasattr(obj, "__wrapped__") and obj.__module__ == module.__name__
    }
    assert set(caches) == names
    before = _fill_caches()
    for fn in caches.values():
        assert fn.cache_info().maxsize is not None  # no memo grows without bound
        assert fn.cache_info().currsize > 0
        fn.cache_clear()
        assert fn.cache_info().currsize == 0
    assert _fill_caches() == before
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
