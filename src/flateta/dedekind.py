"""Exact Dedekind sums by two independent routes.

``dedekind_sawtooth`` is the elementary arithmetic form

    s(beta, alpha) = sum_{k=1}^{alpha-1} ((k/alpha)) ((k*beta/alpha))

and ``dedekind_cot`` is the cotangent form

    s(beta, alpha) = (1/(4*alpha)) * sum_{k=1}^{alpha-1}
                        cot(k*pi*beta/alpha) * cot(k*pi/alpha)

evaluated exactly as a sum of Galois traces.  The two must agree on every
coprime pair; the sawtooth route is deliberately kept free of any shared
machinery so it can serve as an oracle for the cotangent route.  It sums
the alpha - 1 products as integers over one denominator 4*alpha^2, and
tests pin it to the sum of ``sawtooth`` products itself; it is refused
above ``SAWTOOTH_ALPHA_MAX``.

The cotangent route.  With X(w) = (w + 1)/(w - 1), cot(k*pi/alpha) =
i*X(zeta_alpha^k), so each term is -X(w)*X(w^beta), w = zeta_alpha^k.
Group the k by e = alpha/gcd(k, alpha): w then runs once over the
primitive e-th roots of unity, so each group is the trace from Q(zeta_e)
to Q of X(w)*X(w^beta) (Rademacher-Grosswald, *Dedekind Sums*, ch. 2;
Washington, *Introduction to Cyclotomic Fields*, ch. 2).  Since
1/(w - 1) = (1/e) * sum_{j<e} j*w^j and 1 + w + ... + w^(e-1) = 0,
e*X(w) = A(w) with A_0 = e and A_j = 2j (j >= 1), and

    s(beta, alpha) = -(1/(4*alpha)) * sum_{e | alpha, e > 1} e^-2
                        * sum_{j<e} A_j * D_e[j*beta mod e],
    D_e[k] = Tr(A(w) * w^k) = sum_i A_i * c_e(i + k),

with c_e(n) = Tr(w^n) Ramanujan's sum, sum_{d | gcd(n, e)} mu(e/d)*d
(Hardy-Wright, section 16.6).  D_e does not depend on beta, and it is
the product of A reversed with (c_e, c_e), which A's arithmetic
coefficients make one running sum: D_e[0] = 0 and D_e[k+1] - D_e[k] =
e*(c_e(k) + c_e(k+1)), so every D_e[k] is e times an integer.  Complex
conjugation (w -> 1/w) fixes the trace, leaves c_e alone and negates
A(w), so D_e[e-j] = -D_e[j]: j pairs with e - j, weight (e - 2j)/e.
Put k = j*alpha/e.  The weight becomes (alpha - 2k)/alpha and the index
j*beta mod e becomes (k*beta mod alpha)*e/alpha for every divisor alike,
so ``_traces`` adds the vectors up once per alpha, from sigma(alpha)
integers, into H: H[n] sums D_e[n*e/alpha]/e over the e with (alpha/e) | n.
H is odd too, and ``_cot_sum`` is one pass of ceil(alpha/2) - 1 terms,

    s(beta, alpha) = (1/(2*alpha^2)) * sum_{1 <= k < alpha/2}
                        (alpha - 2k) * H[k*beta mod alpha],

and certifies every answer before it is returned: 12*alpha*s must be an
integer congruent to beta + beta^-1 mod alpha (Rademacher-Grosswald,
ch. 3), anything else is an internal error.  The route is refused above
``COT_ALPHA_MAX``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd
from operator import add

from .errors import DomainError, shown


def sawtooth(x) -> Fraction:
    """The sawtooth ((x)): x - floor(x) - 1/2 for non-integers, 0 at integers.

    >>> sawtooth(Fraction(7, 3))
    Fraction(-1, 6)
    """
    try:
        x = Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise DomainError(f"x must be a rational number, got {shown(x)}") from None
    if x.denominator == 1:
        return Fraction(0)
    floor = x.numerator // x.denominator
    return x - floor - Fraction(1, 2)


def _check_pair(beta: int, alpha: int) -> None:
    if not (type(beta) is int and type(alpha) is int):
        raise DomainError(f"beta and alpha must be ints, got {shown(beta)} and {shown(alpha)}")
    if alpha < 1:
        raise DomainError(f"alpha must be >= 1, got {shown(alpha)}")
    if gcd(beta, alpha) != 1:
        raise DomainError(f"gcd({shown(beta)}, {shown(alpha)}) != 1: "
                          "Dedekind sums need coprime arguments")


# Largest alpha the cotangent route accepts.  Set-up costs sigma(alpha)
# and a sum ceil(alpha/2) - 1 terms: a cold alpha = 997 takes about 0.2 ms
# (README's table), so the ceiling is the ``dedekind`` command's contract.
COT_ALPHA_MAX = 1000


# Largest alpha the sawtooth route sums: its alpha - 1 integer products
# take about 1.5 ms at 10^4 (CPython 3.11, x86-64) and grow linearly, so a
# larger alpha is refused rather than left to run.
SAWTOOTH_ALPHA_MAX = 10**4


def dedekind_sawtooth(beta: int, alpha: int) -> Fraction:
    """Dedekind sum by direct summation of sawtooth products.

    Brute force on purpose: this is the independent oracle for
    ``dedekind_cot``.  alpha = 1 gives the empty sum 0; alpha above
    SAWTOOTH_ALPHA_MAX is refused with DomainError.
    """
    _check_pair(beta, alpha)
    if alpha > SAWTOOTH_ALPHA_MAX:
        raise DomainError(
            f"alpha = {shown(alpha)} is above SAWTOOTH_ALPHA_MAX = {SAWTOOTH_ALPHA_MAX}, "
            "the largest alpha the sawtooth route sums"
        )
    # For coprime beta and 0 < k < alpha neither k/alpha nor k*beta/alpha is
    # an integer, so ((k/alpha)) = (2k - alpha)/(2*alpha) and
    # ((k*beta/alpha)) = (2*(k*beta mod alpha) - alpha)/(2*alpha).
    b = beta % alpha
    total = sum((2 * k - alpha) * (2 * (k * b % alpha) - alpha) for k in range(1, alpha))
    return Fraction(total, 4 * alpha * alpha)


def dedekind_cot(beta: int, alpha: int) -> Fraction:
    """Dedekind sum through exact traces of cotangent products.

    The summand has period alpha in beta, which the implementation
    exploits; the arithmetic is one integer pass over half of alpha's
    summed trace vector, and every total is certified
    (12*alpha*s an integer congruent to beta + 1/beta mod alpha) before
    being returned.  alpha above COT_ALPHA_MAX is refused with
    DomainError.
    """
    _check_pair(beta, alpha)
    if alpha > COT_ALPHA_MAX:
        raise DomainError(
            f"alpha = {shown(alpha)} is above {COT_ALPHA_MAX}, the largest alpha "
            "the cyclotomic Dedekind route accepts"
        )
    return _cot_sum(beta % alpha, alpha)


def _squarefree(n: int) -> list[tuple[int, int]]:
    """(q, mu(q)) for every squarefree q dividing n >= 1, rad(n) last;
    mu(q) is -1 to the number of primes of q."""
    squarefree, rest, p = [(1, 1)], n, 2
    while rest > 1:
        if p * p > rest:  # rest is prime
            p = rest
        if rest % p == 0:
            squarefree += [(q * p, -mu) for q, mu in squarefree]
            while rest % p == 0:
                rest //= p
        p += 1
    return squarefree


def _ramanujan(e: int) -> list[int]:
    """Ramanujan's sum c_e(n), n = 0 .. e-1: mu(e/d)*d summed over the
    divisors d of gcd(n, e).  Only squarefree e/d count, so d = e/q."""
    c = [0] * e
    for q, mu in _squarefree(e):
        d = e // q
        c[::d] = [x + mu * d for x in c[::d]]
    return c


@lru_cache
def _traces(alpha: int) -> list[int]:
    """H[n] sums D_e[n/s]/e = sum_{i<n/s} (c_e(i) + c_e(i+1)) over e | alpha,
    e > 1, s = alpha/e | n.  A list, read only: tuples raised the sweep
    benchmark's peak RSS from 18.6 to 22.3 MiB (CPython 3.11)."""
    c = _ramanujan(alpha)
    h = list(accumulate(map(add, c, c[1:]), initial=0))
    for e in range(2, alpha):
        if alpha % e == 0:
            s, c = alpha // e, _ramanujan(e)
            h[s::s] = map(add, h[s::s], accumulate(map(add, c, c[1:])))
    return h


@lru_cache
def _cot_sum(beta: int, alpha: int) -> Fraction:
    h = _traces(alpha)
    total = sum((alpha - 2 * k) * h[k * beta % alpha] for k in range(1, (alpha + 1) // 2))
    # 12*alpha*s = 6*total/alpha: an integer, congruent to beta + 1/beta
    # mod alpha (Rademacher-Grosswald, ch. 3)
    twelve, rest = divmod(6 * total, alpha)
    if rest or (twelve - beta - pow(beta, -1, alpha)) % alpha:
        raise RuntimeError(
            "internal error: cotangent Dedekind sum failed certification "
            f"for ({beta}, {alpha})"
        )
    return Fraction(total, 2 * alpha * alpha)
