"""Exact Dedekind sums by three independent routes.

``dedekind_cot`` answers, through integer reciprocity.  Write
b/alpha = [0; a_1, ..., a_n], b = beta mod alpha, from the Euclid loop
on (alpha, b), and A = a_1 - a_2 + ... +- a_n.  Then

    12*alpha*s(beta, alpha) = alpha*(A - 3) + b + b^-1    (n odd),
                              alpha*(A - 1) + b + b^-1    (n even),

the Barkan-Hickerson-Knuth form of the reciprocity law (Knuth, TAOCP
vol. 2, section 3.3.3; Hickerson, J. reine angew. Math. 290, 1977;
Rademacher-Grosswald, *Dedekind Sums*, ch. 3), b^-1 the inverse of b
mod alpha read from the denominators of the last two convergents.  It
is O(log alpha) integer steps with no per-alpha set-up.
``_reciprocity`` certifies every total before it is returned, by two
congruences whose code shares nothing with the loop
(Rademacher-Grosswald, ch. 3):

    12*alpha*s = b + b^-1  (mod alpha), b^-1 from pow(b, -1, alpha);
    12*alpha*s = alpha + 1 - 2*(b|alpha)  (mod 8) for odd alpha, and for
    even alpha (so odd b), by the reciprocity law and the odd case at
    (alpha, b), 12*alpha*s = b*(alpha^2 + b^2 + 1 - 4*alpha*b - alpha
    + 2*alpha*(alpha|b))  (mod 8),

(.|.) the Jacobi symbol; anything else is an internal error.  A moved
by d still passes both when 8 | d*alpha, so the tests and
tools/dedekind_domain.py, which compare the routes, stay the full
guard.

``dedekind_sawtooth`` is the elementary arithmetic form

    s(beta, alpha) = sum_{k=1}^{alpha-1} ((k/alpha)) ((k*beta/alpha)),

deliberately kept free of any shared machinery so that it can serve as
an oracle.  It sums the alpha - 1 products as integers over one
denominator 4*alpha^2, and tests pin it to the sum of ``sawtooth``
products itself; it is refused above ``SAWTOOTH_ALPHA_MAX``.

``_cot_sum`` is the paper's cotangent form

    s(beta, alpha) = (1/(4*alpha)) * sum_{k=1}^{alpha-1}
                        cot(k*pi*beta/alpha) * cot(k*pi/alpha)

evaluated exactly as a sum of Galois traces; the ``dedekind`` command
prints it as its cotangent path.  With X(w) = (w + 1)/(w - 1),
cot(k*pi/alpha) = i*X(zeta_alpha^k), so each term is -X(w)*X(w^beta),
w = zeta_alpha^k.  Group the k by e = alpha/gcd(k, alpha): w then runs
once over the primitive e-th roots of unity, so each group is the trace
from Q(zeta_e) to Q of X(w)*X(w^beta) (Rademacher-Grosswald, ch. 2;
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

certified as it is computed: 12*alpha*s must be an integer congruent to
beta + beta^-1 mod alpha, anything else is an internal error.
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


# Largest alpha that dedekind_cot and the ``dedekind`` command accept: the
# command's contract, since it prints the trace and sawtooth routes beside
# the answer, and for a library caller's big int the only cost bound.  The
# answer takes O(log alpha) Euclid steps on ints of alpha's size, so its
# cost grows about as digits^2: _reciprocity on consecutive Fibonacci
# numbers takes 0.001 s at 300 digits, 0.005 s at 1,000 and 0.08 s at
# 4,300 (best of 5, CPython 3.11.7, x86-64).
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
    """Dedekind sum s(beta, alpha), the value of the cotangent form.

    Answered by integer reciprocity in O(log alpha) steps with no
    per-alpha set-up, every total certified by two congruences (mod
    alpha and mod 8) before being returned.  alpha above COT_ALPHA_MAX
    is refused with DomainError.
    """
    _check_pair(beta, alpha)
    if alpha > COT_ALPHA_MAX:
        raise DomainError(
            f"alpha = {shown(alpha)} is above COT_ALPHA_MAX = {COT_ALPHA_MAX}, "
            "the largest alpha dedekind_cot accepts"
        )
    return _reciprocity(beta % alpha, alpha)


def _continued_fraction(b: int, alpha: int) -> int:
    """12*alpha*s(b, alpha) for 0 <= b < alpha coprime, by the
    Barkan-Hickerson-Knuth form (the module docstring) from the Euclid
    loop on (alpha, b): b/alpha = [0; a_1, ..., a_n], and the inverse of
    b mod alpha is q_(n-1) for n odd, alpha - q_(n-1) for n even, since
    b*q_(n-1) = (-1)^(n-1) mod alpha for q_k the convergents'
    denominators (q_n = alpha)."""
    x, y, total, odd, previous, current = alpha, b, 0, False, 0, 1
    while y:
        # a floor division and a multiply-subtract: cheaper than a divmod
        # call and its tuple on word-size ints
        a = x // y
        x, y = y, x - a * y
        total = a - total
        odd = not odd
        previous, current = current, a * current + previous
    # total is a_n - a_(n-1) + ... +- a_1, previous is q_(n-1)
    return alpha * (total - 3) + b + previous if odd else b - alpha * total - previous


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a|n) for odd n > 0 coprime to a (Cohen, *A Course
    in Computational Algebraic Number Theory*, algorithm 1.4.10)."""
    a, symbol = a % n, 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                symbol = -symbol
        if a & n & 3 == 3:
            symbol = -symbol
        a, n = n % a, a
    return symbol


@lru_cache
def _reciprocity(b: int, alpha: int) -> Fraction:
    """s(b, alpha) for 0 <= b < alpha coprime, by the Barkan-Hickerson-Knuth
    form, certified (the module docstring); any alpha >= 1."""
    twelve = _continued_fraction(b, alpha)
    if alpha & 1:
        eight = alpha + 1 - 2 * _jacobi(b, alpha)
    else:  # b is odd
        eight = b * (alpha * alpha + b * b + 1 - 4 * alpha * b - alpha + 2 * alpha * _jacobi(alpha, b))
    # 12*alpha*s: congruent to b + 1/b mod alpha and to Rademacher's value mod 8
    if (twelve - b - pow(b, -1, alpha)) % alpha or (twelve - eight) & 7:
        raise RuntimeError(
            "internal error: reciprocity Dedekind sum failed certification "
            f"for ({b}, {alpha})"
        )
    return Fraction(twelve, 12 * alpha)


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
    e > 1, s = alpha/e | n; a list, which callers only read."""
    c = _ramanujan(alpha)
    h = list(accumulate(map(add, c, c[1:]), initial=0))
    for e in range(2, alpha):
        if alpha % e == 0:
            s, c = alpha // e, _ramanujan(e)
            h[s::s] = map(add, h[s::s], accumulate(map(add, c, c[1:])))
    return h


def _cot_sum(beta: int, alpha: int) -> Fraction:
    """s(beta, alpha) by the cotangent form, one pass over alpha's trace
    vector; the ``dedekind`` command's cotangent path."""
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
