"""Exact scalar layer: Bernoulli numbers and polynomials, power sums of the
progression (base, base+1, ..., base+count-1), taken as the two arguments
`base, count`, generalised Stirling numbers, exact linear solving, and the
sum of many fractions as integer numerators per denominator.

Every function returns a `fractions.Fraction`; nothing here ever rounds.
Sign convention, fixed once for the whole package: B_1 = -1/2, i.e. B_m is
the coefficient of t^m/m! in t*e^{tx}/(e^t - 1) evaluated at x = 0.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

Rat = Fraction

_bern: list[Fraction] = [Fraction(1)]
_bern_lock = threading.Lock()


def bernoulli_number(m: int) -> Fraction:
    """B_m with B_1 = -1/2, by the recurrence sum_{k<=m} C(m+1,k) B_k = 0."""
    if m < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if m >= len(_bern):
        with _bern_lock:
            while len(_bern) <= m:
                j = len(_bern)
                acc = sum(comb(j + 1, k) * _bern[k] for k in range(j))
                _bern.append(Fraction(-acc, j + 1))
    return _bern[m]


@lru_cache(maxsize=None)
def bernoulli_poly(m: int, x: Rat) -> Fraction:
    """B_m(x) = sum_k C(m,k) B_k x^{m-k}, exact at any rational x."""
    if m < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    x = Fraction(x)
    acc = Fraction(0)
    xpow = Fraction(1)
    for k in range(m, -1, -1):
        acc += comb(m, k) * bernoulli_number(k) * xpow
        xpow *= x
    return acc


def bernoulli_series(u: Rat, x: Rat, mmax: int) -> dict[int, Fraction]:
    """{m: (-x)^m B_{m+1}(u) / (m(m+1))} for 1 <= m <= mmax.

    The exponent of the Omega class at residue u: its kappa, leg and edge
    factors all exponentiate this series (Chiodo's formula).
    """
    u, x = Fraction(u), Fraction(x)
    return {m: (-x) ** m * bernoulli_poly(m + 1, u) / (m * (m + 1)) for m in range(1, mmax + 1)}


@lru_cache(maxsize=None)
def binomial_ext(a: Rat, i: int) -> Fraction:
    """C(a, i) = a(a-1)...(a-i+1)/i! for arbitrary rational a, i >= 0."""
    if i < 0:
        raise ValueError("lower binomial index must be nonnegative")
    num = Fraction(1)
    a = Fraction(a)
    for t in range(i):
        num *= a - t
    for t in range(1, i + 1):
        num /= t
    return num


@lru_cache(maxsize=None)
def power_sum(m: int, base: Rat, count: int) -> Fraction:
    """p_m = sum_i X_i^m over the progression X = base, base+1, ...,
    base+count-1; 0 on the empty set (count = 0)."""
    if m < 1:
        raise ValueError("power sum degree must be positive")
    if count < 0:
        raise ValueError("count must be nonnegative")
    return sum(((Fraction(base) + t) ** m for t in range(count)), Fraction(0))


@lru_cache(maxsize=None)
def stirling_first(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind (cycle counts)."""
    if n < 0 or k < 0:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return stirling_first(n - 1, k - 1) + (n - 1) * stirling_first(n - 1, k)


@lru_cache(maxsize=None)
def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind (set partition counts)."""
    if n < 0 or k < 0:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return stirling_second(n - 1, k - 1) + k * stirling_second(n - 1, k)


@lru_cache(maxsize=None)
def stirling_generalized_first(k: int, m: int, x: Rat) -> Fraction:
    """(-1)^k s(k, k-m, x) = sum_i C(k+i-m, i) * c(k, k-m+i) * x^i.

    c is the unsigned first-kind Stirling number.  The value equals
    sigma_m(x, x+1, ..., x+k-1), i.e. the psi^m coefficient of
    prod_{t=1}^{k} (1 + (x + k - t) psi); the product-expansion oracle in the
    test suite pins this down.
    """
    if k < 0 or m < 0 or m > k:
        raise ValueError("need 0 <= m <= k")
    x = Fraction(x)
    acc = Fraction(0)
    xpow = Fraction(1)
    for i in range(m + 1):
        acc += binomial_ext(k + i - m, i) * stirling_first(k, k - m + i) * xpow
        xpow *= x
    return acc


def sum_by_denominator(sums: dict[int, int]) -> Fraction:
    """The sum of num/den over a table {den: num} of integer numerators
    summed per denominator, over their least common denominator and reduced
    once: a sum of many fractions without a Fraction per term.  0 when empty."""
    den = lcm(*sums)
    return Fraction(sum([num * (den // d) for d, num in sums.items()]), den)


def solve_linear(rows: list[list[Rat]]) -> list[Fraction]:
    """The solution of a nonsingular square system, each row its coefficients
    followed by its right-hand side, by exact Gaussian elimination; a
    singular system raises ValueError."""
    n = len(rows)
    rows = [list(map(Fraction, row)) for row in rows]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = rows[col][col]
        rows[col] = [v / inv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def interpolate_polynomial(points: list[tuple[Rat, Rat]]) -> list[Fraction]:
    """Coefficients (low to high) of the unique polynomial of degree < len(points)
    through the given points."""
    n = len(points)
    return solve_linear([[Fraction(x) ** k for k in range(n)] + [y] for x, y in points])


@lru_cache(maxsize=None)
def stirling_generalized_second(k: int, m: int, x: Rat) -> Fraction:
    """S(-k+m, -k, x) = sum_i C(m+k-1, i) (-1)^i S2(m-i+k, k) x^i.

    Here k >= 0 is the magnitude of the (negative) index appearing in the
    vanishing statements for s < 0; the value equals
    h_m(1-x, 2-x, ..., k-x), the psi^m coefficient of
    prod_{t=1}^{k} (1 + (x - t) psi)^{-1}.
    """
    if k < 0 or m < 0:
        raise ValueError("need k >= 0 and m >= 0")
    x = Fraction(x)
    acc = Fraction(0)
    xpow = Fraction(1)
    for i in range(m + 1):
        acc += (
            binomial_ext(m + k - 1, i)
            * ((-1) ** i)
            * stirling_second(m - i + k, k)
            * xpow
        )
        xpow *= x
    return acc
