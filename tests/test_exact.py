from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from tautint.exact import (
    bernoulli_number,
    bernoulli_poly,
    binomial_ext,
    interpolate_polynomial,
    power_sum,
    solve_linear,
    stirling_generalized_first,
    stirling_generalized_second,
)

from oracles import (
    bernoulli_by_series,
    bernoulli_poly_by_series,
    exp_series,
    geometric_expansion,
    product_expansion,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def test_bernoulli_basics():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == F(-1, 2)
    assert bernoulli_number(4) == F(-1, 30)


def test_bernoulli_against_series_oracle():
    oracle = bernoulli_by_series(20)
    for m in range(21):
        assert bernoulli_number(m) == oracle[m]


def test_bernoulli_poly_values():
    assert bernoulli_poly(1, F(1, 2)) == 0
    assert bernoulli_poly(3, F(0)) == 0
    assert bernoulli_poly(3, F(1)) == 0
    # B_3(3/2) = B_3(1/2) + 3*(1/2)^2
    assert bernoulli_poly(3, F(3, 2)) == bernoulli_poly(3, F(1, 2)) + 3 * F(1, 4)


@given(st.integers(0, 12), rationals)
@settings(max_examples=60, deadline=None)
def test_bernoulli_poly_series_oracle(m, x):
    assert bernoulli_poly(m, x) == bernoulli_poly_by_series(m, F(x))


@given(st.integers(0, 20), rationals)
@settings(max_examples=60, deadline=None)
def test_bernoulli_difference_identity(m, x):
    x = F(x)
    assert bernoulli_poly(m + 1, x + 1) - bernoulli_poly(m + 1, x) == (m + 1) * x ** m


def test_bernoulli_reflection_and_minus_one():
    for m in range(21):
        assert bernoulli_poly(m, F(0)) == (-1) ** m * bernoulli_poly(m, F(1))
    for m in range(13):
        assert bernoulli_poly(m, F(-1)) == bernoulli_number(m) + (-1) ** m * m


def test_power_sum_examples():
    assert power_sum(1, F(0), 3) == 3
    assert power_sum(2, F(1, 2), 2) == F(5, 2)
    assert power_sum(7, F(3), 0) == 0


def _progression(base, count):
    return [F(base) + t for t in range(count)]


def test_symmetric_examples():
    # sigma_l and h_l of 1, 2, 3 and of 1, 2
    assert product_expansion(_progression(1, 3), 0)[0] == 1
    assert geometric_expansion(_progression(1, 3), 0)[0] == 1
    assert product_expansion(_progression(1, 3), 2)[2] == 11
    assert geometric_expansion(_progression(1, 2), 2)[2] == 7
    # sigma_2 = (p_1^2 - p_2)/2 and h_2 = (p_1^2 + p_2)/2
    assert (power_sum(1, F(1), 3) ** 2 - power_sum(2, F(1), 3)) / 2 == 11
    assert (power_sum(1, F(1), 2) ** 2 + power_sum(2, F(1), 2)) / 2 == 7


@given(rationals, st.integers(0, 5), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_sigma_h_match_expansions(base, count, l):
    # the series coefficients against the sums over l-subsets and l-multisets
    vals = _progression(base, count)
    assert product_expansion(vals, l)[l] == sum(map(prod, combinations(vals, l)), F(0))
    h = sum(map(prod, combinations_with_replacement(vals, l)), F(0))
    assert geometric_expansion(vals, l)[l] == h


@given(rationals, st.integers(0, 4))
@settings(max_examples=25, deadline=None)
def test_newton_identities(base, count):
    # exp(sum (-1)^{m+1} p_m u^m / m) = sum sigma_l u^l, and the h-version
    T = 10
    ps = [F(0)] * (T + 1)
    for m in range(1, T + 1):
        ps[m] = power_sum(m, F(base), count)
    sig_series = exp_series([F(0)] + [(-1) ** (m + 1) * ps[m] / m for m in range(1, T + 1)], T)
    h_series = exp_series([F(0)] + [ps[m] / m for m in range(1, T + 1)], T)
    vals = _progression(base, count)
    assert sig_series == product_expansion(vals, T)
    assert h_series == geometric_expansion(vals, T)


def test_stirling_first_trivial_and_value():
    for k in range(6):
        assert stirling_generalized_first(k, 0, F(3, 7)) == 1
    assert stirling_generalized_first(2, 1, F(0)) == 1
    with pytest.raises(ValueError):
        stirling_generalized_first(2, 3, F(0))


@given(st.integers(0, 6), rationals)
@settings(max_examples=40, deadline=None)
def test_stirling_first_product_oracle(k, x):
    # sum_m gen1(k, m, x) psi^m = prod_{t=1}^{k} (1 + (x + k - t) psi)
    x = F(x)
    coeffs = product_expansion([x + k - t for t in range(1, k + 1)], k)
    for m in range(k + 1):
        assert stirling_generalized_first(k, m, x) == coeffs[m]


@given(st.integers(0, 6), st.integers(0, 6), rationals)
@settings(max_examples=40, deadline=None)
def test_stirling_second_series_oracle(k, m, x):
    # sum_m gen2(k, m, x) psi^m = prod_{t=1}^{k} (1 + (x - t) psi)^{-1}
    x = F(x)
    coeffs = geometric_expansion([t - x for t in range(1, k + 1)], m)
    assert stirling_generalized_second(k, m, x) == coeffs[m]


def test_binomial_ext_negative_top():
    assert binomial_ext(-1, 2) == 1
    assert binomial_ext(F(-3, 2), 2) == F(15, 8)
    assert binomial_ext(5, 2) == 10


def test_interpolation_roundtrip():
    pts = [(F(k), F(2) * k ** 3 - k + F(1, 3)) for k in range(5)]
    coeffs = interpolate_polynomial(pts)
    assert coeffs[0] == F(1, 3) and coeffs[1] == -1 and coeffs[3] == 2
    assert coeffs[2] == 0 and coeffs[4] == 0
    # two points with one x: no polynomial of degree < 2 passes through both
    with pytest.raises(ValueError):
        interpolate_polynomial([(1, 2), (1, 3)])


def test_solve_linear_swaps_a_zero_pivot():
    # not a Vandermonde system, and the first row has no x_1 term, so the
    # elimination must swap rows; integer input still gives exact rationals
    rows = [[0, 2, 1, -1], [1, 1, 0, F(-3, 2)], [2, 0, 3, 10]]
    sol = solve_linear(rows)
    assert sol == [F(1, 2), -2, 3]
    assert all(isinstance(v, F) for v in sol)
    # a singular system has no pivot in its second column
    with pytest.raises(ValueError):
        solve_linear([[1, 2, 3], [2, 4, 6]])


def test_bernoulli_cache_concurrent_reads():
    # concurrent initialisation must agree (idempotent writes under the lock)
    import threading

    results = []

    def worker():
        results.append([bernoulli_number(m) for m in range(60)])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    assert results[0][58] == bernoulli_number(58)
