import random
from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import factorial, prod

import pytest
from oracles import added_point_terms_by_compositions, integrate_exp_kappa

from tautint.exact import interpolate_polynomial
from tautint.hodge import hodge_monomial, hodge_pair
from tautint.intersect import _added_point_terms, integrate_monomial
from tautint.polys import TautPolynomial, compositions, exp_kappa_series
from tautint.psi import is_stable


def test_basic_values():
    assert integrate_monomial(1, 1, ((1, 1),), (0,)) == F(1, 24)
    assert integrate_monomial(0, 3, (), (0, 0, 0)) == F(1)
    assert integrate_monomial(1, 1, (), (1,)) == F(1, 24)
    # degree-1 part of exp(-sum kappa_m/m) is -kappa_1
    e = exp_kappa_series({1: F(-1)}, 1, 1)
    assert hodge_pair(1, 1, {(): F(1)}, e) == F(-1, 24)


def test_dimension_gate():
    assert integrate_monomial(1, 1, ((1, 1),), (1,)) == 0
    assert integrate_monomial(2, 0, ((1, 1),), ()) == 0


def test_n_zero_pure_kappa():
    # transport check: 2 * int_{2,0} kappa_1^3 = int_{2,1} (kappa_1 - psi_1)^3 psi_1
    # (pullback of kappa_1^3 paired against psi_1, projection formula with
    # kappa_0 = 2g - 2 = 2); the two sides reduce through different spaces
    v = integrate_monomial(2, 0, ((1, 3),), ())
    rhs = (
        integrate_monomial(2, 1, ((1, 3),), (1,))
        - 3 * integrate_monomial(2, 1, ((1, 2),), (2,))
        + 3 * integrate_monomial(2, 1, ((1, 1),), (3,))
        - integrate_monomial(2, 1, (), (4,))
    )
    assert 2 * v == rhs
    assert v != 0


def test_kappa_products_two_routes():
    # int kappa_1^2 on Mbar_{1,2} via monomial reduction vs iterated pushforward
    v = integrate_monomial(1, 2, ((1, 2),), (0, 0))
    w = integrate_monomial(1, 3, (), (0, 0, 2, 2)[1:]) - integrate_monomial(1, 3, (), (0, 0, 3))
    # int kappa_1^2 = <tau_0 tau_0 tau_2 tau_2> - <tau_0 tau_0 tau_3>
    from tautint.psi import psi_integral

    assert v == psi_integral(1, (0, 0, 2, 2)) - psi_integral(1, (0, 0, 3))
    assert v == F(1, 8)


def test_lemma_two_routes_randomized():
    rng = random.Random(7)
    spaces = [(g, n) for g in range(3) for n in range(0, 6) if is_stable(g, n) and 3 * g - 3 + n <= 5]
    for _ in range(25):
        g, n = rng.choice(spaces)
        dim = 3 * g - 3 + n
        u = {}
        for m in rng.sample(range(1, dim + 1), k=min(2, dim)) if dim else []:
            u[m] = F(rng.randint(-4, 4), rng.randint(1, 3))
        psi = tuple(rng.randint(0, 1) for _ in range(n))
        if sum(psi) > dim:
            continue
        direct = integrate_exp_kappa(g, n, u, psi)
        poly = exp_kappa_series(u, n, dim)
        poly = poly * TautPolynomial.from_monomial(n, dim, (), psi)
        term_by_term = hodge_pair(g, n, {(): F(1)}, poly)
        assert direct == term_by_term, (g, n, u, psi)


def _forgetful_pullback_mismatches(g: int, n: int, m: int) -> list[str]:
    """Transport check for the forgetful-map behaviour of kappa classes.

    For k <= 2 and psi monomials d on the first n points, compares
    int_{g,n+1} (kappa_m - psi_{n+1}^m) psi_{n+1}^{k+1} prod psi^d
    against int_{g,n} kappa_m kappa_k prod psi^d (kappa_0 = 2g-2+n).
    """
    dim1 = 3 * g - 2 + n
    details: list[str] = []
    for k in range(0, 3):
        budget = dim1 - m - k - 1
        if budget < 0:
            continue
        for d in product(range(budget + 1), repeat=n):
            if sum(d) > budget:
                continue
            psi1 = tuple(d) + (k + 1,)
            lhs = integrate_monomial(g, n + 1, ((m, 1),), psi1) - integrate_monomial(
                g, n + 1, (), tuple(d) + (m + k + 1,)
            )
            if k == 0:
                rhs = (2 * g - 2 + n) * integrate_monomial(g, n, ((m, 1),), tuple(d))
            else:
                kap = ((k, 2),) if k == m else tuple(sorted(((m, 1), (k, 1))))
                rhs = integrate_monomial(g, n, kap, tuple(d))
            if lhs != rhs:
                details.append(f"k={k} d={d}: lhs={lhs} rhs={rhs}")
    return details


def test_forgetful_pullback_check_examples():
    assert _forgetful_pullback_mismatches(1, 1, 1) == []
    assert _forgetful_pullback_mismatches(0, 3, 1) == []
    assert _forgetful_pullback_mismatches(0, 3, 2) == []
    assert _forgetful_pullback_mismatches(1, 2, 2) == []


def _partitions(total, largest):
    if total == 0:
        yield ()
        return
    for k in range(min(total, largest), 0, -1):
        for rest in _partitions(total - k, k):
            yield (k,) + rest


def _kappa_monomials(maxdeg):
    return [
        tuple(sorted(Counter(p).items()))
        for d in range(1, maxdeg + 1)
        for p in _partitions(d, d)
    ]


def test_added_point_terms_are_compositions_grouped_by_partition():
    # one term per partition carries the sum of the terms of its orderings
    monomials = _kappa_monomials(10)
    assert len(monomials) == 138
    for kappa in monomials:
        want: dict = {}
        for coef, mu in added_point_terms_by_compositions(kappa):
            key = tuple(sorted(mu, reverse=True))
            want[key] = want.get(key, F(0)) + coef
        got = _added_point_terms(kappa)
        assert all(list(mu) == sorted(mu, reverse=True) for _, mu in got), kappa
        assert len({mu for _, mu in got}) == len(got), kappa
        assert dict((mu, c) for c, mu in got) == {mu: c for mu, c in want.items() if c}, kappa


def _u_coefficient(f, degrees, exps, fixed=()):
    """Coefficient of prod u_j^{exps_j} in the polynomial f(u_1, ...), whose
    degree in u_j is at most degrees[j], by nested interpolation."""
    if not degrees:
        return f(fixed)
    points = [
        (F(t), _u_coefficient(f, degrees[1:], exps[1:], fixed + (F(t),)))
        for t in range(degrees[0] + 1)
    ]
    coeffs = interpolate_polynomial(points)
    return coeffs[exps[0]] if exps[0] < len(coeffs) else F(0)


@pytest.mark.parametrize("g,n", [(0, 5), (1, 3), (2, 1), (2, 2)])
def test_integrate_monomial_is_a_coefficient_of_integrate_exp_kappa(g, n):
    # int prod kappa_m^{e_m} psi^d is prod e_m! times the coefficient of
    # prod u_m^{e_m} in int psi^d exp(sum u_m kappa_m)
    dim = 3 * g - 3 + n
    for kappa in _kappa_monomials(dim):
        if len(kappa) > 2:
            continue
        psi = next(compositions(dim - sum(m * e for m, e in kappa), n, 0))
        indices = [m for m, _ in kappa]
        coef = _u_coefficient(
            lambda u: integrate_exp_kappa(g, n, dict(zip(indices, u)), psi),
            [dim // m for m in indices],
            [e for _, e in kappa],
        )
        want = coef * prod(factorial(e) for _, e in kappa)
        assert integrate_monomial(g, n, kappa, psi) == want, (g, n, kappa, psi)


def test_negative_psi_exponent_raises():
    # the kernels look psi integrals up unchecked, so a negative exponent
    # must be refused where the public calls enter
    with pytest.raises(ValueError, match="nonnegative"):
        integrate_monomial(0, 4, (), (2, -1, 0, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        integrate_monomial(0, 4, ((1, 1),), (1, -1, 0, 0))
    with pytest.raises(ValueError, match="nonnegative"):
        hodge_monomial(1, 2, (1,), (), (2, -1))
