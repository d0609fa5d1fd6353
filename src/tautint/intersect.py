"""Mixed kappa/psi integrals over Mbar_{g,n}.

kappa monomials are traded for extra marked points: a product kappa_{m}^{e_m}
is recovered as a coefficient of exp(sum u_m kappa_m), whose integral expands
through the substitution exp(-sum u_m x^m) = 1 - sum v_k x^k into a finite sum
of pure psi integrals on Mbar_{g,n+l}.  For n = 0 only kappa monomials can
occur, and the same expansion applies (there are no psi classes to transport).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import factorial, prod

from .polys import (
    KappaPart,
    PsiPart,
    TautPolynomial,
    compositions,
    monomial_degree,
    series_exp,
    series_mul,
    vector_add,
)
from .psi import is_stable, psi_integral
from .reports import CheckReport


@lru_cache(maxsize=None)
def _added_point_terms(kappa: KappaPart) -> tuple[tuple[Fraction, tuple[int, ...]], ...]:
    """Expansion data for one kappa monomial.

    Yields pairs (coefficient, mu) such that
    int kappa-monomial * alpha = sum coefficient * int_{g,n+len(mu)} alpha * prod psi^{mu_j+1}
    for any alpha that pulls back along forgetful maps without correction.

    The sum over ordered compositions mu of the kappa degree has the
    commutative summand prod_j v_{mu_j}, and both consumers integrate psi
    monomials symmetric in the added points, so one term is kept per
    partition (mu non-increasing), its coefficient times the number of
    orderings ell!/prod_k mult_k!.  The partitions are walked depth first, so
    partitions with a common prefix share its product of v-series.
    """
    indices = [m for m, _ in kappa]
    target = tuple(e for _, e in kappa)
    kdeg = sum(m * e for m, e in kappa)
    pcount = sum(target)
    one = (0,) * len(kappa)

    # v_k as polynomials in the u_m: 1 - exp(-sum u_m x^m), coefficient of x^k.
    # The target has u-degree pcount, so the series are truncated there; x^k
    # is read off each key as sum m*e_m.
    lin = {tuple(int(p == q) for q in range(len(kappa))): Fraction(-1) for p in range(len(kappa))}
    v_k: list[dict] = [{} for _ in range(kdeg + 1)]
    for u, c in series_exp(lin, one, pcount, sum, vector_add).items():
        k = sum(m * e for m, e in zip(indices, u))
        if 0 < k <= kdeg:
            v_k[k][u] = -c

    fact = prod(factorial(e) for e in target)
    out: list[tuple[Fraction, tuple[int, ...]]] = []

    def extend(mu: tuple[int, ...], series: dict, left: int) -> None:
        if not left:
            coef = series.get(target)
            if coef:
                orderings = prod(factorial(c) for c in Counter(mu).values())
                out.append((coef * fact / orderings, mu))
            return
        for k in range(min(left, mu[-1] if mu else left), 0, -1):
            if v_k[k]:
                nxt = series_mul(series, v_k[k], pcount, sum, vector_add)
                if nxt:
                    extend(mu + (k,), nxt, left - k)

    extend((), {one: Fraction(1)}, kdeg)
    return tuple(out)


def integrate_monomial(g: int, n: int, kappa: KappaPart, psi: PsiPart) -> Fraction:
    """int_{Mbar_{g,n}} prod kappa_m^{e_m} * prod psi_i^{d_i}, exactly."""
    if len(psi) != n:
        raise ValueError("psi exponent vector must have length n")
    # integrals are symmetric in the marked points: canonicalise the memo key
    return _integrate_core(g, n, tuple(sorted(kappa)), tuple(sorted(psi, reverse=True)))


@lru_cache(maxsize=None)
def _integrate_core(g: int, n: int, kappa: KappaPart, psi: PsiPart) -> Fraction:
    if not is_stable(g, n):
        raise ValueError(f"unstable moduli space (g={g}, n={n})")
    dim = 3 * g - 3 + n
    if monomial_degree((kappa, psi)) != dim:
        return Fraction(0)
    if not kappa:
        if n == 0:
            return Fraction(1) if dim == 0 else Fraction(0)
        return psi_integral(g, psi)
    acc = Fraction(0)
    for coef, mu in _added_point_terms(kappa):
        acc += coef * psi_integral(g, psi + tuple(m + 1 for m in mu))
    return acc


def integrate_mixed(g: int, n: int, p: TautPolynomial) -> Fraction:
    """Integrate a truncated kappa/psi polynomial over Mbar_{g,n}."""
    if p.n_points != n:
        raise ValueError("polynomial has wrong number of marked points")
    if p.trunc != 3 * g - 3 + n:
        raise ValueError("polynomial truncation must equal 3g-3+n")
    acc = Fraction(0)
    for (kappa, psi), c in p.terms.items():
        acc += c * integrate_monomial(g, n, kappa, psi)
    return acc


def integrate_exp_kappa(g: int, n: int, u: dict[int, Fraction], psi: PsiPart) -> Fraction:
    """int prod psi^{d} * exp(sum u_m kappa_m) by the direct v-substitution.

    Independent of the per-monomial coefficient extraction; used to
    cross-check the two routes through the same expansion.
    """
    if len(psi) != n:
        raise ValueError("psi exponent vector must have length n")
    if not is_stable(g, n):
        raise ValueError(f"unstable moduli space (g={g}, n={n})")
    dim = 3 * g - 3 + n
    kbudget = dim - sum(psi)
    if kbudget < 0:
        return Fraction(0)
    # v_k from exp(-sum u_m x^m) = 1 - sum v_k x^k, numerically
    expo = [Fraction(0)] * (kbudget + 1)
    expo[0] = Fraction(1)
    lin = [Fraction(0)] * (kbudget + 1)
    for m, c in u.items():
        if 1 <= m <= kbudget:
            lin[m] = -Fraction(c)
    cur = list(expo)
    for j in range(1, kbudget + 1):
        nxt = [Fraction(0)] * (kbudget + 1)
        for da in range(kbudget + 1):
            if cur[da] == 0:
                continue
            for db in range(1, kbudget + 1 - da):
                nxt[da + db] += cur[da] * lin[db]
        cur = nxt
        inv = Fraction(1, factorial(j))
        for d in range(kbudget + 1):
            expo[d] += inv * cur[d]
    v = [Fraction(0)] + [-expo[k] for k in range(1, kbudget + 1)]

    acc = Fraction(0)
    if sum(psi) == dim:
        acc += psi_integral(g, psi) if n else (Fraction(1) if dim == 0 else Fraction(0))
    for ell in range(1, kbudget + 1):
        for mu in compositions(kbudget, ell, 1):
            coef = Fraction(1, factorial(ell))
            for k in mu:
                coef *= v[k]
            if coef:
                acc += coef * psi_integral(g, psi + tuple(m + 1 for m in mu))
    return acc


def forgetful_pullback_check(g: int, n: int, m: int) -> CheckReport:
    """Transport check for the forgetful-map behaviour of kappa classes.

    For k <= 2 and psi monomials d on the first n points, compares
    int_{g,n+1} (kappa_m - psi_{n+1}^m) psi_{n+1}^{k+1} prod psi^d
    against int_{g,n} kappa_m kappa_k prod psi^d (kappa_0 = 2g-2+n).
    """
    if not is_stable(g, n):
        raise ValueError("unstable base space")
    dim1 = 3 * g - 2 + n
    details: list[str] = []
    ok = True
    for k in range(0, 3):
        budget = dim1 - m - k - 1
        if budget < 0:
            continue
        for d in iproduct(range(budget + 1), repeat=n):
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
                ok = False
                details.append(f"k={k} d={d}: lhs={lhs} rhs={rhs}")
    return CheckReport(
        check="forgetful_pullback",
        parameters={"g": g, "n": n, "m": m},
        expected="pushforward transport matches on all witnesses",
        got="match" if ok else f"{len(details)} mismatches",
        passed=ok,
        details=details[:5],
    )
