"""Hodge integrals: lambda-class monomials paired with kappa/psi classes.

lambda classes pull back along the maps forgetting a point (Faber-
Pandharipande), so once kappa classes are traded for added points, the
string and dilaton equations remove every point with psi^0 or psi^1 exactly
as for pure psi integrals, down to n = 0.  (kappa classes do not pull back,
so neither equation is used while a kappa factor remains.)  On what is
left, the largest lambda index is peeled off with Newton's identity
k*c_k = sum_m (-1)^{m-1} c_{k-m} p_m applied to the Hodge bundle, whose power
sums p_m = m! ch_m expand into kappa_m, psi^m and boundary pushforwards with
Bernoulli-number coefficients (odd Bernoulli vanishing kills every even
m >= 2).  Boundary terms restrict lambda classes to the glued spaces (the
total Chern class restricts to the product over components, the
nonseparating side losing one rank), so the recursion closes over tuples
(g, n, lambda multiset, kappa monomial, psi exponents).

The separating sum is degree-matched, not looped: the marked points go to
the two sides by exponent multiset with binomial weights (the splits the DVV
recursion uses), the dimension of one side fixes the exponent split
psi'^i (-psi'')^j, lambda splits that put lambda_p
with p > h on a side of genus h are skipped, and hodge_pair pairs each lambda
term only with the kappa/psi terms of complementary degree.  Every term left
out is exactly 0.  The stability of both sides bounds the genus range once
per marked-point split.

Every sum of the recursion (the kappa, string, Newton and boundary sums) and
of `hodge_pair_by_degree` adds integer numerators per denominator and is
reduced once at its end; the memo holds reduced Fractions.  Keys reach
`_hodge_core` canonical (`hodge_monomial` sorts the public arguments), and
the lambda-free integrals go straight to the memoised kappa/psi kernel,
which checks each of its keys once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct

from .exact import Rat, bernoulli_number, sum_by_denominator
from .intersect import _added_point_terms, _integrate_core
from .polys import (
    KappaPart,
    Monomial,
    PsiPart,
    TautPolynomial,
    monomial_degree,
    monomial_product,
    series_inverse,
    series_mul,
)
from .psi import _desc, is_stable, multiset_splits, runs

LambdaPart = tuple[int, ...]  # sorted descending, indices >= 1
LambdaDict = dict[LambdaPart, Fraction]


def hodge_monomial(g: int, n: int, lambdas, kappa: KappaPart = (), psi: PsiPart = ()) -> Fraction:
    """int_{Mbar_{g,n}} prod lambda_a * prod kappa_m^e * prod psi_i^{d_i}."""
    psi = tuple(psi)
    if len(psi) != n:
        raise ValueError("psi exponent vector must have length n")
    if any(a < 1 for a in lambdas):
        raise ValueError("lambda indices start at 1")
    return _hodge_core(g, n, _desc(lambdas), tuple(sorted(kappa)), _desc(psi))


@lru_cache(maxsize=None)
def _hodge_core(g: int, n: int, lambdas: LambdaPart, kappa: KappaPart, psi: PsiPart) -> Fraction:
    """hodge_monomial on canonical keys: lambdas and psi sorted descending,
    kappa sorted."""
    if not is_stable(g, n):
        raise ValueError(f"unstable moduli space (g={g}, n={n})")
    if lambdas and lambdas[0] > g:
        return Fraction(0)
    dim = 3 * g - 3 + n
    if sum(lambdas) + monomial_degree((kappa, psi)) != dim:
        return Fraction(0)
    if not lambdas:
        return _integrate_core(g, n, kappa, psi)
    sums: dict[int, int] = {}
    if kappa:
        for coef, mu in _added_point_terms(kappa):
            v = _hodge_core(g, n + len(mu), lambdas, (), _desc(psi + tuple(m + 1 for m in mu)))
            sums[v.denominator] = sums.get(v.denominator, 0) + coef * v.numerator
        return sum_by_denominator(sums)

    # lambda classes pull back along the map forgetting a point, so the
    # string and dilaton equations hold as for pure psi integrals
    if psi and psi[-1] == 0 and is_stable(g, n - 1):
        rest = psi[:-1]
        for i, e, c in runs(rest):
            if e >= 1:
                j = i + c - 1
                v = _hodge_core(g, n - 1, lambdas, (), rest[:j] + (e - 1,) + rest[j + 1 :])
                sums[v.denominator] = sums.get(v.denominator, 0) + c * v.numerator
        return sum_by_denominator(sums)
    if 1 in psi and is_stable(g, n - 1):
        i = psi.index(1)
        return (2 * g - 3 + n) * _hodge_core(g, n - 1, lambdas, (), psi[:i] + psi[i + 1 :])

    k = lambdas[0]
    rest = lambdas[1:]
    for m in range(1, k + 1):
        bval = bernoulli_number(m + 1)
        if bval == 0:
            continue
        # the Newton coefficient (-1)^(m-1) B_{m+1} / (k (m+1)) as num / den
        num = (-1) ** (m - 1) * bval.numerator
        den = k * (m + 1) * bval.denominator
        sub = rest if m == k else _desc(rest + (k - m,))
        v = _hodge_core(g, n, sub, ((m, 1),), psi)
        sums[den * v.denominator] = sums.get(den * v.denominator, 0) + num * v.numerator
        for i, e, c in runs(psi):  # symmetric in equal exponents
            v = _hodge_core(g, n, sub, (), _desc(psi[:i] + (e + m,) + psi[i + 1 :]))
            sums[den * v.denominator] = sums.get(den * v.denominator, 0) - c * num * v.numerator
        v = _boundary_terms(g, n, sub, psi, m)  # enters with weight 1/2
        sums[2 * den * v.denominator] = sums.get(2 * den * v.denominator, 0) + num * v.numerator
    return sum_by_denominator(sums)


def _boundary_terms(g: int, n: int, lambdas: LambdaPart, psi: PsiPart, m: int) -> Fraction:
    """Pushforward part of p_m: sum_{i+j=m-1} psi'^i (-psi'')^j over the
    one-edge degenerations (nonseparating plus all ordered separating splits),
    degree-matched as the module docstring says.  The terms are summed as
    integer numerators per denominator, brought over one denominator and
    reduced once at the end."""
    sums: dict[int, int] = {}
    if g >= 1 and is_stable(g - 1, n + 2) and not (lambdas and lambdas[0] > g - 1):
        for i in range(m):
            j = m - 1 - i
            v = _hodge_core(g - 1, n + 2, lambdas, (), _desc(psi + (i, j)))
            if v:
                sums[v.denominator] = sums.get(v.denominator, 0) + (-1) ** j * v.numerator
    lam_splits = _lambda_splits(lambdas)
    top = len(lam_splits) - 1  # the largest degree of a lambda part
    for left, right, ways, left_deg in multiset_splits(psi):
        n1, n2 = len(left) + 1, len(right) + 1
        # i = dim(Mbar_{g1,n1}) - |lambda1| - |psi_left| = room - |lambda1|
        # lies in 0..m-1, so room = 3 g1 + c lies in 0..m-1+top; and both
        # sides are stable: genus >= 1 on a side with fewer than 3 points
        c = n1 - 3 - left_deg
        g1_lo = max(0 if n1 >= 3 else 1, (2 - c) // 3)
        g1_hi = min(g if n2 >= 3 else g - 1, (m - 1 + top - c) // 3)
        for g1 in range(g1_lo, g1_hi + 1):
            g2 = g - g1
            room = 3 * g1 + c
            # the keys of both sides depend on i, not on the lambda split
            for i in range(max(0, room - top), min(m - 1, room) + 1):
                j = m - 1 - i
                left_key, right_key = _desc(left + (i,)), _desc(right + (j,))
                for lam1, lam2 in lam_splits[room - i]:
                    if (lam1 and lam1[0] > g1) or (lam2 and lam2[0] > g2):
                        continue
                    a = _hodge_core(g1, n1, lam1, (), left_key)
                    if a:
                        b = _hodge_core(g2, n2, lam2, (), right_key)
                        den = a.denominator * b.denominator
                        sums[den] = sums.get(den, 0) + (-1) ** j * ways * a.numerator * b.numerator
    return sum_by_denominator(sums)


@lru_cache(maxsize=None)
def _lambda_splits(lambdas: LambdaPart) -> tuple[tuple[tuple[LambdaPart, LambdaPart], ...], ...]:
    """All ways to write each lambda_a as lambda_p (x) lambda_q with p+q=a,
    as (left, right) pairs, listed by the degree of left: entry d holds the
    splits whose left part has degree d, for d = 0..|lambdas|."""
    by_deg: list[list] = [[] for _ in range(sum(lambdas) + 1)]
    for ps in iproduct(*(range(a + 1) for a in lambdas)):
        left = _desc(p for p in ps if p)
        by_deg[sum(ps)].append((left, _desc(a - p for a, p in zip(lambdas, ps) if a > p)))
    return tuple(map(tuple, by_deg))


def hodge_pair(g: int, n: int, lam: LambdaDict, p: TautPolynomial) -> Fraction:
    """Pair a lambda-polynomial (dict lambda-tuple -> coeff) with a kappa/psi
    polynomial: sum of hodge_monomial over the products of terms whose
    degrees add up to the dimension (all others integrate to 0)."""
    if p.n_points != n:
        raise ValueError("polynomial has wrong number of marked points")
    if not is_stable(g, n):
        raise ValueError(f"unstable moduli space (g={g}, n={n})")
    return hodge_pair_by_degree(g, n, lam.items(), p.by_degree())


def hodge_pair_by_degree(
    g: int, n: int, lam, by_degree: dict, mono: Monomial | None = None
) -> Fraction:
    """hodge_pair of the (lambda-tuple, coeff) pairs `lam` with P * mono, P
    given as its terms by degree (`TautPolynomial.by_degree`), without
    forming the product: each lambda term meets only the terms of P of
    complementary degree."""
    room = 3 * g - 3 + n - (monomial_degree(mono) if mono else 0)
    sums: dict[int, int] = {}
    for ltuple, lc in lam:
        if lc == 0:
            continue
        for term, c in by_degree.get(room - sum(ltuple), ()):
            kappa, psi = monomial_product(term, mono) if mono else term
            v = hodge_monomial(g, n, ltuple, kappa, psi)
            if v:
                den = lc.denominator * c.denominator * v.denominator
                sums[den] = sums.get(den, 0) + lc.numerator * c.numerator * v.numerator
    return sum_by_denominator(sums)


# -- lambda-series helpers -----------------------------------------------------


def _lambda_product(a: LambdaPart, b: LambdaPart) -> LambdaPart:
    return tuple(sorted(a + b, reverse=True))


def lambda_dict_mul(a: LambdaDict, b: LambdaDict, maxdeg: int) -> LambdaDict:
    return series_mul(a, b, maxdeg, sum, _lambda_product)


def lambda_total(t: Rat, g: int, maxdeg: int) -> LambdaDict:
    """The total Chern polynomial sum_i lambda_i t^i up to rank g."""
    t = Fraction(t)
    out: LambdaDict = {(): Fraction(1)}
    tp = Fraction(1)
    for i in range(1, min(g, maxdeg) + 1):
        tp *= t
        if tp != 0:
            out[(i,)] = tp
    return out


def lambda_total_inverse(t: Rat, g: int, maxdeg: int) -> LambdaDict:
    """(sum_i lambda_i t^i)^{-1} as a lambda-polynomial of degree <= maxdeg."""
    return series_inverse(lambda_total(t, g, maxdeg), (), maxdeg, sum, _lambda_product)
