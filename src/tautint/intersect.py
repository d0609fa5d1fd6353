"""Mixed kappa/psi integrals over Mbar_{g,n}.

kappa monomials are traded for added marked points by the Arbarello-Cornalba
pushforward formula, inverted (Arbarello-Cornalba, J. Algebraic Geom. 5,
1996): with pi forgetting the last |P| of n+|P| points,

    kappa_{b_1} ... kappa_{b_k} = sum_P (-1)^{k-|P|} pi_* prod_{B in P} psi_B^{b_B+1},

a sum over the set partitions P of the k factors, with one added point per
block B carrying b_B = sum_{i in B} b_i.  The psi classes of the old points
ride along (psi_B^{b_B+1} kills the boundary corrections of their pullbacks),
so int kappa-monomial * prod psi^d is a signed sum of pure psi integrals on
Mbar_{g,n+|P|}.  For n = 0 only kappa monomials occur, and the same expansion
applies.

The terms of that sum are added as integer numerators per denominator and
reduced once.  Each memo entry checks its key once (stable, psi exponents
nonnegative, degree equal to the dimension); the psi integrals it then
reads are valid keys by construction, so they are looked up without the
checks of `psi_integral`.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import sum_by_denominator
from .memos import cached
from .polys import KappaPart, PsiPart, monomial_degree
from .psi import _desc, _psi_value, is_stable, multiset_splits


def _added_point_terms(kappa: KappaPart) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Expansion data for one kappa monomial.

    Yields pairs (coefficient, mu), mu non-increasing and each mu once, such
    that
    int kappa-monomial * alpha = sum coefficient * int_{g,n+len(mu)} alpha * prod psi^{mu_j+1}
    for any alpha that pulls back along forgetful maps without correction
    once multiplied by the added-point psi classes (psi and lambda classes).
    """
    return _partition_sums(tuple(m for m, e in reversed(kappa) for _ in range(e)))


@cached
def _partition_sums(b: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The signed set-partition sum for the kappa indices b (sorted
    descending): (integer coefficient, block sums sorted descending) pairs
    with nonzero coefficients.  The block holding b[0] takes a sub-multiset
    of the rest, `ways` times over, with sign (-1)^(block size - 1); the
    remaining indices recurse."""
    if not b:
        return ((1, ()),)
    out: dict[tuple[int, ...], int] = {}
    for left, right, ways, left_deg in multiset_splits(b[1:]):
        block = b[0] + left_deg
        sign = -ways if len(left) % 2 else ways
        for c, mu in _partition_sums(right):
            key = tuple(sorted(mu + (block,), reverse=True))
            out[key] = out.get(key, 0) + sign * c
    return tuple((c, mu) for mu, c in out.items() if c)


def integrate_monomial(g: int, n: int, kappa: KappaPart, psi: PsiPart) -> Fraction:
    """int_{Mbar_{g,n}} prod kappa_m^{e_m} * prod psi_i^{d_i}, exactly."""
    if len(psi) != n:
        raise ValueError("psi exponent vector must have length n")
    # integrals are symmetric in the marked points: canonicalise the memo key
    return _integrate_core(g, n, tuple(sorted(kappa)), tuple(sorted(psi, reverse=True)))


@cached
def _integrate_core(g: int, n: int, kappa: KappaPart, psi: PsiPart) -> Fraction:
    if not is_stable(g, n):
        raise ValueError(f"unstable moduli space (g={g}, n={n})")
    if psi and psi[-1] < 0:
        raise ValueError("psi exponents must be nonnegative")
    dim = 3 * g - 3 + n
    if monomial_degree((kappa, psi)) != dim:
        return Fraction(0)
    if not kappa:
        return _psi_value(g, psi)
    sums: dict[int, int] = {}
    for coef, mu in _added_point_terms(kappa):
        val = _psi_value(g, _desc(psi + tuple(m + 1 for m in mu)))
        sums[val.denominator] = sums.get(val.denominator, 0) + coef * val.numerator
    return sum_by_denominator(sums)
