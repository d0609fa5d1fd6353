"""Headline quantities, each a `RouteResult`: orbifold Euler characteristics
of the open moduli spaces by the three routes of CHI_ROUTES, and Masur-Veech
volume polynomials (the pi-normalised rational part) by the two of MV_ROUTES
together with the normalisation constant that the reported values leave out."""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from math import factorial, prod

from .exact import bernoulli_number, sum_by_denominator
from .hodge import hodge_monomial
from .omega import OmegaSpec, omega_integral
from .polys import partitions
from .psi import is_stable

CHI_ROUTES = ("harer_zagier", "hodge_sum", "omega")
MV_ROUTES = ("omega", "hodge_sum")
RouteResult = namedtuple("RouteResult", "g n value route")


def _require_stable(g: int, n: int) -> None:
    if not is_stable(g, n):
        raise ValueError(f"unstable type (g={g}, n={n})")


def chi_harer_zagier(g: int, n: int) -> RouteResult:
    """Closed form: factorials and the Bernoulli number B_{2g}."""
    _require_stable(g, n)
    if g == 0:
        value = Fraction((-1) ** (n - 3) * factorial(n - 3))
    elif g == 1:
        value = Fraction((-1) ** n * factorial(n - 1), 12)
    else:
        value = (
            Fraction((-1) ** n * factorial(2 * g - 3 + n), 2 * g)
            * bernoulli_number(2 * g)
            / factorial(2 * g - 2)
        )
    return RouteResult(g, n, value, "harer_zagier")


def chi_via_hodge(g: int, n: int) -> RouteResult:
    """(-1)^{3g-3+n} sum_{l} 1/l! sum_i int lambda_i psi^2/(1+psi) ... on
    Mbar_{g,n+l}, the added points carrying psi^2 times a geometric tail.

    The integrand is symmetric in the added points, so each multiset of
    their exponents is integrated once, weighted by its l!/prod mult!
    orderings: 1/prod mult! after the 1/l!.  The terms are summed as integer
    numerators per denominator."""
    _require_stable(g, n)
    dim = 3 * g - 3 + n
    sums: dict[int, int] = {}
    # l = 0: the integrand is the bare lambda_dim, which exists when dim <= g
    if dim <= g:
        v = hodge_monomial(g, n, (dim,) if dim else (), (), (0,) * n)
        sums[v.denominator] = (-1) ** dim * v.numerator
    for ell in range(1, dim + 1):
        # each added point carries sum_{e>=2} (-1)^e psi^e
        for i in range(g + 1):
            starget = dim + ell - i
            if starget < 2 * ell:
                continue
            lam = (i,) if i else ()
            sign = (-1) ** (dim + starget)
            for exps in partitions(starget, ell, 2):
                v = hodge_monomial(g, n + ell, lam, (), (0,) * n + exps)
                den = prod(map(factorial, Counter(exps).values())) * v.denominator
                sums[den] = sums.get(den, 0) + sign * v.numerator
    return RouteResult(g, n, sum_by_denominator(sums), "hodge_sum")


def chi_via_omega(g: int, n: int) -> RouteResult:
    """int Omega(1, -1; 0, ..., 0) over Mbar_{g,n}."""
    _require_stable(g, n)
    spec = OmegaSpec(1, -1, (0,) * n, Fraction(1))
    return RouteResult(g, n, omega_integral(g, n, spec), "omega")


def chi(g: int, n: int, route: str = "harer_zagier") -> RouteResult:
    if route not in CHI_ROUTES:
        raise ValueError(f"unknown chi route {route!r}")
    return _CHI[route](g, n)


def mv_via_omega(g: int, n: int) -> RouteResult:
    """(-1)^{3g-3+n} int Omega(1, 2; 0, ..., 0): the volume over pi^{6g-6+2n}."""
    _require_stable(g, n)
    dim = 3 * g - 3 + n
    spec = OmegaSpec(1, 2, (0,) * n, Fraction(1))
    return RouteResult(g, n, (-1) ** dim * omega_integral(g, n, spec), "omega")


def mv_via_hodge(g: int, n: int) -> RouteResult:
    """sum_l 1/l! sum_i int lambda_i psi_{n+1}^2 ... psi_{n+l}^2."""
    _require_stable(g, n)
    dim = 3 * g - 3 + n
    total = Fraction(0)
    for ell in range(0, dim + 1):
        i = dim - ell  # forced by the dimension count
        if 0 <= i <= g:
            lam = (i,) if i else ()
            total += hodge_monomial(g, n + ell, lam, (), (0,) * n + (2,) * ell) / factorial(ell)
    return RouteResult(g, n, total, "hodge_sum")


def mv(g: int, n: int, route: str = "omega") -> RouteResult:
    if route not in MV_ROUTES:
        raise ValueError(f"unknown mv route {route!r}")
    return _MV[route](g, n)


def mv_normalization(g: int, n: int) -> Fraction:
    """2^{2g+1} (4g-4+n)!/(6g-7+2n)!: the labelling/measure constant that is
    deliberately NOT baked into the reported values."""
    if 4 * g - 4 + n < 0 or 6 * g - 7 + 2 * n < 0:
        raise ValueError(f"normalisation constant undefined for (g,n)=({g},{n})")
    return Fraction(2 ** (2 * g + 1) * factorial(4 * g - 4 + n), factorial(6 * g - 7 + 2 * n))


_CHI = dict(zip(CHI_ROUTES, (chi_harer_zagier, chi_via_hodge, chi_via_omega)))
_MV = dict(zip(MV_ROUTES, (mv_via_omega, mv_via_hodge)))
