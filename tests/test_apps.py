from fractions import Fraction as F
from math import factorial

import pytest
from oracles import chi_by_ordered_compositions

from tautint.apps import (
    CHI_ROUTES,
    chi,
    chi_harer_zagier,
    chi_via_hodge,
    chi_via_omega,
    mv_normalization,
    mv_via_hodge,
    mv_via_omega,
)
from tautint.cli import _chi_cell
from tautint.exact import bernoulli_number
from tautint.hodge import hodge_pair, lambda_total
from tautint.omega import OmegaSpec, omega_integral
from tautint.polys import exp_kappa_series
from tautint.psi import stable_types

HZ_VALUES = {
    (0, 3): F(1),
    (0, 4): F(-1),
    (0, 5): F(2),
    (1, 1): F(-1, 12),
    (1, 2): F(1, 12),
    (2, 0): F(-1, 240),
    (2, 1): F(1, 120),
    (3, 0): F(1, 1008),
}


def test_harer_zagier_closed_form():
    for (g, n), v in HZ_VALUES.items():
        assert chi_harer_zagier(g, n).value == v, (g, n)


def test_hodge_route_special_cases_match_generic():
    # the l = 0 term of the Hodge route, the bare lambda_dim (dim <= g), at
    # (0,3) and (1,1): the values the route once hard-wired
    from tautint.hodge import hodge_monomial

    assert sum(
        hodge_monomial(0, 3, (i,) if i else (), (), (0, 0, 0)) for i in range(1)
    ) == F(1)
    assert sum(
        hodge_monomial(1, 1, (i,) if i else (), (), (0,)) for i in range(2)
    ) == F(1, 24)


def test_three_routes_small():
    for (g, n) in [(0, 3), (0, 4), (1, 1), (1, 2), (2, 0), (2, 1)]:
        hz = chi_harer_zagier(g, n).value
        assert chi_via_hodge(g, n).value == hz, (g, n)
        assert chi_via_omega(g, n).value == hz, (g, n)


def test_frontier_routes_exact():
    # dimension 12, the cap of chi and mv: both chi routes through Hodge
    # integrals equal Harer-Zagier and the two MV routes agree (the value was
    # recorded with both routes before the Hodge string/dilaton equations)
    hz = chi_harer_zagier(5, 0).value
    assert hz == F(1, 1056)
    assert chi_via_hodge(5, 0).value == hz
    assert chi_via_omega(5, 0).value == hz
    mvv = mv_via_hodge(5, 0).value
    assert mvv == mv_via_omega(5, 0).value == F(7607231, 1310720)


@pytest.mark.parametrize("g,n", stable_types(9))
def test_chi_hodge_multisets_match_ordered_compositions(g, n):
    # one term per multiset of added-point exponents, weighted by its
    # orderings, against one term per ordering
    assert chi_via_hodge(g, n).value == chi_by_ordered_compositions(g, n)


def test_chi_omega_graph_route_small():
    for (g, n) in [(0, 3), (0, 4), (1, 1), (1, 2), (2, 0)]:
        spec = OmegaSpec(1, -1, (0,) * n)
        assert omega_integral(g, n, spec, route="graph") == HZ_VALUES[(g, n)]


def test_recursion_check():
    # chi_{g,n+1} = -(2g-2+n) chi_{g,n} on every route, and the routes agree
    for (g, n) in [(0, 3), (1, 1), (2, 0), (2, 1)]:
        factor = -(2 * g - 2 + n)
        vals = {route: (chi(g, n, route).value, chi(g, n + 1, route).value) for route in CHI_ROUTES}
        assert len(set(vals.values())) == 1, (g, n, vals)
        for route, (v, v1) in vals.items():
            assert v1 == factor * v, (g, n, route)


def test_dyz_identity():
    # sum_{l>=1} (-1)^l/l! sum_mu int Lambda(-1) prod psi^{mu_i+1} over
    # Mbar_{g,l} equals B_{2g}/(2g(2g-2)) for g >= 2; with e_i = mu_i + 1 the
    # left side is, term by term, the Hodge sum of chi_via_hodge at n = 0 (its
    # l = 0 term vanishes for g >= 2)
    assert chi_via_hodge(2, 0).value == F(-1, 240)
    for g in range(2, 6):
        dyz = bernoulli_number(2 * g) / (2 * g * (2 * g - 2))
        assert chi_via_hodge(g, 0).value == dyz == chi_harer_zagier(g, 0).value, g


def test_mv_routes_and_known_normalized_values():
    # normalized values 2^{2g+1}(4g-4+n)!/(6g-7+2n)! * MV match the classical
    # table: (0,4) -> 2, (0,5) -> 1, (1,1) -> 2/3, (1,2) -> 1/3, (2,1) -> 29/840
    table = {(0, 4): F(2), (0, 5): F(1), (1, 1): F(2, 3), (1, 2): F(1, 3), (2, 1): F(29, 840)}
    for (g, n), v in table.items():
        mvv = mv_via_omega(g, n).value
        assert mv_via_hodge(g, n).value == mvv
        assert mv_normalization(g, n) * mvv == v, (g, n)


def test_mv_trivial_and_segre():
    assert mv_via_omega(0, 3).value == F(1)
    assert mv_via_hodge(0, 3).value == F(1)
    # (Omega(1,-1;0))^{-1} = Lambda(1) exp(+sum kappa_m/m) as a class; its
    # integral must match (-1)^{3g-3+n} int Omega(1,2;0)
    for (g, n) in [(0, 3), (0, 4), (1, 1), (1, 2)]:
        dim = 3 * g - 3 + n
        kexp = exp_kappa_series({m: F(1, m) for m in range(1, dim + 1)}, n, dim)
        assert hodge_pair(g, n, lambda_total(F(1), g, dim), kexp) == mv_via_omega(g, n).value


def test_mv_normalization_domain():
    assert mv_normalization(1, 1) == F(2 ** 3 * factorial(1), factorial(1))
    with pytest.raises(ValueError):
        mv_normalization(0, 3)


def test_chi_table_contents():
    # the rows of `tautint table`: every chi route on each stable (g, n)
    rows = [row for cell in stable_types(1, 1) for row in _chi_cell(cell)]
    keys = {(g, n, route) for g, n, _, route in rows}
    assert (0, 3, "harer_zagier") in keys and (1, 1, "omega") in keys
    vals = {(g, n): set() for g, n, _, _ in rows}
    for g, n, value, _ in rows:
        vals[(g, n)].add(value)
    assert all(len(v) == 1 for v in vals.values())


def test_unstable_rejected():
    with pytest.raises(ValueError):
        chi(0, 2)
    with pytest.raises(ValueError):
        mv_via_hodge(1, 0)
    with pytest.raises(ValueError):  # 2g-2+n > 0, but n < 0
        chi(2, -1)
