"""Exact intersection theory on moduli spaces of stable curves.

Pure psi integrals by the Virasoro/DVV recursion, kappa classes by the
added-points expansion, Hodge integrals by a Chern-character recursion, and
Omega (Chiodo) classes by the stable-graph sum or their r = 1 closed forms;
on top of these, the orbifold Euler characteristics of M_{g,n} by three
routes, Masur-Veech volume polynomials by two, and a machine-checkable suite
for the shift/pullback/string/dilaton/vanishing identities of the
Omega-class calculus.  All arithmetic is exact rational.
"""

from .apps import (
    RouteResult,
    chi,
    chi_harer_zagier,
    chi_via_hodge,
    chi_via_omega,
    mv,
    mv_normalization,
    mv_via_hodge,
    mv_via_omega,
)
from .checks import degree_bound_check
from .exact import (
    Rat,
    bernoulli_number,
    bernoulli_poly,
    power_sum,
    stirling_generalized_first,
    stirling_generalized_second,
)
from .graphs import (
    StableGraph,
    WeightingConstraintError,
    automorphism_order,
    enumerate_stable_graphs,
    enumerate_weightings,
    graph_orbits,
)
from .hodge import hodge_monomial, hodge_pair
from .intersect import integrate_monomial
from .omega import OmegaConstraintError, OmegaSpec, omega_integral, omega_pairings
from .polys import (
    EdgeSeries,
    TautPolynomial,
    edge_local_factor,
    exp_kappa_series,
)
from .psi import psi_integral

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
