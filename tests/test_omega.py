import hashlib
from fractions import Fraction as F

import pytest
from oracles import edge_configs_per_weighting, hodge_integral_via_omega, vertex_integral_literal

from tautint import checks, memos, omega
from tautint.checks import admissible_a, degree_bound_check, flat_basis
from tautint.graphs import graph_orbits
from tautint.hodge import hodge_monomial, hodge_pair, lambda_total_inverse
from tautint.omega import (
    OmegaConstraintError,
    OmegaSpec,
    omega_integral,
    omega_pairings,
    omega_r1_parts,
)
from tautint.polys import TautPolynomial, monomial_degree
from tautint.psi import stable_types

CHI_SPEC = lambda n: OmegaSpec(1, -1, (0,) * n, F(1))


def test_headline_values():
    assert omega_integral(1, 1, CHI_SPEC(1), route="graph") == F(-1, 12)
    assert omega_integral(0, 3, OmegaSpec(1, 0, (0, 0, 0))) == F(1)


def test_x_zero_reduces_to_covering_degree():
    # Omega^{[0]} is the pushforward of 1, i.e. r^{2g-1} times the unit
    T = TautPolynomial.from_monomial(2, 2, (), (2, 0))
    spec = OmegaSpec(2, 1, (1, 1), F(0))
    assert omega_integral(1, 2, spec, T, route="graph-raw") == 2 * F(1, 24)
    assert omega_integral(0, 3, OmegaSpec(3, 0, (3, 3, 3), F(0))) == F(1, 3)
    assert omega_integral(0, 3, OmegaSpec(1, 0, (0, 0, 0), F(0))) == F(1)


def test_constraint_validation():
    with pytest.raises(OmegaConstraintError):
        omega_integral(1, 1, OmegaSpec(2, 0, (1,)))
    with pytest.raises(ValueError):
        omega_integral(1, 1, OmegaSpec(0, 0, (0,)))
    with pytest.raises(ValueError):  # the closed form is the r = 1 class only
        omega_integral(1, 1, OmegaSpec(2, 0, (0,)), route="closed")


def test_closed_vs_graph_routes():
    # the r = 1 factored form and the stable-graph sum agree on small spaces
    for (g, n) in [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (2, 0)]:
        for s in (-1, 0, 2):
            spec = OmegaSpec(1, s, (0,) * n, F(1))
            basis = flat_basis(g, n)
            closed = omega_pairings(g, n, spec, basis, route="closed")
            graph = omega_pairings(g, n, spec, basis, route="graph")
            assert closed == graph, (g, n, s)


def test_nonzero_a_closed_vs_graph():
    # r = 1 accepts any integer a-vector
    for (g, n, a) in [(1, 1, (2,)), (1, 2, (3, -1)), (0, 4, (1, 0, 2, 1))]:
        spec = OmegaSpec(1, 1, a, F(1, 2))
        basis = flat_basis(g, n)
        assert omega_pairings(g, n, spec, basis, "closed") == omega_pairings(
            g, n, spec, basis, "graph"
        )


def test_x_grading_invariant():
    # [deg k].Omega^{[x]} carries exactly x^k: raw evaluation at sampled x
    # matches the monomial scaling of the x = 1 pairings
    for (g, n, r, s, a) in [
        (1, 1, 2, 1, (1,)),
        (1, 2, 2, -1, (1, 1)),
        (0, 5, 3, 2, (1, 1, 1, 3, 3)),
        (2, 0, 2, 1, ()),
    ]:
        dim = 3 * g - 3 + n
        basis = flat_basis(g, n)
        base = omega_pairings(g, n, OmegaSpec(r, s, a, F(1)), basis, "graph")
        for x in (F(2), F(-1, 3)):
            raw = omega_pairings(g, n, OmegaSpec(r, s, a, x), basis, "graph-raw")
            for mono in basis:
                k = dim - monomial_degree(mono)
                assert raw[mono] == x ** k * base[mono], (g, n, r, s, mono, x)


def test_pairings_accept_any_monomial_form():
    # a batch may come as any iterable, with kappa pairs in any order and psi
    # as any sequence; the values are keyed by the normalised monomials.  On
    # the graph routes a = (1, 1, 2) lets psi_1 and psi_2 trade places.
    from tautint import omega

    cases = [
        (OmegaSpec(2, 0, (1, 1, 2), F(1, 2)), "graph"),
        (OmegaSpec(2, 0, (1, 1, 2), F(1, 2)), "graph-raw"),
        (OmegaSpec(1, 0, (0, 1, 2), F(1, 2)), "closed"),
    ]
    basis = flat_basis(1, 3)
    assert any(len(kap) > 1 for kap, _ in basis)
    forms = [
        lambda: (m for m in basis),
        lambda: tuple(basis),
        lambda: [(tuple(reversed(kap)), list(psi)) for kap, psi in basis],
    ]
    for spec, route in cases:
        omega._pairing_cache.clear()
        want = omega_pairings(1, 3, spec, list(basis), route)
        assert list(want) == basis
        for form in forms:
            omega._pairing_cache.clear()
            assert omega_pairings(1, 3, spec, form(), route) == want, (spec, route)
            assert omega_pairings(1, 3, spec, form(), route) == want, (spec, route)


def test_closed_form_r1_parts():
    assert omega_integral(0, 3, CHI_SPEC(3), route="closed") == F(1)
    assert omega_integral(1, 1, CHI_SPEC(1), route="closed") == F(-1, 12)
    # degree-1 data: -lambda_1 - kappa_1
    lam, P = omega_r1_parts(1, 1, -1, (0,), F(1), 1)
    assert lam[(1,)] == F(-1)
    assert P.terms[(((1, 1),), (0,))] == F(-1)
    # the default linear (Mumford) form and the inverse series agree
    assert omega_integral(1, 2, CHI_SPEC(2), route="closed") == F(1, 12)
    _, P = omega_r1_parts(1, 2, -1, (0, 0), F(1), 2)
    assert hodge_pair(1, 2, lambda_total_inverse(F(1), 1, 2), P) == F(1, 12)


@pytest.mark.parametrize("g,n", stable_types(5))
def test_closed_route_pairs_like_the_inverse_lambda_series(g, n):
    # the closed route pairs Lambda(-x); the inverse series Lambda(x)^{-1}
    # assumes no total-Chern-class relation, so equal pairings over the
    # basis are Mumford's relation at work
    dim = 3 * g - 3 + n
    basis = flat_basis(g, n)
    for s in (-1, 0, 2):
        a = admissible_a(g, n, 1, s)
        for x in (F(1), F(-1, 2)):
            got = omega_pairings(g, n, OmegaSpec(1, s, a, x), basis, route="closed")
            _, P = omega_r1_parts(g, n, s, a, x, dim)
            lam = lambda_total_inverse(x, g, dim)
            for kap, psi in basis:
                Pm = P * TautPolynomial.from_monomial(n, dim, kap, psi)
                assert got[(kap, psi)] == hodge_pair(g, n, lam, Pm), (g, n, s, x, kap, psi)


@pytest.mark.parametrize("g,n", stable_types(5))
def test_closed_route_scales_like_the_literal_closed_form(g, n):
    # the closed route evaluates at x = 1 and scales a pairing of degree d by
    # x^(dim - d); the closed form written out at x itself and paired with
    # hodge_pair must agree
    dim = 3 * g - 3 + n
    basis = flat_basis(g, n)
    for s in (-1, 2):
        for a in ((0,) * n, ((2, -1) + (0,) * n)[:n]):
            for x in (F(-1), F(1, 2), F(3)):
                got = omega_pairings(g, n, OmegaSpec(1, s, a, x), basis, route="closed")
                lam, P = omega_r1_parts(g, n, s, a, x, dim)
                for kap, psi in basis:
                    Pm = P * TautPolynomial.from_monomial(n, dim, kap, psi)
                    assert got[(kap, psi)] == hodge_pair(g, n, lam, Pm), (g, n, s, a, x, kap, psi)


def test_lambda_pairings_graph_route_match_engine():
    # Lambda(t) pairs like Omega^{[-t]}(1, 1; 1,...,1): at t = -1, the Omega
    # graph sum vs the recursive engine
    lambda_spec = lambda n: OmegaSpec(1, 1, (1,) * n, F(1))
    for (g, n) in [(1, 1), (1, 2), (0, 4)]:
        dim = 3 * g - 3 + n
        got = omega_integral(g, n, lambda_spec(n), route="graph-raw")
        want = sum(
            ((-1) ** i) * hodge_monomial(g, n, (i,) if i else (), (), (0,) * n)
            for i in range(g + 1)
            if i == dim
        )
        assert got == (want or F(0))
    assert omega_integral(1, 1, lambda_spec(1), route="graph-raw") == F(-1, 24)


def test_hodge_integral_via_omega_interpolation():
    T = TautPolynomial.one(1, 1)
    assert hodge_integral_via_omega(1, 1, 1, T) == F(1, 24)
    T2 = TautPolynomial.from_monomial(1, 1, (), (1,))
    assert hodge_integral_via_omega(1, 1, 0, T2) == F(1, 24)
    # int lambda_1 psi_1 over Mbar_{1,2}
    T3 = TautPolynomial.from_monomial(2, 2, (), (1, 0))
    assert hodge_integral_via_omega(1, 2, 1, T3) == F(1, 24)
    assert hodge_integral_via_omega(0, 4, 1, TautPolynomial.one(4, 1)) == 0


def test_vanishing_thm_small_grid():
    # int Omega^{[x]}(r, s; a, s) = 0 over a small sweep
    for (g, n) in [(0, 3), (1, 1), (1, 2)]:
        for r in (1, 2, 3):
            for s in (-2, -1, 0, 1, 2, 3, 5):
                a = None
                for first in range(1, r + 1):
                    cand = (first,) + (r,) * (n - 1)
                    if (sum(cand) - (2 * g - 2 + n) * s) % r == 0:
                        a = cand
                        break
                for x in (F(1), F(-1), F(2)):
                    spec = OmegaSpec(r, s, a + (s,), x)
                    assert omega_integral(g, n + 1, spec) == 0, (g, n, r, s, x)


def test_degree_bound_checks():
    rep = degree_bound_check(0, 4, OmegaSpec(2, 0, (1, 1, 1, 1)), "jkv")
    assert rep.passed and "vacuous" in rep.got
    rep = degree_bound_check(1, 1, OmegaSpec(2, -1, (1,)), "negative-s")
    assert rep.passed
    # a non-vacuous JKV case: g=0, n=5, r=3, sum(a)/r - 1 < dim = 2
    rep = degree_bound_check(0, 5, OmegaSpec(3, 0, (1, 1, 1, 1, 2)), "jkv")
    assert rep.passed and "vacuous" not in rep.got
    rep = degree_bound_check(1, 2, OmegaSpec(2, -1, (1, 1)), "negative-s")
    assert rep.passed
    with pytest.raises(ValueError):
        degree_bound_check(1, 1, OmegaSpec(2, 0, (0,)), "jkv")


@pytest.mark.parametrize(
    "g,n,spec,formula,want",
    [
        # non-vacuous cases with every pairing shifted by r/7: the first detail line
        (0, 6, OmegaSpec(3, 0, (1,) * 6), "jkv", "k=2 T=psi^(0, 0, 0, 0, 0, 1): coefficient 3/7"),
        (0, 6, OmegaSpec(5, -1, (1,) * 6), "negative-s", "k=2 T=psi^(0, 0, 0, 0, 0, 1): coefficient 5/7"),
        # refusals: the hypotheses of each bound, and an unknown formula
        (1, 1, OmegaSpec(2, 0, (2,)), "jkv", "jkv bound needs g = 0 and s = 0"),
        (0, 4, OmegaSpec(2, 1, (1, 1, 1, 1)), "jkv", "jkv bound needs g = 0 and s = 0"),
        (0, 4, OmegaSpec(2, 0, (0, 0, 1, 1)), "jkv", "jkv bound needs a_i > 0 except"),
        (0, 4, OmegaSpec(2, 0, (-2, 1, 1, 2)), "jkv", "jkv bound needs a_i > 0 except"),
        (1, 1, OmegaSpec(2, 0, (2,)), "negative-s", "negative-s bound needs s < 0 and a_i > 0"),
        (1, 1, OmegaSpec(2, -1, (-1,)), "negative-s", "negative-s bound needs s < 0 and a_i > 0"),
        (0, 4, OmegaSpec(2, 0, (1, 1, 1, 1)), "rank", "unknown bound formula 'rank'"),
    ],
)
def test_degree_bound_check_failures(g, n, spec, formula, want, monkeypatch):
    if not want.startswith("k="):
        with pytest.raises(ValueError, match=want):
            degree_bound_check(g, n, spec, formula)
        return
    assert degree_bound_check(g, n, spec, formula).passed
    pairings = checks.omega_pairings
    monkeypatch.setattr(
        checks,
        "omega_pairings",
        lambda g, n, spec, monos: {m: v + F(spec.r, 7) for m, v in pairings(g, n, spec, monos).items()},
    )
    rep = degree_bound_check(g, n, spec, formula)
    assert not rep.passed and rep.got == rep.details[0] == want
    assert len(rep.details) == 5


def test_pairings_cache_consistency():
    spec = OmegaSpec(2, 1, (1, 1), F(1))
    basis = flat_basis(1, 2)
    once = omega_pairings(1, 2, spec, basis)
    twice = omega_pairings(1, 2, spec, list(reversed(basis)))
    assert once == twice


def test_graph_sum_values_do_not_depend_on_cache_state():
    # these specs agree mod r up to moving markings, so their graph sums share
    # edge-configuration entries, and the first two share (r, s), so they share
    # vertex-integral entries too: values computed after the others filled the
    # shared entries must equal values computed from empty caches; the r = 1
    # spec does the same on the closed route
    cases = [
        (OmegaSpec(3, 1, (1, 3, 2)), "graph"),
        (OmegaSpec(3, 1, (3, 1, 2)), "graph"),
        (OmegaSpec(3, 4, (3, 1, 5)), "graph"),
        (OmegaSpec(3, -2, (4, 0, 2)), "graph"),
        (OmegaSpec(1, 2, (1, 0, 3)), "closed"),
    ]
    basis = flat_basis(1, 3)

    def clear():
        for name, (memo, _) in memos._memos.items():
            if not name.startswith("omega."):
                continue
            if isinstance(memo, dict):
                memo.clear()
            else:
                memo.cache_clear()

    cold = {}
    for spec, route in cases:
        clear()
        cold[spec] = omega_pairings(1, 3, spec, basis, route=route)
    clear()
    for spec, route in cases:
        assert omega_pairings(1, 3, spec, basis, route=route) == cold[spec]
    assert len({tuple(cold[spec].values()) for spec, _ in cases}) == len(cases)


# Exact pairings recorded with the sum over every labelled stable graph,
# before the graph sum ran over orbits of markings with equal a_i: a sha256
# digest of the whole batch and a few values written out.  Equal a_i give a
# nontrivial marking symmetry; on Mbar_{1,4} and Mbar_{1,3} markings with
# different a_i share a residue mod r, which must not be mistaken for one.
REPEATED_A_CASES = [
    (
        0, 6, OmegaSpec(2, 3, (1,) * 6), "graph",
        "2b44f7434f18cac6cd2076dd8d8854859a2e1f7ffa634466cfe01efed8f27236",
        {
            ((), (0, 0, 0, 0, 0, 0)): F(-15, 16),
            ((), (1, 1, 0, 0, 0, 0)): F(-3),
            (((1, 1),), (1, 0, 0, 0, 0, 0)): F(-13, 2),
            ((), (2, 1, 0, 0, 0, 0)): F(3, 2),
        },
    ),
    (
        1, 4, OmegaSpec(3, 1, (1, 1, 4, -2)), "graph",
        "2da129d4199fe27b838c43fb25f85d3b7521ff4c7ff5436a03ff77644f6b20a8",
        {
            ((), (1, 1, 0, 0)): F(5, 12),
            (((1, 1),), (0, 0, 1, 1)): F(11, 6),
            (((2, 1),), (1, 0, 0, 0)): F(13, 9),
            ((), (0, 0, 0, 0)): F(25, 486),
        },
    ),
    (
        2, 2, OmegaSpec(2, 1, (1, 1)), "graph",
        "d68b85f818d560bbb02302e74faef567d27835775450515b95d8cdc6b33142e6",
        {
            ((), (1, 1)): F(7, 3840),
            (((1, 1),), (1, 1)): F(-17, 960),
            (((1, 2),), (0, 1)): F(-221, 5760),
        },
    ),
    (
        1, 3, OmegaSpec(2, 1, (1, 1, 3), F(1, 2)), "graph-raw",
        "11baa85021f607eb8c2a874d8772bf4eb27ea618a67b85b202dffec499f19faf",
        {
            ((), (1, 1, 0)): F(1, 48),
            ((), (0, 1, 1)): F(1, 48),
            (((1, 1),), (0, 0, 0)): F(-1, 128),
        },
    ),
]


def _pairing_digest(values):
    h = hashlib.sha256()
    for mono in sorted(values):
        v = values[mono]
        h.update(f"{mono!r}={v.numerator}/{v.denominator}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "g,n,spec,route,digest,samples",
    REPEATED_A_CASES,
    ids=["M06-r2", "M14-r3", "M22-r2", "M13-r2-raw"],
)
def test_orbit_sum_matches_labelled_sum(g, n, spec, route, digest, samples):
    from tautint import omega

    omega._pairing_cache.clear()
    values = omega_pairings(g, n, spec, flat_basis(g, n), route=route)
    for mono, want in samples.items():
        assert values[mono] == want, mono
    assert _pairing_digest(values) == digest


# Digests of graph-sum batches recorded before the edge configurations were
# merged over sorted half-edge exponents: Mbar_{2,3} at r = 7 with distinct
# a_i (84 psi monomials), Mbar_{2,3} at r = 3 with a repeated a_i and kappa
# monomials, and a literal x = 1/2 sum on Mbar_{2,2}, whose graphs carry two
# or more half-edges next to a leg at one vertex.
PINNED_BATCHES = [
    (
        2, 3, OmegaSpec(7, 0, (1, 2, 4)), "graph", False,
        "05645631499edc2b9844995c8e6e4846fb0d15df5c6d553399d94d61fe5c3fbf",
    ),
    (
        2, 3, OmegaSpec(3, 1, (2, 3, 3)), "graph", True,
        "55cc1c6d4e17227af23696c5425527b6ed85ab4ee37cee5f338b7b3f2627bd26",
    ),
    (
        2, 2, OmegaSpec(3, 1, (1, 3), F(1, 2)), "graph-raw", True,
        "ead93f2ea82155395773039d10045c9ea0a30db3d658969f1319c751b2fb6f92",
    ),
]


@pytest.mark.parametrize(
    "g,n,spec,route,kappa,digest", PINNED_BATCHES, ids=["M23-r7", "M23-r3", "M22-r3-raw"]
)
def test_graph_sum_digests_pinned(g, n, spec, route, kappa, digest):
    from tautint import omega

    omega._pairing_cache.clear()
    values = omega_pairings(g, n, spec, flat_basis(g, n, include_kappa=kappa), route=route)
    assert _pairing_digest(values) == digest


def test_graph_sum_builds_edge_series_only_at_used_residues():
    # at r = 10^4 a tree fixes its edge residues: Mbar_{0,3} has no edge and
    # Mbar_{0,4} with a = (1,1,1,-3) one graph orbit with one edge, so neither
    # needs the edge series at every residue mod r
    from tautint import omega
    from tautint.polys import edge_local_factor

    r = 10 ** 4
    for a, want, built in [((1, 1, -2), F(1, r), 0), ((1, 1, 1, -3), F(3, r ** 2), 1)]:
        omega._pairing_cache.clear()
        omega._config_cache.clear()
        edge_local_factor.cache_clear()
        assert omega_integral(0, len(a), OmegaSpec(r, 0, a)) == want
        assert edge_local_factor.cache_info().misses == built, a


@pytest.mark.parametrize("r", range(1, 9))
def test_edge_terms_by_reflection_match_the_edge_series(r):
    # above r/2 the edge series is read from residue r - w with psi' and psi''
    # swapped; against the series expanded at w itself, its order kept
    from tautint.polys import edge_local_factor

    trunc = 5
    for x in (F(1), F(1, 2), F(-1)):
        for w in range(r):
            den, terms = omega._edge_terms(w, r, x.numerator, x.denominator, trunc)
            want = edge_local_factor(w, r, x, trunc).terms
            assert [ij for ij, _ in terms] == [ij for ij, _ in want], (r, w, x)
            assert [F(q, den) for _, q in terms] == [q for _, q in want], (r, w, x)


# Graphs that read the psi vectors of an orbit through their leg layout: all
# a_i equal, a repeated a_i beside a distinct one, and a repeated a_i with
# a_i outside 0..r-1 (4 and -2 at r = 3).
READING_CASES = [(0, 6, (1,) * 6), (2, 3, (1, 2, 2)), (1, 4, (1, 1, 4, -2))]


@pytest.mark.parametrize("g,n,a", READING_CASES)
def test_leg_readings_cover_each_orbit_once(g, n, a):
    from collections import Counter
    from itertools import permutations

    classes = omega._classes_of(a)
    by_a = [[i for i in range(n) if a[i] == c] for c in set(a)]
    orbits = {}
    for _, psi in flat_basis(g, n):
        orbit = omega._psi_orbit(psi, classes)
        # the orbit: the vectors with psi's multiset of exponents on the
        # markings of each a_i, each once
        moved = {
            p
            for p in permutations(psi)
            if all(sorted(p[i] for i in cls) == sorted(psi[i] for i in cls) for cls in by_a)
        }
        assert len(orbit) == len(moved) and set(orbit) == moved, psi
        orbits[psi] = orbit
    for G, _ in graph_orbits(g, n, a):
        legs = omega._graph_plan(G)[2]
        for psi, orbit in orbits.items():
            readings = omega._leg_readings(orbit, legs, a)
            assert sum(count for _, _, count in readings) == len(orbit)
            # each vector of the orbit restricted to the legs of each vertex
            want = Counter(
                tuple(
                    tuple(sorted((a[i], vec[i]) for i in range(n) if G.legs[i] == v))
                    for v in range(G.n_vertices)
                )
                for vec in orbit
            )
            assert {vlegs: count for vlegs, _, count in readings} == want, (G, psi)
            for vlegs, legdeg, _ in readings:
                assert legdeg == tuple(sum(d for _, d in vl) for vl in vlegs)


@pytest.mark.parametrize(
    "g,n,r,s",
    [(2, 3, r, s) for r in (2, 3, 5) for s in (0, 1)] + [(1, 4, 4, 0), (1, 4, 4, 1)]
    # large r: many residues on one loop edge
    + [(1, 2, 40, 0), (1, 3, 20, 1)],
)
def test_edge_configs_match_per_weighting_sums(g, n, r, s):
    # one pass over the edges for all weightings against one weighting at a time
    head = tuple(i % r for i in range(1, n))
    a = head + (((2 * g - 2 + n) * s - sum(head)) % r,)
    for G, _ in graph_orbits(g, n, range(n)):
        groups = omega._edge_configs(G, r, s, a, 1, 1, 3 * g - 3 + n)
        got = {cfg: F(num, den) for _, group in groups for cfg, num, den in group}
        assert all(hsum == tuple(map(sum, cfg)) for hsum, group in groups for cfg, _, _ in group)
        assert got == edge_configs_per_weighting(G, r, s, a, F(1), 3 * g - 3 + n), (G, r, s, a)


# The vertex integrals of a graph sum, built one degree at a time from the
# kappa and leg factors, against the vertex product multiplied out in full,
# on every (vertex, half-edge exponents) key the sum visits: all a_i equal;
# a repeated a_i with a_i outside 0..r-1 (4 and -2 at r = 3) and s < 0; kappa
# monomials on genus-2 graphs; and literal sums at x = 1/2 and x = -1.
VERTEX_CASES = [
    (0, 6, OmegaSpec(2, 3, (1,) * 6), "graph", True),
    (1, 4, OmegaSpec(3, -2, (1, 1, 4, -2)), "graph", True),
    (2, 3, OmegaSpec(3, 1, (2, 3, 3)), "graph", True),
    (2, 2, OmegaSpec(3, 1, (1, 3), F(1, 2)), "graph-raw", True),
    (2, 2, OmegaSpec(3, 1, (1, 3), F(-1)), "graph-raw", True),
]


@pytest.mark.parametrize(
    "g,n,spec,route,kappa",
    VERTEX_CASES,
    ids=["M06-r2", "M14-r3", "M23-r3", "M22-half", "M22-minus1"],
)
def test_vertex_integrals_match_the_literal_product(g, n, spec, route, kappa):
    omega._pairing_cache.clear()
    omega._vertex_cache.clear()
    omega_pairings(g, n, spec, flat_basis(g, n, include_kappa=kappa), route=route)
    x = spec.x if route == "graph-raw" else F(1)
    (key, tables), = omega._vertex_cache.items()
    assert key == (spec.r, spec.s, x.numerator, x.denominator)
    seen = 0
    for vkey, table in tables.items():
        for cfg, (num, den) in table.items():
            assert F(num, den) == vertex_integral_literal(spec.r, spec.s, x, vkey, cfg), (vkey, cfg)
            seen += 1
    assert seen >= 40
