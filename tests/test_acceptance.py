"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Every assertion is exact rational equality (tolerance zero)."""

import hashlib
import random
import subprocess
import sys
import time
from fractions import Fraction as F

from tautint.apps import (
    chi_harer_zagier,
    chi_via_hodge,
    chi_via_omega,
    mv_via_hodge,
    mv_via_omega,
)
from tautint.checks import FULL_GRID, check_counterexample_footnote, iter_suite
from tautint.exact import bernoulli_number
from tautint.graphs import automorphism_order, enumerate_stable_graphs, enumerate_weightings
from tautint.hodge import hodge_monomial
from tautint.omega import OmegaSpec, omega_integral
from tautint.psi import is_stable, psi_integral

from oracles import brute_stable_graphs, exp_series


def _stable_range(dimmax):
    out = []
    for g in range(0, dimmax // 3 + 2):
        for n in range(0, dimmax + 4):
            if is_stable(g, n) and 3 * g - 3 + n <= dimmax:
                out.append((g, n))
    return sorted(out)


def _report(criterion: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}" + (f" ({extra})" if extra else ""))
    assert ok, criterion


def test_criterion_1_chi_three_routes():
    t0 = time.time()
    bad = []
    for g, n in _stable_range(6):
        hz = chi_harer_zagier(g, n).value
        if chi_via_hodge(g, n).value != hz or chi_via_omega(g, n).value != hz:
            bad.append((g, n))
    elapsed = time.time() - t0
    _report(
        "1: chi by harer_zagier = hodge_sum = omega on 3g-3+n <= 6",
        not bad and elapsed < 300,
        f"{len(_stable_range(6))} spaces, {elapsed:.1f}s",
    )


def test_criterion_2_hodge_calibration():
    lam = hodge_monomial(1, 1, (1,), (), (0,))
    lam_omega = omega_integral(1, 1, OmegaSpec(1, 1, (1,), F(1)), route="graph-raw")
    ok = lam == F(1, 24) and lam_omega == F(-1, 24)
    _report("2: int lambda_1 = 1/24 and int Lambda(-1) = -1/24", ok, f"{lam}, {lam_omega}")


def test_criterion_3_chi_recursion():
    bad = []
    for g, n in _stable_range(6):
        if 3 * g - 3 + (n + 1) > 6:
            continue
        factor = -(2 * g - 2 + n)
        for route_fn in (chi_harer_zagier, chi_via_hodge, chi_via_omega):
            if route_fn(g, n + 1).value != factor * route_fn(g, n).value:
                bad.append((g, n, route_fn.__name__))
    _report("3: chi_{g,n+1} = -(2g-2+n) chi_{g,n} on the grid, all routes", not bad, str(bad[:3]))


def test_criterion_4_dyz_identity():
    # the Hodge sum of chi_via_hodge at n = 0 is the Lambda(-1) sum of the
    # identity, term by term; it equals B_{2g}/(2g(2g-2)) for g >= 2
    t0 = time.time()
    bad = []
    for g in range(2, 6):
        lhs = chi_via_hodge(g, 0).value
        dyz = bernoulli_number(2 * g) / (2 * g * (2 * g - 2))
        if not lhs == dyz == chi_harer_zagier(g, 0).value:
            bad.append((g, lhs))
    genus2 = chi_via_hodge(2, 0).value
    elapsed = time.time() - t0
    ok = not bad and genus2 == F(-1, 240) and elapsed < 120
    _report(
        "4: Lambda(-1) sum equals B_{2g}/(2g(2g-2)) for g = 2..5, -1/240 at g = 2",
        ok,
        f"{genus2}, {bad[:3]}, {elapsed:.1f}s",
    )


def test_criterion_5_mv_dual_route():
    bad = []
    for g, n in _stable_range(5):
        if mv_via_omega(g, n).value != mv_via_hodge(g, n).value:
            bad.append((g, n))
    _report("5: Masur-Veech omega route = hodge route on 3g-3+n <= 5", not bad, str(bad[:3]))


def test_criterion_6_identity_suite():
    t0 = time.time()
    failures = []
    count = 0
    digest = hashlib.sha256()
    for rep in iter_suite(FULL_GRID):
        count += 1
        digest.update((rep.to_json() + "\n").encode())
        if not rep.passed:
            failures.append(rep)
    elapsed = time.time() - t0
    _report(
        "6: shift/pullback/string/dilaton/vanishing suite on the full grid",
        not failures and elapsed < 900,
        f"{count} checks, {elapsed:.1f}s"
        + (f"; first failure {failures[0].to_json()}" if failures else ""),
    )
    # the stdout of `verify --grid full`, byte for byte
    assert digest.hexdigest() == "7dac257d7f02f1d17bdda1029718249ff6cc44a4d726f262c34cf98f2d2cc55b"


def test_criterion_7_footnote_counterexample():
    rep = check_counterexample_footnote(xs=(1, 2, F(1, 2)))
    _report(
        "7: Omega(2,1;0,2)*Omega(2,1;2,0) pairs like c^2 - 3/4 x^2 k2 and not like the unit",
        rep.passed,
        rep.got,
    )


def test_criterion_8_infrastructure_oracles():
    problems = []
    # brute-force enumeration and automorphisms where the search space allows
    for g, n in [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (1, 4)]:
        oracle = brute_stable_graphs(g, n)
        mine = enumerate_stable_graphs(g, n)
        if len(mine) != len(oracle):
            problems.append(f"count mismatch at {(g, n)}")
            continue
        from itertools import permutations

        for G in mine:
            rep = min(
                _relabel(G.genera, G.legs, G.edges, p) for p in permutations(range(G.n_vertices))
            )
            if oracle.get(rep) != automorphism_order(G):
                problems.append(f"aut mismatch at {(g, n)}: {G.serialize()}")
    # genus 0 beyond brute reach: rooting a stable tree at its last leg turns
    # it into a total partition of the remaining legs, whose EGF T solves
    # T = x + (e^T - 1 - T); the fixed-point iteration converges degreewise.
    # Automorphism orders are 1 throughout: trees have no loops or parallel
    # edges, every tree leaf carries legs, leg sets are distinct, and a tree
    # automorphism fixing all leaves is the identity.
    T = [F(0)] * 8
    for _ in range(12):
        ser = exp_series(T[:8], 7)
        T = [F(0), F(1)] + [ser[k] - T[k] for k in range(2, 8)]
    from math import factorial

    a = [T[k] * factorial(k) for k in range(8)]
    for n, expect_idx in [(6, 5), (7, 6)]:
        if len(enumerate_stable_graphs(0, n)) != a[expect_idx]:
            problems.append(f"genus-0 series count mismatch at (0,{n})")
        if any(automorphism_order(G) != 1 for G in enumerate_stable_graphs(0, n)):
            problems.append(f"nontrivial tree automorphism at (0,{n})")
    # weighting counts r^{h1}
    for g, n in [(1, 1), (1, 2), (2, 0), (2, 1), (0, 5)]:
        for r in (1, 2, 3, 4):
            for G in enumerate_stable_graphs(g, n):
                a_vec = None
                for first in range(1, r + 1):
                    cand = (first,) + (r,) * (n - 1) if n else ()
                    if (sum(cand) - (2 * g - 2 + n)) % r == 0:
                        a_vec = cand
                        break
                if a_vec is None:
                    continue
                if len(enumerate_weightings(G, r, 1, a_vec)) != r ** G.h1():
                    problems.append(f"weighting count at {(g, n, r)}: {G.serialize()}")
    # DVV string/dilaton on 50 randomized stable indices
    rng = random.Random(2024)
    checked = 0
    while checked < 50:
        g = rng.randint(0, 3)
        n = rng.randint(1, 6)
        if not is_stable(g, n):
            continue
        dim = 3 * g - 3 + n
        cuts = sorted(rng.randint(0, dim) for _ in range(n - 1))
        d = tuple(b - a for a, b in zip([0] + cuts, cuts + [dim]))
        lhs = psi_integral(g, d + (0,))
        rhs = sum(
            psi_integral(g, d[:j] + (d[j] - 1,) + d[j + 1 :]) for j in range(n) if d[j] >= 1
        )
        if lhs != rhs:
            problems.append(f"string failure at {(g, d)}")
        if psi_integral(g, d + (1,)) != (2 * g - 2 + n) * psi_integral(g, d):
            problems.append(f"dilaton failure at {(g, d)}")
        checked += 1
    _report("8: infrastructure matches independent oracles", not problems, str(problems[:3]))


def _relabel(genera, legs, edges, perm):
    ng = [0] * len(genera)
    for v, gv in enumerate(genera):
        ng[perm[v]] = gv
    nl = tuple(perm[v] for v in legs)
    ne = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
    return (tuple(ng), nl, ne)


def test_criterion_9_determinism():
    cmd = [sys.executable, "-m", "tautint", "table", "--dimmax", "4"]
    runs = [
        subprocess.run(cmd + jobs, capture_output=True, text=True, check=True).stdout
        for jobs in ([], [], ["--jobs", "1"], ["--jobs", "8"])
    ]
    ok = len(set(runs)) == 1
    _report("9: table --dimmax 4 byte-identical across runs and jobs 1/8", ok)
