"""Independent reference implementations used only to cross-check the
package: series-inversion Bernoulli numbers, brute-force stable-graph
enumeration with half-edge automorphism counting, mod-r weightings by
filtering every residue tuple, direct product/series expansions for the
symmetric-function and Stirling layers, the Hodge boundary sum over every
degeneration and split with no term skipped, the graph sum's edge
configurations one weighting at a time, its vertex integrals from the fully
multiplied-out vertex product, kappa classes by added points summed
over ordered compositions of u-series coefficients, chi_{g,n} by the Hodge
sum over ordered compositions of the added points' exponents, lambda classes
by x-interpolation of Omega pairings, and the sorted exponent vectors that
the pinned-value digests run over.

Nothing here shares code paths with the package internals, except public
entry points that the routes are built on (`psi_integral` under the
composition sum, `hodge_monomial` under the chi sum, `omega_integral` under
the interpolation, `enumerate_weightings` and `edge_local_factor` under the
edge configurations, the series builders and `integrate_monomial` under the
literal vertex product) and the polynomial helpers at the end: small
constructions on the public `tautint.polys` API that the polynomial tests
exercise and the package itself does not need.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from math import factorial

from tautint.exact import bernoulli_series, interpolate_polynomial
from tautint.graphs import enumerate_weightings
from tautint.hodge import hodge_monomial
from tautint.intersect import integrate_monomial
from tautint.omega import OmegaSpec, omega_integral
from tautint.polys import (
    EdgeSeries,
    PsiPart,
    TautPolynomial,
    edge_local_factor,
    exp_kappa_series,
    exp_psi_series,
    monomial_degree,
    monomial_product,
    series_inverse,
    series_mul,
    vector_add,
)
from tautint.psi import is_stable, psi_integral


def bernoulli_by_series(maxm: int) -> list[Fraction]:
    """B_0..B_maxm from inverting (e^t - 1)/t = sum t^k/(k+1)!."""
    A = [Fraction(1, factorial(k + 1)) for k in range(maxm + 1)]
    C = [Fraction(1)]
    for m in range(1, maxm + 1):
        C.append(-sum(A[k] * C[m - k] for k in range(1, m + 1)))
    return [C[m] * factorial(m) for m in range(maxm + 1)]


def bernoulli_poly_by_series(m: int, x: Fraction, terms: int | None = None) -> Fraction:
    """B_m(x) as m! times the t^m coefficient of (t e^{tx}) / (e^t - 1)."""
    N = m + 1
    expx = [x ** k / factorial(k) for k in range(N)]
    B = bernoulli_by_series(m)
    coeff = sum(expx[k] * B[m - k] / factorial(m - k) for k in range(m + 1))
    return coeff * factorial(m)


def poly_mul(a: list[Fraction], b: list[Fraction], trunc: int) -> list[Fraction]:
    out = [Fraction(0)] * (trunc + 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if i + j <= trunc and cb != 0:
                out[i + j] += ca * cb
    return out


def product_expansion(values: list[Fraction], trunc: int) -> list[Fraction]:
    """Coefficients of prod_i (1 + v_i u) up to u^trunc."""
    out = [Fraction(1)] + [Fraction(0)] * trunc
    for v in values:
        out = poly_mul(out, [Fraction(1), v], trunc)
    return out


def geometric_expansion(values: list[Fraction], trunc: int) -> list[Fraction]:
    """Coefficients of prod_i 1/(1 - v_i u) up to u^trunc."""
    out = [Fraction(1)] + [Fraction(0)] * trunc
    for v in values:
        geo = [v ** k for k in range(trunc + 1)]
        out = poly_mul(out, geo, trunc)
    return out


def exp_series(coeffs: list[Fraction], trunc: int) -> list[Fraction]:
    """exp of a series with zero constant term, as coefficient list."""
    out = [Fraction(1)] + [Fraction(0)] * trunc
    power = list(out)
    for k in range(1, trunc + 1):
        power = poly_mul(power, coeffs, trunc)
        for d in range(trunc + 1):
            out[d] += power[d] / factorial(k)
    return out


# -- brute-force stable graphs ----------------------------------------------------


def _is_connected(nv: int, edges) -> bool:
    if nv == 1:
        return True
    adj = {v: set() for v in range(nv)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == nv


@lru_cache(maxsize=None)
def brute_stable_graphs(g: int, n: int) -> dict[tuple, int]:
    """All isomorphism classes as orbit-minimal labelled tuples, mapped to
    their automorphism order (counted over half-edge bijections).  Cached,
    since (1, 4) takes tens of seconds; callers must not modify the dict."""
    dim = 3 * g - 3 + n
    found: dict[tuple, int] = {}
    for nv in range(1, dim + 2):
        for genera in product(range(g + 1), repeat=nv):
            if sum(genera) > g:
                continue
            ne = g - sum(genera) + nv - 1
            if ne < 0 or ne > dim:
                continue
            # connectivity reads only the edge multiset, so it is tested once
            # per multiset here, not once per leg placement
            pairs = list(combinations_with_replacement(range(nv), 2))
            connected = [emul for emul in combinations_with_replacement(pairs, ne) if _is_connected(nv, emul)]
            for legs in product(range(nv), repeat=n):
                for emul in connected:
                    stable = True
                    for v in range(nv):
                        val = sum(1 for w in legs if w == v) + sum(
                            (a == v) + (b == v) for a, b in emul
                        )
                        if 2 * genera[v] - 2 + val <= 0:
                            stable = False
                            break
                    if not stable:
                        continue
                    rep = min(
                        _relabel(genera, legs, emul, perm)
                        for perm in permutations(range(nv))
                    )
                    if rep not in found:
                        found[rep] = _brute_aut(*rep)
    return found


def _relabel(genera, legs, edges, perm):
    ng = [0] * len(genera)
    for v, gv in enumerate(genera):
        ng[perm[v]] = gv
    nl = tuple(perm[v] for v in legs)
    ne = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
    return (tuple(ng), nl, ne)


def _brute_aut(genera, legs, edges) -> int:
    """Count automorphisms as permutations of half-edges: partners map to
    partners, induced vertex map well-defined and injective, genus and leg
    sets preserved.  A partner-preserving permutation sends each edge to an
    edge, in one of two orientations, so the search maps one edge at a time
    and abandons a branch at its first inconsistent vertex."""
    if not edges:
        return 1  # single vertex, no edges
    nv = len(genera)
    legs_at = [tuple(sorted(i for i, w in enumerate(legs) if w == v)) for v in range(nv)]

    def extend(e: int, vmap: dict[int, int], used: frozenset) -> int:
        if e == len(edges):
            return 1
        a, b = edges[e]
        count = 0
        for f, (c, d) in enumerate(edges):
            if f in used:
                continue
            # half (e, 0) goes to the half of f at x, half (e, 1) to the one at y
            for x, y in ((c, d), (d, c)):
                m = dict(vmap)
                if all(
                    m.setdefault(v, w) == w and genera[v] == genera[w] and legs_at[v] == legs_at[w]
                    for v, w in ((a, x), (b, y))
                ) and len(set(m.values())) == len(m):
                    count += extend(e + 1, m, used | {f})
        return count

    return extend(0, {}, frozenset())


# -- brute-force mod-r weightings ---------------------------------------------------


@lru_cache(maxsize=1)
def _residue_tuples_by_sums(G, r: int) -> dict[int, list[int]]:
    """All r^E side-0 residue tuples of G, as their indices in lexicographic
    order (base-r numbers), grouped by the half-edge residue sums mod r at
    the vertices (the base-r digits of the key), one edge at a time.  One
    graph is kept: callers loop over (s, a) with G and r fixed."""
    groups = {0: [0]}
    for p, q in G.edges:
        nxt: dict[int, list[int]] = {}
        for key, idx in groups.items():
            for w in range(r):
                k = key
                for v, res in ((p, w), (q, -w % r)):
                    d = k // r**v % r
                    k += ((d + res) % r - d) * r**v
                nxt.setdefault(k, []).extend([i * r + w for i in idx])
        groups = nxt
    return groups


def brute_weightings(G, r: int, s: int, a: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Residue tuples of the admissible mod-r weightings of G, sorted: every
    one of the r^E tuples is tested against the vertex congruences
    sum of local decorations = (2g_v - 2 + n_v) s mod r."""
    need = []
    for v, gv in enumerate(G.genera):
        legs = [i for i, w in enumerate(G.legs) if w == v]
        halves = sum((p == v) + (q == v) for p, q in G.edges)
        need.append(((2 * gv - 2 + len(legs) + halves) * s - sum(a[i] for i in legs)) % r)
    key = sum(d * r**v for v, d in enumerate(need))
    out = []
    for i in sorted(_residue_tuples_by_sums(G, r).get(key, [])):
        digits = []
        for _ in G.edges:
            i, w = divmod(i, r)
            digits.append(w)
        out.append(tuple(reversed(digits)))
    return out


# -- edge configurations one weighting at a time ----------------------------------


def edge_configs_per_weighting(G, r: int, s: int, a: tuple[int, ...], x, dim: int) -> dict:
    """{config: coefficient} for the edge configurations of G (see
    `omega._edge_configs`), summed one weighting at a time: for each
    weighting, every choice of one term of each edge's series whose
    half-edge exponents fit the vertex dimensions, the exponents of each
    vertex's half-edges sorted.  Zero sums are dropped."""
    nv, dims = G.n_vertices, G.vertex_dims()
    halves = [G.half_edges_at(v) for v in range(nv)]
    out: dict[tuple, Fraction] = {}
    for w in enumerate_weightings(G, r, s, a):
        # (exponent pair per edge so far, exponent sum per vertex) -> coefficient
        partial = {((), (0,) * nv): Fraction(1)}
        for e, (va, vb) in enumerate(G.edges):
            nxt: dict = {}
            for (exps, load), c in partial.items():
                for (i, j), q in edge_local_factor(w[e], r, x, dim).terms:
                    grown = list(load)
                    grown[va] += i
                    grown[vb] += j
                    if grown[va] <= dims[va] and grown[vb] <= dims[vb]:
                        key = (exps + ((i, j),), tuple(grown))
                        nxt[key] = nxt.get(key, 0) + c * q
            partial = nxt
        for (exps, _), c in partial.items():
            cfg = tuple(tuple(sorted(exps[e][side] for e, side in hs)) for hs in halves)
            out[cfg] = out.get(cfg, 0) + c
    return {cfg: c for cfg, c in out.items() if c}


# -- vertex integrals from the literal vertex product ---------------------------------


@lru_cache(maxsize=None)
def _literal_vertex_base(r: int, s: int, x: Fraction, n_local: int, trunc: int, leg_items: tuple):
    """exp of the kappa series at s/r times the leg factor of each (local
    point, a_i) in `leg_items`, every factor a full series on n_local points."""
    P = exp_kappa_series(bernoulli_series(Fraction(s, r), x, trunc), n_local, trunc)
    for point, ai in leg_items:
        coeffs = {m: -c for m, c in bernoulli_series(Fraction(ai, r), x, trunc).items()}
        P = P * TautPolynomial.psi_series(point, n_local, trunc, exp_psi_series(coeffs, trunc))
    return P


def vertex_integral_literal(r: int, s: int, x, vkey: tuple, cfg: tuple[int, ...]) -> Fraction:
    """One vertex integral of the graph sum (see `omega._vertex_integral`):
    the vertex product multiplied out in full, each of its terms times the
    extra monomial integrated.  `vkey` is (vertex type (g_v, local point
    count), sorted (a_i, psi_i) leg pairs, kappa part), `cfg` the half-edge
    exponents."""
    (gv, n_local), vlegs, kap = vkey
    leg_items = tuple((k, ai) for k, (ai, _) in enumerate(vlegs, start=1))
    P = _literal_vertex_base(r, s, Fraction(x), n_local, 3 * gv - 3 + n_local, leg_items)
    extra = (kap, tuple(d for _, d in vlegs) + cfg)
    terms = P.terms.items()
    return sum(
        (c * integrate_monomial(gv, n_local, *monomial_product(m, extra)) for m, c in terms),
        Fraction(0),
    )


# -- unpruned Hodge boundary sum ----------------------------------------------------


def _stable(g: int, n: int) -> bool:
    return 2 * g - 2 + n > 0


def boundary_sum_unpruned(integral, g: int, n: int, lambdas, psi, m: int) -> Fraction:
    """sum_{i+j=m-1} psi'^i (-psi'')^j over the one-edge degenerations of
    Mbar_{g,n}, every term evaluated: the nonseparating node, then each
    genus g1 of the first side, each subset of the marked points sent to it
    and each split of every lambda_a as lambda_p (x) lambda_{a-p}.
    `integral(g, n, lambdas, psi)` gives the integrals on the pieces."""
    psi = tuple(psi)
    acc = Fraction(0)
    if g >= 1 and _stable(g - 1, n + 2):
        for i in range(m):
            j = m - 1 - i
            acc += (-1) ** j * integral(g - 1, n + 2, tuple(lambdas), psi + (i, j))
    for g1 in range(g + 1):
        g2 = g - g1
        for sides in product((0, 1), repeat=n):
            left = tuple(d for d, side in zip(psi, sides) if side == 0)
            right = tuple(d for d, side in zip(psi, sides) if side == 1)
            if not (_stable(g1, len(left) + 1) and _stable(g2, len(right) + 1)):
                continue
            for ps in product(*(range(a + 1) for a in lambdas)):
                lam1 = tuple(p for p in ps if p)
                lam2 = tuple(a - p for a, p in zip(lambdas, ps) if a != p)
                for i in range(m):
                    j = m - 1 - i
                    acc += (
                        (-1) ** j
                        * integral(g1, len(left) + 1, lam1, left + (i,))
                        * integral(g2, len(right) + 1, lam2, right + (j,))
                    )
    return acc


# -- kappa classes by added points, one term per ordered composition -------------


def _compositions(total: int, parts: int):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def chi_by_ordered_compositions(g: int, n: int) -> Fraction:
    """chi_{g,n} by the Hodge sum of `apps.chi_via_hodge` with one term per
    ordered exponent tuple of the l added points, each exponent >= 2:

        (-1)^dim sum_l 1/l! sum_i sum_{e_1..e_l} (-1)^{|e|}
            int_{Mbar_{g,n+l}} lambda_i psi_{n+1}^{e_1} ... psi_{n+l}^{e_l}

    with |e| = dim + l - i, the l = 0 term being the bare lambda_dim."""
    dim = 3 * g - 3 + n
    total = Fraction(0)
    for ell in range(dim + 1):
        for i in range(g + 1):
            esum = dim + ell - i
            lam = (i,) if i else ()
            # e_k = c_k + 1 over the compositions c of esum - l into parts >= 1
            for comp in _compositions(esum - ell, ell):
                exps = tuple(c + 1 for c in comp)
                value = hodge_monomial(g, n + ell, lam, (), (0,) * n + exps)
                total += Fraction((-1) ** esum, factorial(ell)) * value
    return (-1) ** dim * total


def _u_mul(a: dict, b: dict, cap: tuple) -> dict:
    """Product of polynomials in u (exponent tuple -> coeff), dropping every
    key that exceeds `cap` in some entry (it cannot divide the target)."""
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(p + q for p, q in zip(ka, kb))
            if all(k <= c for k, c in zip(key, cap)):
                out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: c for k, c in out.items() if c}


def added_point_terms_by_compositions(kappa) -> list[tuple[Fraction, tuple[int, ...]]]:
    """(coefficient, mu) with int kappa-monomial * alpha = sum coefficient *
    int alpha * prod psi^{mu_j+1} on len(mu) added points, one term per
    ordered composition mu of the kappa degree: the coefficient of
    prod u_m^{e_m} in prod_j v_{mu_j}, times prod e_m! / len(mu)!, where
    1 - sum_k v_k x^k = exp(-sum_m u_m x^m)."""
    indices = [m for m, _ in kappa]
    target = tuple(e for _, e in kappa)
    kdeg = sum(m * e for m, e in kappa)
    one = (0,) * len(kappa)
    # exp(-sum u_m x^m) term by term, keyed by u-exponents (x-degree follows)
    lin = {tuple(int(p == q) for q in range(len(kappa))): Fraction(-1) for p in range(len(kappa))}
    expo = {one: Fraction(1)}
    power = {one: Fraction(1)}
    for j in range(1, sum(target) + 1):
        power = _u_mul(power, lin, target)
        for key, c in power.items():
            expo[key] = expo.get(key, Fraction(0)) + c / factorial(j)
    v = {k: {} for k in range(1, kdeg + 1)}
    for key, c in expo.items():
        k = sum(m * e for m, e in zip(indices, key))
        if 1 <= k <= kdeg:
            v[k][key] = -c
    fact = 1
    for e in target:
        fact *= factorial(e)
    out = []
    for ell in range(1, kdeg + 1):
        for mu in _compositions(kdeg, ell):
            prod = {one: Fraction(1)}
            for k in mu:
                prod = _u_mul(prod, v[k], target)
            coef = prod.get(target, Fraction(0))
            if coef:
                out.append((coef * fact / factorial(ell), mu))
    return out


def integrate_exp_kappa(g: int, n: int, u: dict[int, Fraction], psi: PsiPart) -> Fraction:
    """int prod psi^{d} * exp(sum u_m kappa_m) by the direct v-substitution
    exp(-sum u_m x^m) = 1 - sum v_k x^k, numerically in u, summed over every
    ordered composition of the kappa degree."""
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
        for mu in _compositions(kbudget, ell):
            coef = Fraction(1, factorial(ell))
            for k in mu:
                coef *= v[k]
            if coef:
                acc += coef * psi_integral(g, psi + tuple(m + 1 for m in mu))
    return acc


# -- lambda classes through the Omega specialisation ----------------------------


def hodge_integral_via_omega(
    g: int, n: int, i: int, T: TautPolynomial, route: str = "graph-raw"
) -> Fraction:
    """int lambda_i * T by x-interpolation of the Omega^{[x]}(1, 1; 1,...,1)
    pairings, which equal the pairings of Lambda(-x)."""
    dim = 3 * g - 3 + n
    if i < 0 or i > g:
        return Fraction(0)
    xs = [Fraction(k) for k in range(dim + 2)]
    ys = [omega_integral(g, n, OmegaSpec(1, 1, (1,) * n, xv), T, route=route) for xv in xs]
    coeffs = interpolate_polynomial(list(zip(xs, ys)))
    return ((-1) ** i) * coeffs[i] if i < len(coeffs) else Fraction(0)


# -- grids for pinned-value digests -------------------------------------------------


def descending_vectors(total: int, parts: int, maxpart: int):
    """Non-increasing tuples of `parts` integers in [0, maxpart] summing to
    `total`, largest first entry first."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, maxpart), -1, -1):
        if first * parts < total:
            break
        for rest in descending_vectors(total - first, parts - 1, first):
            yield (first,) + rest


# -- polynomial helpers on the public tautint.polys API -------------------------


def psi_geometric(i: int, weight: Fraction, n_points: int, trunc: int) -> TautPolynomial:
    """sum_{k<=trunc} weight^k psi_i^k, the expansion of 1/(1 - weight*psi_i)."""
    lin = TautPolynomial.psi_series(i, n_points, trunc, [Fraction(1), -weight]).terms
    unit = ((), (0,) * n_points)
    return TautPolynomial(n_points, trunc, series_inverse(lin, unit, trunc, monomial_degree, monomial_product))


def edge_series_remultiply(series: EdgeSeries) -> dict[tuple[int, int], Fraction]:
    """(psi'+psi'') * series, for the re-multiplication invariant check."""
    psi_sum = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    return series_mul(dict(series.terms), psi_sum, series.trunc + 1, sum, vector_add)


def substitute_edge(
    series: EdgeSeries, poly: TautPolynomial, slot_a: int, slot_b: int
) -> TautPolynomial:
    """Multiply `poly` by series(psi_{slot_a}, psi_{slot_b}) on one vertex.

    The two slots must be distinct local points (a self-loop provides two
    distinct half-edge points on the same vertex).
    """
    if slot_a == slot_b:
        raise ValueError("edge slots collide; half-edges must sit at distinct points")
    terms: dict = {}
    for (i, j), c in series.terms:
        psi = [0] * poly.n_points
        psi[slot_a - 1], psi[slot_b - 1] = i, j
        terms[((), tuple(psi))] = c
    return poly * TautPolynomial(poly.n_points, poly.trunc, terms)
