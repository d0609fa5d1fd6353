"""Omega-class evaluation on Mbar_{g,n}.

Two routes compute int Omega^{[x]}_{g,n}(r, s; a) * T for a kappa/psi test
class T:

* the stable-graph sum: per graph and admissible mod-r weighting, a vertex
  kappa-exponential, per-leg psi-exponentials (with the true integers a_i,
  not their residues), and per-edge series (1 - exp(...))/(psi' + psi''),
  read in closed form from the leg series at the edge's two residues, all
  weighted by r^{2g-1-h1(Gamma)}/|Aut|.
  The class is symmetric under the group H of permutations of markings with
  equal a_i, so the sum visits one graph G0 per H-orbit of stable graphs
  and, for a monomial d, sums its terms over the H-orbit of the psi vector
  of d with weight |Stab_H(d)|/|Aut_col(G0)|, where Aut_col lets legs of
  equal a_i be permuted (Mbar_{0,8} with all a_i equal: 32 graphs, not
  39208).  A graph reads a psi vector only through its restriction to the
  legs of each vertex, so that orbit sum runs once per distinct restriction
  (a reading), weighted by the number of orbit vectors that give it; the
  readings are kept per leg layout, which the graphs of a batch share,
  until the last graph of that layout has been summed.  Per
  graph shape the edge series are multiplied out in one pass over the edges
  for all r^h1 weightings at once, each partial configuration carrying one
  integer coefficient per weighting over a common denominator and its
  half-edge exponents as one multiset per vertex, so that configurations
  differing only by order merge as they are built; they are grouped by
  per-vertex degree, and per graph the configs that fit a vertex room
  vector are found once per room.  The edge series at residue r - w is the
  one at w with its two half-edges swapped, so only residues w <= r/2 are
  expanded.  A vertex integral reads one degree of its integrand, and only
  that degree is built: the kappa-exponential terms of each degree and each
  leg's coefficient list are convolved into one bucket per (leg a_i,
  degree); the product of the leg lists does not read s and is kept per
  (r, x, leg a_i, degree) for every s.
  Vertex integrals and the per-graph terms of each monomial are summed as
  integer numerators per denominator and reduced once at the end
  (`exact.sum_by_denominator`), not as one Fraction per term;

* for r = 1 the pushforward is trivial and the class factors in closed form
  as Lambda(-x) * exp(kappa series) * per-leg psi series, evaluated by the
  Hodge integral engine.  Mumford's formula first gives the lambda part as
  Lambda(x)^{-1}; Mumford's relation c(E) c(E^dual) = 1 turns it into the
  linear Lambda(-x) = sum_i lambda_i (-x)^i.  Its terms are bucketed by
  degree once per spec, so a monomial meets only the lambda_i and kappa/psi
  terms of complementary degree.

The two routes are asserted equal on small (g, n) in the test suite; the
closed form is the default for r = 1 since strata counts grow rapidly with
the dimension.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, lcm, prod
from operator import itemgetter, le, sub

from .exact import Rat, bernoulli_series, sum_by_denominator
from .graphs import StableGraph, colour_classes, colour_pattern, enumerate_weightings, graph_orbits
from .hodge import LambdaDict, hodge_pair_by_degree, lambda_total
from .intersect import integrate_monomial
from .polys import (
    KappaPart,
    Monomial,
    TautPolynomial,
    compositions,
    edge_local_factor,
    exp_kappa_series,
    exp_psi_series,
    leg_series,
    monomial_degree,
    monomial_product,
)


class OmegaConstraintError(ValueError):
    """sum(a_i) != (2g-2+n)s mod r: the parameter tuple is inadmissible."""


class OmegaSpec(namedtuple("OmegaSpec", "r s a x")):
    __slots__ = ()

    def __new__(cls, r: int, s: int, a: tuple[int, ...], x: Rat = Fraction(1)) -> OmegaSpec:
        if r < 1:
            raise ValueError("r must be a positive integer")
        return super().__new__(cls, r, s, tuple(a), x if isinstance(x, Fraction) else Fraction(x))

    def validate(self, g: int, n: int) -> None:
        if len(self.a) != n:
            raise ValueError(f"a-vector has length {len(self.a)}, expected {n}")
        if (sum(self.a) - (2 * g - 2 + n) * self.s) % self.r != 0:
            raise OmegaConstraintError(
                f"sum(a) != (2g-2+n)s mod r for g={g}, n={n}, r={self.r}, s={self.s}, a={self.a}"
            )


# -- graph-sum route -----------------------------------------------------------
#
# The memos below take x as two integers, its numerator xn and denominator
# xd: hashing a Fraction costs a modular inverse on every lookup.


@lru_cache(maxsize=None)
def _graph_plan(G: StableGraph):
    """What every graph-sum pass reads of one graph, in one pass over its legs
    and edges.  Local marked points per vertex are its legs first, then its
    half-edges.  Returns (dims, n_local, legs, prefactor exponent): per vertex
    its dimension, local point count and the 0-based markings of its legs."""
    legs: list[list[int]] = [[] for _ in G.genera]
    for i, v in enumerate(G.legs):
        legs[v].append(i)
    n_local = list(map(len, legs))
    for va, vb in G.edges:
        n_local[va] += 1
        n_local[vb] += 1
    dims = tuple(3 * gv - 3 + k for gv, k in zip(G.genera, n_local))
    return dims, tuple(n_local), tuple(map(tuple, legs)), 2 * G.genus() - 1 - G.h1()


@lru_cache(maxsize=None)
def _kappa_terms(r: int, s: int, xn: int, xd: int, trunc: int) -> dict[int, tuple]:
    """The terms of the vertex kappa factor exp(sum_m K_m kappa_m), K the
    Bernoulli series at s/r, by degree: {degree: ((kappa part, numerator,
    denominator), ...)}."""
    P = exp_kappa_series(bernoulli_series(Fraction(s, r), Fraction(xn, xd), trunc), 0, trunc)
    return {
        d: tuple((kap, c.numerator, c.denominator) for (kap, _), c in terms)
        for d, terms in P.by_degree().items()
    }


@lru_cache(maxsize=None)
def _leg_coeffs(r: int, ai: int, xn: int, xd: int, trunc: int) -> tuple[tuple[int, int], ...]:
    """`polys.leg_series` at a_i/r as (numerator, denominator) pairs."""
    return tuple((c.numerator, c.denominator) for c in leg_series(Fraction(ai, r), Fraction(xn, xd), trunc))


@lru_cache(maxsize=None)
def _leg_convolution(r: int, xn: int, xd: int, legs: tuple[int, ...], degree: int) -> tuple:
    """The product of one leg factor per a_i in `legs` up to `degree`, by
    degree: ((d, ((leg psi exponents, numerator, denominator), ...)), ...),
    the fractions not reduced.  Built by convolution over the legs; it does
    not read s, so one serves the vertex buckets of every s."""
    by_deg: dict[int, list] = {0: [((), 1, 1)]}
    for ai in legs:
        coeffs = _leg_coeffs(r, ai, xn, xd, degree)
        nxt: dict[int, list] = {}
        for d, terms in by_deg.items():
            for k, (cn, cd) in enumerate(coeffs[: degree - d + 1]):
                if cn:
                    nxt.setdefault(d + k, []).extend(
                        (psi + (k,), pn * cn, pd * cd) for psi, pn, pd in terms
                    )
        by_deg = nxt
    return tuple((d, tuple(terms)) for d, terms in by_deg.items())


@lru_cache(maxsize=None)
def _vertex_bucket(r: int, s: int, xn: int, xd: int, legs: tuple[int, ...], degree: int) -> tuple:
    """The terms of one degree of a vertex base, the kappa factor times one
    leg factor per a_i in `legs`: ((kappa part, leg psi exponents, numerator,
    denominator), ...), the fractions not reduced.  Only the terms of that
    degree are formed; shared by every vertex with these leg a_i, whatever
    its genus and half-edges."""
    kterms = _kappa_terms(r, s, xn, xd, degree)
    return tuple(
        (kap, psi, kn * pn, kd * pd)
        for d, terms in _leg_convolution(r, xn, xd, legs, degree)
        for kap, kn, kd in kterms.get(degree - d, ())
        for psi, pn, pd in terms
    )


def _vertex_integral(r: int, s: int, xn: int, xd: int, vkey: tuple, cfg: tuple) -> tuple[int, int]:
    """Integral of the vertex base times an extra kappa/psi monomial, as
    (numerator, denominator): only the base terms of the complementary degree
    contribute.  `vkey` is (vertex type (g_v, local point count), sorted
    (a_i, psi_i) leg pairs, kappa part) and `cfg` the half-edge exponents.
    The terms are summed as integer numerators per denominator and reduced
    once."""
    (gv, n_local), vlegs, kap = vkey
    legs = tuple(ai for ai, _ in vlegs)
    leg_psi = tuple(d for _, d in vlegs)
    off = sum(m * e for m, e in kap) + sum(leg_psi) + sum(cfg)
    sums: dict[int, int] = {}
    for bkap, bpsi, cnum, cden in _vertex_bucket(r, s, xn, xd, legs, 3 * gv - 3 + n_local - off):
        kappa, psi = monomial_product((bkap, bpsi), (kap, leg_psi))
        q = integrate_monomial(gv, n_local, kappa, psi + cfg)
        if q:
            den = cden * q.denominator
            sums[den] = sums.get(den, 0) + cnum * q.numerator
    return sum_by_denominator(sums).as_integer_ratio()


@lru_cache(maxsize=None)
def _edge_terms(w: int, r: int, xn: int, xd: int, trunc: int) -> tuple[int, tuple]:
    """The edge series at residue w as (den, (((i, j), numerator), ...)): its
    terms as integer numerators over den, their least common denominator,
    sorted by (i, j).  B_{m+1}(1 - u) = (-1)^{m+1} B_{m+1}(u) makes the
    series at r - w the one at w with psi' and psi'' swapped, so only
    residues w <= r/2 are expanded."""
    if 2 * w > r:
        den, terms = _edge_terms(r - w, r, xn, xd, trunc)
        return den, tuple(sorted(((j, i), q) for (i, j), q in terms))
    terms = edge_local_factor(w, r, Fraction(xn, xd), trunc).terms
    den = lcm(*(q.denominator for _, q in terms))
    return den, tuple((ij, q.numerator * (den // q.denominator)) for ij, q in terms)


# edge configurations per graph shape: {(r, s mod r, xn, xd, dim): {shape: configs}}
_config_cache: dict[tuple, dict[tuple, tuple]] = {}

# vertex integrals: {(r, s, xn, xd): {(vertex type, legs, kappa part):
# {half-edge exponents: (numerator, denominator)}}}, so that the products and
# sums of the graph sum run on plain integers; keyed by the true s, since the
# kappa factor reads B_{m+1}(s/r)
_vertex_cache: dict[tuple, dict[tuple, dict[tuple, tuple[int, int]]]] = {}


def _edge_configs(G: StableGraph, r: int, s: int, a: tuple[int, ...], xn: int, xd: int, dim: int) -> tuple:
    """Half-edge exponent configurations of G with their edge-series
    coefficients summed over its weightings (s and a taken mod r), grouped by
    per-vertex degree: a tuple of (degrees, ((config, numerator, denominator),
    ...)) with every coefficient nonzero.  A config holds one sorted tuple of
    exponents per vertex, a multiset over its half-edges: the vertex
    integrand puts factors on leg points only, so it is symmetric in the
    half-edge points and the per-vertex integrals do not see their order.
    Nor do they depend on the weighting, only the edge coefficients do, so
    their sum collapses per config.  One pass over the edges serves all
    weightings: a partial config carries one integer coefficient per
    weighting, over a common denominator; each edge inserts its exponents i
    and j into the tuples of its end vertices and multiplies the coefficients
    by the series term of the residue each weighting puts on it, and partial
    configs that differ only by order merge as soon as they meet.  The result
    sees the legs only through each vertex's count and residue sum, so graphs
    of one shape share it.

    `_config_cache` keeps it per shape across calls.  That serves the
    identity suite, whose batches revisit one space at many s, a and x: a
    cold perfbench identity_suite run finds 2421 of its 2700 lookups there,
    and `verify --grid small` 682 of 803.  A graph_sum batch gets no hit:
    the 762 graphs its three batches visit have 762 distinct shapes, even
    up to relabelling the vertices."""
    dims = _graph_plan(G)[0]
    weightings = enumerate_weightings(G, r, s, a)
    # one denominator for the residues these weightings use, not all r of them
    series = {res: _edge_terms(res, r, xn, xd, dim) for res in {v for w in weightings for v in w}}
    den = lcm(*[d for d, _ in series.values()])
    partial: dict[tuple, list[int]] = {((),) * len(dims): [1] * len(weightings)}
    for e, (va, vb) in enumerate(G.edges):
        # each term (i, j) of this edge's series within the vertex caps, with
        # its numerator under each weighting (0 where that weighting's residue
        # lacks the term)
        cap_a, cap_b, same = dims[va], dims[vb], va == vb
        # the weightings by the residue they put on this edge, in one pass
        by_res: dict[int, list[int]] = {}
        for k, w in enumerate(weightings):
            by_res.setdefault(w[e], []).append(k)
        factors: dict[tuple[int, int], list[int]] = {}
        for res, ks in by_res.items():
            d, terms = series[res]
            scale = den // d
            for (i, j), q in terms:  # sorted, so no later term fits once i > cap_a
                if i > cap_a:
                    break
                if i + j <= cap_a if same else j <= cap_b:
                    row = factors.setdefault((i, j), [0] * len(weightings))
                    q *= scale
                    for k in ks:
                        row[k] = q
        steps = sorted(factors.items())
        nxt: dict[tuple, list[int]] = {}
        for cfg, coeffs in partial.items():
            room_a = cap_a - sum(cfg[va])
            room_b = cap_b - sum(cfg[vb])
            for (i, j), qs in steps:
                if i > room_a:
                    break
                if i + j > room_a if same else j > room_b:
                    continue
                # on a self-loop (va == vb) the second insert sees the first
                ncfg = list(cfg)
                ncfg[va] = tuple(sorted((*cfg[va], i)))
                ncfg[vb] = tuple(sorted((*ncfg[vb], j)))
                ncfg = tuple(ncfg)
                prods = [c * q for c, q in zip(coeffs, qs)]
                acc = nxt.get(ncfg)
                nxt[ncfg] = prods if acc is None else [t + u for t, u in zip(acc, prods)]
        partial = nxt
        if not partial:
            break
    den **= len(G.edges)
    groups: dict[tuple[int, ...], list] = {}
    for cfg, coeffs in partial.items():
        c = sum(coeffs)
        if c:
            q = Fraction(c, den)
            groups.setdefault(tuple(map(sum, cfg)), []).append((cfg, q.numerator, q.denominator))
    return tuple((hsum, tuple(group)) for hsum, group in groups.items())


@lru_cache(maxsize=None)
def _kappa_distributions(kappa: KappaPart, dims: tuple[int, ...]):
    """Ways to split each kappa_m^e across the vertices of dimensions `dims`
    (kappa restricts to the sum of the vertex kappa classes), as (multinomial
    multiplicity, the kappa part of each vertex, the degree of each vertex's
    part), keeping only the splits whose degree fits every vertex.  kappa is
    sorted, so each vertex part is too."""
    nv = len(dims)
    out: list[tuple[int, tuple[KappaPart, ...]]] = [(1, ((),) * nv)]
    for m, e in kappa:
        nxt = []
        for counts in compositions(e, nv, 0):
            ways = factorial(e) // prod(map(factorial, counts))
            for mult, parts in out:
                nparts = tuple(
                    parts[v] + (((m, counts[v]),) if counts[v] else ()) for v in range(nv)
                )
                nxt.append((mult * ways, nparts))
        out = nxt
    dists = ((mult, parts, tuple(sum(m * e for m, e in p) for p in parts)) for mult, parts in out)
    return tuple(dist for dist in dists if all(map(le, dist[2], dims)))


# pairings at x = 1 on the closed and graph routes, and per x on graph-raw:
# {(g, n, r, s, a, route[, xn, xd]): {canonical monomial: value}}
_pairing_cache: dict[tuple, dict[Monomial, Fraction]] = {}


@lru_cache(maxsize=None)
def _classes_of(a: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The classes of markings with equal a_i: Omega cannot tell them apart."""
    return colour_classes(colour_pattern(a))


@lru_cache(maxsize=None)
def _powers(xn: int, xd: int, dim: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(xn, xd) ** k for k in range(dim + 1))


@lru_cache(maxsize=None)
def _monomial_form(mono, classes) -> tuple[Monomial, Monomial, int]:
    """A monomial in any hashable form: its normalised form (kappa pairs
    sorted, psi a tuple), its canonical form (psi exponents sorted, largest
    first, within each class of markings carrying the same a_i) and its
    degree."""
    kap, psi = tuple(sorted(mono[0])), tuple(mono[1])
    out = list(psi)
    for cls in classes:
        for i, v in zip(cls, sorted((psi[i] for i in cls), reverse=True)):
            out[i] = v
    return (kap, psi), (kap, tuple(out)), monomial_degree((kap, psi))


def omega_pairings(
    g: int, n: int, spec: OmegaSpec, monomials, route: str = "auto"
) -> dict[Monomial, Fraction]:
    """Pairings int Omega * monomial for a batch of kappa/psi monomials.

    Routes: "closed" (r = 1 factored form through the Hodge engine), "graph"
    (stable-graph sum), "graph-raw" (stable-graph sum evaluated literally at
    the given x), or "auto" (closed when r = 1, graph otherwise).  The closed
    and graph routes evaluate at x = 1 and recover other x through the exact
    grading [deg k].Omega^{[x]} = x^k [deg k].Omega^{[1]} -- itself a tested
    invariant.

    Values are memoised in `_pairing_cache`, one entry per canonical
    monomial (psi exponents sorted within each class of markings of equal
    a_i, which Omega cannot tell apart): at x = 1 only on the closed and
    graph routes, whose x != 1 values are scaled from that entry on every
    call and never stored, and per x on the graph-raw route.
    """
    spec.validate(g, n)
    r, s, a, x = spec.r, spec.s, spec.a, spec.x
    if route == "auto":
        route = "closed" if r == 1 else "graph"
    elif route not in ("closed", "graph", "graph-raw"):
        raise ValueError(f"unknown route {route!r}")
    elif route == "closed" and r != 1:
        raise ValueError(f"the closed route needs r = 1, not r = {r}")
    xn, xd = x.numerator, x.denominator
    unit = xn == 1 == xd
    if route == "graph-raw" and unit:
        route = "graph"
    xkey = (xn, xd) if route == "graph-raw" else ()
    cache = _pairing_cache.setdefault((g, n, r, s, a, route) + xkey, {})
    classes = _classes_of(a)
    forms = []
    for mono in monomials:
        try:
            forms.append(_monomial_form(mono, classes))
        except TypeError:  # a part given as a list is not hashable
            forms.append(_monomial_form((tuple(mono[0]), tuple(mono[1])), classes))
    missing = sorted({c for _, c, _ in forms if c not in cache})
    if missing:
        if route == "closed":
            cache.update(_pairings_closed(g, n, s, a, missing))
        else:
            cache.update(_pairings_graph(g, n, r, s, a, xkey or (1, 1), missing))
    if unit or xkey:
        return {m: cache[c] for m, c, _ in forms}
    dim = 3 * g - 3 + n
    powers = _powers(xn, xd, dim)
    out = {}
    for m, c, d in forms:
        v = cache[c]
        # x^0 and a zero value leave the value as it is
        out[m] = v if d == dim or not v else powers[dim - d] * v if d < dim else Fraction(0)
    return out


def omega_integral(
    g: int, n: int, spec: OmegaSpec, T: TautPolynomial | None = None, route: str = "auto"
) -> Fraction:
    """int_{Mbar_{g,n}} Omega^{[x]}(r, s; a) * T   (T defaults to 1)."""
    dim = 3 * g - 3 + n
    if T is None:
        T = TautPolynomial.one(n, dim)
    if T.n_points != n or T.trunc != dim:
        raise ValueError("test class must live on n points with trunc 3g-3+n")
    if not T.terms:
        return Fraction(0)
    pair = omega_pairings(g, n, spec, list(T.terms.keys()), route=route)
    return sum((c * pair[mono] for mono, c in T.terms.items()), Fraction(0))


def _distinct_perms(vals: tuple[int, ...]):
    """The distinct orderings of a tuple with repeated entries."""
    if not vals:
        yield ()
        return
    for v in sorted(set(vals)):
        i = vals.index(v)
        for tail in _distinct_perms(vals[:i] + vals[i + 1 :]):
            yield (v,) + tail


@lru_cache(maxsize=None)
def _psi_orbit(psi: tuple[int, ...], classes) -> tuple[tuple[int, ...], ...]:
    """The distinct psi vectors obtained by permuting the exponents within
    each class of markings."""
    orbit = []
    for choice in product(*(_distinct_perms(tuple(psi[i] for i in cls)) for cls in classes)):
        vec = list(psi)
        for cls, vals in zip(classes, choice):
            for i, v in zip(cls, vals):
                vec[i] = v
        orbit.append(tuple(vec))
    return tuple(orbit)


def _leg_readings(orbit, legs: tuple[tuple[int, ...], ...], a: tuple[int, ...]) -> tuple:
    """What a graph with leg layout `legs` (the markings at each vertex) reads
    of the psi vectors of one orbit: their distinct restrictions to the
    vertices, as (vertex legs, leg degrees, count).  Vertex legs are the
    sorted (a_i, psi_i) pairs of each vertex's legs, since the vertex base is
    symmetric in its legs, leg degrees are their psi sums per vertex, and
    count is the number of orbit vectors that restrict to them."""
    leg_a = [tuple(map(a.__getitem__, lv)) for lv in legs]
    counts: dict[tuple, int] = {}
    for psi in orbit:
        vlegs = tuple(
            [tuple(sorted(zip(la, map(psi.__getitem__, lv)))) for la, lv in zip(leg_a, legs)]
        )
        counts[vlegs] = counts.get(vlegs, 0) + 1
    return tuple(
        (vlegs, tuple([sum(map(itemgetter(1), vl)) for vl in vlegs]), count)
        for vlegs, count in counts.items()
    )


def _pairings_graph(g: int, n: int, r: int, s: int, a: tuple, xq: tuple, monomials) -> dict:
    """The stable-graph sum at x = xn/xd, xq = (xn, xd), over one
    representative G0 per orbit of stable graphs under H, the permutations of
    markings with equal a_i.  Omega is H-invariant, so the labelled graphs of
    the orbit of G0, each weighted by 1/|Aut|, add up to

        |Stab_H(d)| / |Aut_col(G0)| * sum over d' in Hd of contrib(G0, d'),

    where Hd is the orbit of the psi vector of d (kappa does not move) and
    contrib is the term of one graph without its 1/|Aut|.  With all a_i
    distinct H is trivial and this is the sum over labelled graphs.

    A graph reads a psi vector only through its restriction to each vertex's
    legs, so the sum over Hd runs once per distinct restriction (a reading,
    `_leg_readings`), weighted by the number of vectors that give it.  The
    readings depend on the graph only through its leg layout, which graphs of
    one batch share (the 365 orbits of Mbar_{2,3} at a = (1, 2, 2) have 49),
    so they are kept per layout and canonical psi vector until the last graph
    of that layout has been summed."""
    dim = 3 * g - 3 + n
    xn, xd = xq
    classes = _classes_of(a)
    h_order = prod(factorial(len(cls)) for cls in classes)
    # per monomial, its graph terms as integer numerators per denominator
    sums: dict[Monomial, dict[int, int]] = {mono: {} for mono in monomials}
    # a term supported on a graph with E edges has class degree >= E, so a
    # graph with E edges meets only the monomials of degree <= dim - E
    monos_upto: list[list] = [[] for _ in range(dim + 1)]
    for mono in monomials:
        orbit = _psi_orbit(mono[1], classes)
        entry = (mono, h_order // len(orbit), orbit)
        for room in range(monomial_degree(mono), dim + 1):
            monos_upto[room].append(entry)
    visits = [
        (G, aut_col) for G, aut_col in graph_orbits(g, n, a)
        if G.n_edges <= dim and monos_upto[dim - G.n_edges]
    ]
    # {leg layout: {canonical psi vector: readings}}, each layout's entry
    # dropped after the last graph that reads it
    readings_at: dict[tuple, dict[tuple, tuple]] = {}
    graphs_left = Counter(_graph_plan(G)[2] for G, _ in visits)
    vertex_vals = _vertex_cache.setdefault((r, s, xn, xd), {})
    s_res, a_res = s % r, tuple(ai % r for ai in a)
    shapes = _config_cache.setdefault((r, s_res, xn, xd, dim), {})
    for G, aut_col in visits:
        dims, n_local, legs, exp_pref = _graph_plan(G)
        pref_num, pref_den = (
            (r ** exp_pref, aut_col) if exp_pref >= 0 else (1, aut_col * r ** -exp_pref)
        )
        vtypes = tuple(zip(G.genera, n_local))
        leg_res = tuple(sum(map(a_res.__getitem__, lv)) % r for lv in legs)
        shape = (G.genera, G.edges, n_local, leg_res)
        config_groups = shapes.get(shape)
        if config_groups is None:
            config_groups = shapes[shape] = _edge_configs(G, r, s_res, a_res, xn, xd, dim)
        graphs_left[legs] -= 1
        by_psi = readings_at.setdefault(legs, {}) if graphs_left[legs] else readings_at.pop(legs, {})
        # the configs whose per-vertex degrees fit a room vector, per room
        fits: dict[tuple[int, ...], tuple] = {}
        for mono, stab, orbit in monos_upto[dim - G.n_edges]:
            readings = by_psi.get(mono[1])
            if readings is None:
                readings = by_psi[mono[1]] = _leg_readings(orbit, legs, a)
            dists = _kappa_distributions(mono[0], dims)
            num, den = 0, 1
            for vlegs, legdeg, count in readings:
                # the room each vertex leaves after its legs' psi; a psi on a
                # leg at a vertex of dimension 0 fails here too
                free = tuple(map(sub, dims, legdeg))
                if min(free) < 0:
                    continue
                for mult, parts, kdeg in dists:
                    room = tuple(map(sub, free, kdeg))
                    fit = fits.get(room)
                    if fit is None:
                        fit = fits[room] = tuple(
                            item for hsum, group in config_groups if all(map(le, hsum, room))
                            for item in group
                        )
                    if not fit:
                        continue
                    vkeys = zip(vtypes, vlegs, parts)
                    tables = [(vkey, vertex_vals.setdefault(vkey, {})) for vkey in vkeys]
                    weight = mult * count
                    for cfg, cnum, cden in fit:
                        pnum, pden = cnum * weight, cden
                        for (vkey, table), c in zip(tables, cfg):
                            vv = table.get(c)
                            if vv is None:
                                vv = table[c] = _vertex_integral(r, s, xn, xd, vkey, c)
                            if not vv[0]:
                                break
                            pnum *= vv[0]
                            pden *= vv[1]
                        else:
                            if pden == den:
                                num += pnum
                            else:
                                num, den = num * pden + pnum * den, den * pden
            if num:
                acc, d = sums[mono], pref_den * den
                acc[d] = acc.get(d, 0) + pref_num * stab * num
    return {mono: sum_by_denominator(acc) for mono, acc in sums.items()}


# -- closed form for r = 1 ------------------------------------------------------


def omega_r1_parts(
    g: int, n: int, s: int, a: tuple[int, ...], x: Rat, trunc: int
) -> tuple[LambdaDict, TautPolynomial]:
    """Omega^{[x]}(1, s; a) = Lambda(-x) * exp(kappa series) * leg series.

    The lambda part is Lambda(x)^{-1}, which equals Lambda(-x) =
    sum_i lambda_i (-x)^i by Mumford's relation c(E) c(E^dual) = 1: g+1 terms,
    each a single lambda_i.
    """
    x = Fraction(x)
    lam = lambda_total(-x, g, trunc)
    P = exp_kappa_series(dict(_r1_shift(s, x, trunc)), n, trunc)
    for i, ai in enumerate(a, start=1):
        if ai != 0:
            leg = {m: -c for m, c in _r1_shift(ai, x, trunc)}
            P = P * TautPolynomial.psi_series(i, n, trunc, exp_psi_series(leg, trunc))
    return lam, P


@lru_cache(maxsize=None)
def _r1_shift(u: int, x: Fraction, trunc: int) -> tuple[tuple[int, Fraction], ...]:
    """(m, c_m(u) - c_m(0)) for the coefficients c_m of bernoulli_series(u, x,
    trunc).  The residue-0 parts of the kappa, leg and edge series assemble
    into Lambda(x)^{-1} (Mumford's formula); these differences remain, the
    kappa series at u = s and each leg series at u = a_i."""
    zero = bernoulli_series(0, x, trunc)
    return tuple((m, c - zero[m]) for m, c in bernoulli_series(u, x, trunc).items())


@lru_cache(maxsize=None)
def _r1_buckets(g: int, n: int, s: int, a: tuple[int, ...]):
    """omega_r1_parts at x = 1: the lambda terms, and the kappa/psi terms
    bucketed by degree."""
    lam, P = omega_r1_parts(g, n, s, a, Fraction(1), 3 * g - 3 + n)
    return tuple(lam.items()), P.by_degree()


def _pairings_closed(
    g: int, n: int, s: int, a: tuple[int, ...], monomials
) -> dict[Monomial, Fraction]:
    """The r = 1 closed form at x = 1: each monomial meets only the lambda_i
    and kappa/psi terms of complementary degree."""
    lam, buckets = _r1_buckets(g, n, s, a)
    return {mono: hodge_pair_by_degree(g, n, lam, buckets, mono) for mono in monomials}
