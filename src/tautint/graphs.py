"""Stable graphs of type (g, n): enumeration up to isomorphism, automorphism
orders, and mod-r half-edge weightings.

A graph stores vertex genera, the vertex carrying each labelled leg, and a
tuple of edges (a, b) with a <= b; self-loops appear as (v, v).  The markings
carry colours, and markings of equal colour may be permuted: `graph_orbits`
lists one labelled representative per class of graphs up to isomorphism and
such permutations, with the order |Aut_col| of its automorphism group when
legs of equal colour may be permuted.  With all colours distinct the markings
are fixed, which gives `enumerate_stable_graphs` and `automorphism_order`.
Enumeration proceeds by one-edge degenerations (vertex splitting and genus
reduction) from the smooth graph, level by edge count, with isomorph
rejection by canonical augmentation (McKay, J. Algorithms 26, 1998): each
graph has a canonical contraction, computed from isomorphism invariants and
the canonical form, and a degeneration is kept only from the parent that is
its canonical contraction, so every class is reached from one parent and
duplicates are removed per parent.  Completeness follows because
contracting any edge of a stable graph yields a stable graph with one edge
fewer.  The canonical form is the least relabelling over the vertex orders
that a colour refinement allows; the number of relabellings that reach it is
the order of the vertex automorphism group, from which `automorphism_order`
builds |Aut|.  Labelled genus-0 trees (n >= 8) are rigid and are built
directly, one per class, by partitioning the legs.
`enumerate_weightings` tries every residue on the h1 edges outside a BFS
spanning tree and forces the tree edges, so it builds exactly r^h1 weightings,
each the tuple of side-0 residues w (the side-1 half carries (r - w) % r).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Hashable, Sequence
from itertools import permutations, product as iproduct
from math import factorial, prod

from .memos import cached
from .psi import is_stable


class WeightingConstraintError(ValueError):
    """The a-vector violates sum(a_i) = (2g-2+n)s mod r: empty domain."""


# legs[i] is the vertex carrying marking i+1
class StableGraph(namedtuple("StableGraph", "genera legs edges")):
    __slots__ = ()

    @property
    def n_vertices(self) -> int:
        return len(self.genera)

    @property
    def n_legs(self) -> int:
        return len(self.legs)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def h1(self) -> int:
        return self.n_edges - self.n_vertices + 1

    def genus(self) -> int:
        return sum(self.genera) + self.h1()

    def half_edges_at(self, v: int) -> list[tuple[int, int]]:
        """(edge index, side) pairs incident to v, in deterministic order."""
        out = []
        for e, (a, b) in enumerate(self.edges):
            if a == v:
                out.append((e, 0))
            if b == v:
                out.append((e, 1))
        return out

    def legs_at(self, v: int) -> list[int]:
        return [i + 1 for i, w in enumerate(self.legs) if w == v]

    def valence(self, v: int) -> int:
        return len(self.legs_at(v)) + len(self.half_edges_at(v))

    def vertex_dims(self) -> list[int]:
        return [3 * g - 3 + self.valence(v) for v, g in enumerate(self.genera)]

    def serialize(self) -> str:
        vs = ",".join(str(g) for g in self.genera)
        ls = ",".join(str(v + 1) for v in self.legs)
        es = ",".join(f"({a + 1},{b + 1})" for a, b in self.edges)
        return f"V:{vs}|L:{ls}|E:{es}"


def colour_pattern(colours: Sequence[Hashable]) -> tuple[int, ...]:
    """Each marking's colour renamed to the rank of its first occurrence, so
    that colourings inducing one partition of the markings give one pattern:
    (5, 2, 5) -> (0, 1, 0)."""
    first: dict[Hashable, int] = {}
    return tuple(first.setdefault(c, len(first)) for c in colours)


@cached
def colour_classes(pattern: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The 0-based markings of each colour that two or more markings share."""
    classes: dict[int, list[int]] = {}
    for i, c in enumerate(pattern):
        classes.setdefault(c, []).append(i)
    return tuple(tuple(idx) for idx in classes.values() if len(idx) > 1)


def _relabeled(genera, legs, edges, perm, classes) -> tuple:
    """Apply vertex relabelling old -> perm[old] and normalise.  Within each
    colour class the markings take their vertices in ascending order: the
    least of the labellings that permute markings of equal colour."""
    ng = [0] * len(genera)
    for v, g in enumerate(genera):
        ng[perm[v]] = g
    nl = [perm[v] for v in legs]
    for cls in classes:
        for i, w in zip(cls, sorted(nl[i] for i in cls)):
            nl[i] = w
    ne = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
    return (tuple(ng), tuple(nl), ne)


def _vertex_keys(genera, legs, edges, pattern) -> list[tuple]:
    """Each vertex's isomorphism-invariant key: genus, sorted leg colours,
    self-loops, and edges to other vertices."""
    nv = len(genera)
    leg_colours: list[list[int]] = [[] for _ in range(nv)]
    for c, v in zip(pattern, legs):
        leg_colours[v].append(c)
    loops, links = [0] * nv, [0] * nv
    for a, b in edges:
        if a == b:
            loops[a] += 1
        else:
            links[a] += 1
            links[b] += 1
    return [(genera[v], tuple(sorted(leg_colours[v])), loops[v], links[v]) for v in range(nv)]


def _refine_colors(genera, legs, edges, pattern) -> list[tuple]:
    nv = len(genera)
    adj: list[dict[int, int]] = [{} for _ in range(nv)]
    for a, b in edges:
        if a != b:
            adj[a][b] = adj[a].get(b, 0) + 1
            adj[b][a] = adj[b].get(a, 0) + 1
    colors = _vertex_keys(genera, legs, edges, pattern)
    # a discrete colouring is final: refining it would keep its rank order
    while len(set(colors)) < nv:
        ranks = {c: i for i, c in enumerate(sorted(set(colors)))}
        rank = [ranks[c] for c in colors]
        new = [
            (rank[v], tuple(sorted((rank[w], m) for w, m in adj[v].items())))
            for v in range(nv)
        ]
        # new refines the old colouring (it starts with the rank), so an
        # equal class count means an equal partition
        if len(set(new)) == len(set(colors)):
            return [new[v] for v in range(nv)]
        colors = new
    return colors


def canonical_form(genera, legs, edges, pattern) -> tuple[tuple, int]:
    """Lexicographically minimal (genera, legs, edges) over vertex relabellings
    compatible with the refinement classes and permutations of markings of
    equal colour, and the number of relabellings that reach it; `pattern[i]`
    is the colour of marking i+1.  Two relabellings give one form exactly
    when they differ by a vertex permutation preserving genera, edges and
    the leg colours at each vertex, and every such permutation preserves the
    refinement classes, so the count is the order of that group."""
    nv = len(genera)
    colors = _refine_colors(genera, legs, edges, pattern)
    order = sorted(range(nv), key=lambda v: (colors[v], v))
    classes: list[list[int]] = []
    for v in order:
        if classes and colors[classes[-1][0]] == colors[v]:
            classes[-1].append(v)
        else:
            classes.append([v])
    leg_classes = colour_classes(pattern)
    best: tuple | None = None
    count = 0
    for perms in iproduct(*(permutations(cls) for cls in classes)):
        perm = [0] * nv
        pos = 0
        for chunk in perms:
            for v in chunk:
                perm[v] = pos
                pos += 1
        cand = _relabeled(genera, legs, edges, perm, leg_classes)
        if best is None or cand < best:
            best, count = cand, 1
        elif cand == best:
            count += 1
    assert best is not None
    return best, count


def _degenerations(G: StableGraph, pattern: tuple[int, ...]):
    """One-edge degenerations as (genera, legs, edges, added edge): genus
    drops and those vertex splittings that leave no self-loop.  The
    canonical edge of a graph with a self-loop is a self-loop (see
    `_is_canonical_child`), so such graphs are reached by genus drops alone.
    Legs of one colour at a vertex are interchangeable, so a splitting only
    chooses how many of them stay (the first ones in marking order).  Of a
    splitting and its mirror, which swaps what stays with what moves, only
    the lesser is made: the two give isomorphic graphs."""
    for v, gv in enumerate(G.genera):
        if gv >= 1:
            genera = list(G.genera)
            genera[v] = gv - 1
            yield (tuple(genera), G.legs, G.edges + ((v, v),), (v, v))
    w = G.n_vertices
    looped = {a for a, b in G.edges if a == b}
    for v, gv in enumerate(G.genera):
        if looped - {v}:
            continue  # a self-loop away from v survives the splitting
        halves = G.half_edges_at(v)
        leg_ids = G.legs_at(v)
        k = len(leg_ids) + len(halves)
        if gv == 0 and k < 4:
            continue  # each genus-0 side needs two legs or half-edges
        groups: dict[int, list[int]] = {}
        for i in leg_ids:
            groups.setdefault(pattern[i - 1], []).append(i - 1)
        sizes = tuple(map(len, groups.values()))
        splits = []  # (kept, number of legs kept, legs)
        for kept in iproduct(*(range(size + 1) for size in sizes)):
            legs = list(G.legs)
            for grp, m in zip(groups.values(), kept):
                for i in grp[m:]:
                    legs[i] = w
            splits.append((kept, sum(kept), tuple(legs)))
        full = (1 << len(halves)) - 1
        # a self-loop at v leaves none when its halves go to different sides
        pos = {half: t for t, half in enumerate(halves)}
        pairs = [(pos[e, 0], pos[e, 1]) for e, (a, b) in enumerate(G.edges) if a == b == v]
        # the masks of half-edges kept at v, by how many they keep
        sides: list[list[int]] = [[] for _ in range(len(halves) + 1)]
        for mask in range(full + 1):
            if all((mask >> t ^ mask >> u) & 1 for t, u in pairs):
                sides[bin(mask).count("1")].append(mask)
        built: dict[int, tuple] = {}  # the edges for each mask
        for g1 in range(gv // 2 + 1):
            g2 = gv - g1
            genera = G.genera[:v] + (g1,) + G.genera[v + 1 :] + (g2,)
            # stability: a genus-0 side keeps at least two legs or half-edges
            lo, hi = 2 if g1 == 0 else 0, k - 2 if g2 == 0 else k
            for kept, n_kept, legs in splits:
                mirror = tuple(size - m for size, m in zip(sizes, kept)) if g1 == g2 else None
                for n_halves in range(max(lo - n_kept, 0), min(hi - n_kept, len(halves)) + 1):
                    for mask in sides[n_halves]:
                        if g1 == g2 and (kept, mask) > (mirror, full ^ mask):
                            continue
                        edges = built.get(mask)
                        if edges is None:
                            moves = {half: w for t, half in enumerate(halves) if not mask >> t & 1}
                            new = [
                                tuple(sorted((moves.get((e, 0), a), moves.get((e, 1), b))))
                                for e, (a, b) in enumerate(G.edges)
                            ]
                            edges = built[mask] = tuple(sorted(new + [(v, w)]))
                        yield (genera, legs, edges, (v, w))


def _contract(genera, legs, edges, edge) -> tuple:
    """The graph with one edge (a, b), a <= b, contracted: b merges into a."""
    rest = list(edges)
    rest.remove(edge)
    ng = list(genera)
    a, b = edge
    if a == b:
        ng[a] += 1
        return tuple(ng), legs, tuple(rest)
    ng[a] += ng.pop(b)

    def image(v: int) -> int:
        return a if v == b else v - (v > b)

    return tuple(ng), tuple(map(image, legs)), tuple((image(x), image(y)) for x, y in rest)


def _is_canonical_child(parent: tuple, genera, legs, edges, added, pattern) -> bool:
    """Whether `parent`, a canonical form, is the canonical contraction of the
    child degenerated from it along `added`.  The candidate edges are those
    with the largest isomorphism-invariant key (loop flag, then the sorted
    endpoint keys of `_vertex_keys`); the canonical contraction is the least
    canonical form of a contraction along one of them.  Contracting `added`
    gives the parent back, and contracting parallel edges (or loops at one
    vertex) gives one graph, so only the other endpoint pairs need a
    canonical form."""
    vkey = _vertex_keys(genera, legs, edges, pattern)
    keys = {(a, b): (a == b, sorted((vkey[a], vkey[b]))) for a, b in set(edges)}
    top = max(keys.values())
    if keys[added] != top:
        return False
    return all(
        canonical_form(*_contract(genera, legs, edges, e), pattern)[0] >= parent
        for e, k in keys.items()
        if k == top and e != added
    )


def _aut_factor(legs, edges, pattern) -> int:
    """The part of |Aut_col| beyond vertex permutations: legs of one colour at
    a vertex permute freely, as do parallel edges, and each self-loop may swap
    its two half-edges."""
    order = prod(factorial(m) for m in Counter(zip(legs, pattern)).values())
    for (a, b), mult in Counter(edges).items():
        order *= factorial(mult) * (2 ** mult if a == b else 1)
    return order


def graph_orbits(
    g: int, n: int, colours: Sequence[Hashable]
) -> tuple[tuple[StableGraph, int], ...]:
    """One labelled representative of each class of stable graphs of type
    (g, n) up to isomorphism and permutations of markings of equal colour,
    with its |Aut_col|, sorted by (edge count, serialisation).  `colours[i]`
    is the colour of marking i+1; results are cached by the partition of the
    markings that the colours induce."""
    if len(colours) != n:
        raise ValueError(f"{len(colours)} colours for {n} markings")
    return _graph_orbits(g, n, colour_pattern(colours))


@cached
def _graph_orbits(g: int, n: int, pattern: tuple[int, ...]):
    if not is_stable(g, n):
        raise ValueError(f"unstable type (g={g}, n={n})")
    if g == 0 and n >= 8 and len(set(pattern)) == n:
        # labelled legs make genus-0 trees rigid (|Aut| = 1); build each class
        # exactly once by recursively partitioning the legs (rooting at leg
        # 1), so no isomorph rejection or canonical relabelling is needed
        graphs = [StableGraph(*form) for form in _genus0_forms(n)]
        graphs.sort(key=lambda G: (G.n_edges, G.serialize()))
        return tuple((G, 1) for G in graphs)
    # canonical augmentation: a child is kept only from the parent that is its
    # canonical contraction, so each class is reached from one parent and
    # duplicates are removed per parent
    smooth, auts = canonical_form((g,), (0,) * n, (), pattern)
    found = {smooth: auts}
    frontier = [smooth]
    while frontier:
        nxt: list[tuple] = []
        for parent in frontier:
            children: dict[tuple, int] = {}
            for *child, added in _degenerations(StableGraph(*parent), pattern):
                if _is_canonical_child(parent, *child, added, pattern):
                    form, auts = canonical_form(*child, pattern)
                    children[form] = auts
            found.update(children)
            nxt.extend(children)
        frontier = nxt
    graphs = [StableGraph(*form) for form in found]
    graphs.sort(key=lambda G: (G.n_edges, G.serialize()))
    return tuple(
        (G, found[G.genera, G.legs, G.edges] * _aut_factor(G.legs, G.edges, pattern))
        for G in graphs
    )


@cached
def enumerate_stable_graphs(g: int, n: int) -> tuple[StableGraph, ...]:
    """All isomorphism classes of stable graphs of type (g, n) with fixed
    markings, sorted by (edge count, serialisation)."""
    return tuple(G for G, _ in graph_orbits(g, n, range(n)))


def _set_partitions(items: tuple[int, ...]):
    """All partitions of a nonempty tuple into unordered blocks."""
    if len(items) == 1:
        yield [items]
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [(head,) + part[i]] + part[i + 1 :]
        yield [(head,)] + part


def _genus0_forms(n: int):
    """Stable genus-0 trees with legs 1..n as (genera, legs, edges) tuples.
    The root carries leg 1; every vertex splits the legs below it into two
    or more blocks, each single leg staying at the vertex and each larger
    block hanging below it on a new vertex."""

    def expand(pending, genera, legs, edges):
        # `pending` lists (vertex, blocks) pairs: the first block becomes a
        # new vertex below its vertex, then come its siblings, then its blocks
        if not pending:
            yield genera, tuple(legs), tuple(sorted(edges))
            return
        (parent, blocks), rest = pending[0], pending[1:]
        if not blocks:
            yield from expand(rest, genera, legs, edges)
            return
        v = len(genera)
        up = ((parent, v),) if v else ()
        for part in _set_partitions(blocks[0]):
            if len(part) < 2:
                continue
            vlegs = list(legs)
            for b in part:
                if len(b) == 1:
                    vlegs[b[0] - 1] = v
            below = [b for b in part if len(b) >= 2]
            yield from expand([(parent, blocks[1:]), (v, below)] + rest, genera + (0,), vlegs, edges + up)

    return expand([(None, [tuple(range(2, n + 1))])], (), [0] * n, ())


@cached
def automorphism_order(G: StableGraph) -> int:
    """Order of the automorphism group of G with its legs fixed pointwise:
    the vertex permutations preserving genus, legs and edges, counted by the
    canonical search, times the permutations of parallel edges and the
    swaps of the two half-edges of each self-loop."""
    colours = tuple(range(G.n_legs))
    _, auts = canonical_form(G.genera, G.legs, G.edges, colours)
    return auts * _aut_factor(G.legs, G.edges, colours)


def enumerate_weightings(G: StableGraph, r: int, s: int, a: tuple[int, ...]) -> list[tuple]:
    """All admissible mod-r half-edge decorations, r^h1 of them, as sorted
    tuples of the residues w of the side-0 half-edges, one per edge; the
    side-1 half-edge of that edge carries (r - w) % r.

    Legs are pinned to a_i mod r; the halves of each edge sum to 0 mod r; at
    each vertex the local decorations sum to (2g_v - 2 + n_v) s mod r.
    Raises WeightingConstraintError if the global congruence fails.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if len(a) != G.n_legs:
        raise ValueError("a-vector length must match the number of legs")
    g, n = G.genus(), G.n_legs
    if (sum(a) - (2 * g - 2 + n) * s) % r != 0:
        raise WeightingConstraintError(
            f"sum(a) != (2g-2+n)s mod r for g={g}, n={n}, r={r}, s={s}, a={a}"
        )
    # acc[v]: the a_i of the legs at v minus its target, plus the residues fixed
    # so far on its half-edges; a weighting is admissible when every acc[v] is
    # 0 mod r.  A BFS spanning tree leaves h1 free edges (loops included); their
    # residues are tried, then the tree edges are forced, peeling from the
    # leaves.  The root then balances by the global congruence.  acc0 and the
    # incidence lists (a self-loop twice at its vertex) take one pass over the
    # legs and edges.
    edges = G.edges
    acc0 = [(2 - 2 * gv) * s for gv in G.genera]
    incident: list[list[int]] = [[] for _ in G.genera]
    for i, v in enumerate(G.legs):
        acc0[v] += a[i] - s
    for e, ends in enumerate(edges):
        for v in ends:
            acc0[v] -= s
            incident[v].append(e)
    parent_edge: dict[int, int] = {0: -1}
    order = [0]
    for v in order:
        for e in incident[v]:
            w = edges[e][0] + edges[e][1] - v
            if w not in parent_edge:
                parent_edge[w] = e
                order.append(w)
    free = sorted(set(range(len(edges))) - set(parent_edge.values()))
    found = []
    for choice in iproduct(range(r), repeat=len(free)):
        residues = [0] * len(edges)
        acc = list(acc0)
        for e, w in zip(free, choice):
            residues[e] = w
            acc[edges[e][0]] += w
            acc[edges[e][1]] -= w
        for v in reversed(order[1:]):
            e = parent_edge[v]
            need = -acc[v] % r  # the residue of the half-edge of e at v
            head, tail = edges[e]
            residues[e] = need if v == head else -need % r
            acc[tail if v == head else head] -= need
        found.append(tuple(residues))
    return sorted(found)
