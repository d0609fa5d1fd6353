"""One cold repetition of a tautint benchmark workload, in its own interpreter.

run.py starts this script once per repetition, with PYTHONPATH set to the
checkout's src/ and the memo caches therefore empty:

    python3 perfbench/workload.py --workload graph_sum --seed 0 [--trace]
        [--save-psi FILE] [--psi-ref FILE]

It prints one JSON object on stdout.  Untraced, it makes the workload's calls
into tautint and times them, from after the import until the last value has
been checked.  With --trace it issues the same work as a sequence of timed
calls into each layer's public functions, records spans in memory and returns
them with the per-layer metrics.  Only public names are imported; a missing
one fails the import, so no layer is dropped silently.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations
from pathlib import Path

from tautint.apps import CHI_ROUTES, MV_ROUTES, chi, chi_harer_zagier, mv
from tautint.checks import CheckGrid, admissible_a, flat_basis, iter_suite, pairing_basis
from tautint.exact import bernoulli_poly
from tautint.graphs import automorphism_order, enumerate_stable_graphs, enumerate_weightings
from tautint.hodge import hodge_pair
from tautint.intersect import integrate_monomial
from tautint.omega import OmegaSpec, omega_pairings, omega_r1_parts
from tautint.polys import edge_local_factor, monomial_degree
from tautint.psi import cache_size, clear_cache, load_cache, psi_integral, save_cache

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

WORKLOADS = ("graph_sum", "closed_form", "identity_suite")

# check names yielded by iter_suite; each gets a checks.<name>_s metric
CHECK_NAMES = (
    "shift_s",
    "multi_shift_s",
    "shift_a",
    "multi_shift_a",
    "zero_r_symmetry",
    "pullback",
    "string",
    "dilaton",
    "vanishing_pullback_class",
    "vanishing_corollary",
    "segre_chern_r1",
    "counterexample_footnote",
)

# per-layer metrics of a traced run: name -> unit
TRACE_UNITS = {
    "graphs.enumerate_s": "s",
    "graphs.automorphism_s": "s",
    "graphs.weightings_s": "s",
    "graphs.count": "count",
    "graphs.weightings": "count",
    "graphs.weighting_yield": "ratio",
    "polys.edge_series_s": "s",
    "polys.edge_terms": "count",
    "intersect.vertex_s": "s",
    "intersect.monomials": "count",
    "omega.graph_sum_s": "s",
    "omega.pairings": "count",
    "omega.r1_parts_s": "s",
    "hodge.pair_s": "s",
    "hodge.pair_terms": "count",
    "apps.chi_hodge_s": "s",
    "apps.chi_omega_s": "s",
    "apps.mv_hodge_s": "s",
    "apps.mv_omega_s": "s",
    "psi.entries": "count",
    "psi.dvv_s": "s",
    "psi.save_s": "s",
    "psi.load_s": "s",
    "psi.cache_bytes": "bytes",
    **{f"checks.{name}_s": "s" for name in CHECK_NAMES},
    "checks.report_p50_ms": "ms",
    "checks.report_p99_ms": "ms",
    "checks.reports": "count",
    "checks.failed": "count",
    "graphs.enumerate_hit_ratio": "ratio",
    "graphs.aut_hit_ratio": "ratio",
    "polys.edge_hit_ratio": "ratio",
    "exact.bernoulli_hit_ratio": "ratio",
    "trace.overhead_s": "s",
}

# span name -> metric for the layer timings summed over spans
SPAN_METRICS = {
    "graphs.enumerate": "graphs.enumerate_s",
    "graphs.automorphism": "graphs.automorphism_s",
    "graphs.weightings": "graphs.weightings_s",
    "polys.edge_series": "polys.edge_series_s",
    "intersect.vertex": "intersect.vertex_s",
    "omega.graph_sum": "omega.graph_sum_s",
    "omega.r1_parts": "omega.r1_parts_s",
    "hodge.pair": "hodge.pair_s",
    "apps.chi_hodge": "apps.chi_hodge_s",
    "apps.chi_omega": "apps.chi_omega_s",
    "apps.mv_hodge": "apps.mv_hodge_s",
    "apps.mv_omega": "apps.mv_omega_s",
    "psi.dvv": "psi.dvv_s",
    "psi.save": "psi.save_s",
    "psi.load": "psi.load_s",
    **{f"checks.{name}": f"checks.{name}_s" for name in CHECK_NAMES},
}


# -- seeded inputs -----------------------------------------------------------------


def _distinct_perms(a: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Distinct orderings of `a`, `a` itself first."""
    return list(dict.fromkeys(permutations(a)))


def graph_sum_variants() -> list[list[tuple[int, int, int, int, tuple[int, ...]]]]:
    """Candidate (g, n, r, s, a) of each graph_sum batch, default first.

    Within a batch the candidates cost the same: the genus-0 batch keeps all
    a_i equal (so the marking symmetry the engine exploits is unchanged) and
    only residues whose Bernoulli values have the same sparsity; the genus-2
    batches permute an admissible a-vector, or reflect (s, a) to
    (r - s, r - a), which maps B_k(t) to (-1)^k B_k(1 - t).
    """
    genus0 = [(0, 8, 2, s, (c,) * 8) for s, c in ((0, 1), (1, 1), (0, 2), (1, 2))]
    r2 = [(2, 3, 2, 1, a) for a in _distinct_perms(admissible_a(2, 3, 2, 1))]
    r3 = [
        (2, 3, 3, s, a)
        for s in (1, 2)
        for a in _distinct_perms(admissible_a(2, 3, 3, s))
    ]
    return [genus0, r2, r3]


def closed_form_spaces() -> list[tuple[int, int]]:
    """Every stable (g, n) with 3g-3+n <= 9 and g <= 4, ascending."""
    return [
        (g, n)
        for g in range(5)
        for n in range(13)
        if 2 * g - 2 + n > 0 and 3 * g - 3 + n <= 9
    ]


IDENTITY_X = (
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3, 2),
    Fraction(-3, 2),
    Fraction(5, 2),
)


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs for `seed`; seed 0 gives the documented defaults."""
    rng = random.Random(seed)

    def pick(options):
        return options[0] if seed == 0 else rng.choice(options)

    if workload == "graph_sum":
        batches = []
        for options in graph_sum_variants():
            g, n, r, s, a = pick(options)
            batches.append({"g": g, "n": n, "r": r, "s": s, "a": list(a), "kappa": g > 0})
        return {"batches": batches}
    if workload == "closed_form":
        spaces = closed_form_spaces()
        if seed != 0:
            rng.shuffle(spaces)
        return {"spaces": [list(sp) for sp in spaces]}
    if workload == "identity_suite":
        x = pick(IDENTITY_X)
        return {"max_dim": 2, "max_r": 3, "x_values": ["1", "-1", str(x)]}
    raise ValueError(f"unknown workload {workload!r}")


def batch_key(b: dict) -> str:
    return f"g={b['g']} n={b['n']} r={b['r']} s={b['s']} a={','.join(map(str, b['a']))}"


def batch_monomials(b: dict) -> list:
    return flat_basis(b["g"], b["n"], include_kappa=b["kappa"])


def batch_spec(b: dict) -> OmegaSpec:
    return OmegaSpec(b["r"], b["s"], tuple(b["a"]), Fraction(1))


def identity_grid(inputs: dict) -> CheckGrid:
    return CheckGrid(
        max_dim=inputs["max_dim"],
        max_r=inputs["max_r"],
        x_values=tuple(Fraction(x) for x in inputs["x_values"]),
    )


# -- correctness ---------------------------------------------------------------------


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.problems: list[str] = []

    def fail(self, count: int, problem: str, known: bool = False) -> None:
        self.failed += count
        if not known:
            self.unexpected += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.unexpected == 0,
            "problems": self.problems,
        }


def pairing_digest(values: dict) -> str:
    h = hashlib.sha256()
    for mono in sorted(values):
        v = values[mono]
        h.update(f"{mono!r}={v.numerator}/{v.denominator}\n".encode())
    return h.hexdigest()


def check_batch(b: dict, monos: list, values, tally: Tally, reference: dict) -> None:
    """Top-degree pairings equal r^{2g-1} * int T (the covering degree of the
    degree-0 part of Omega), and the digest of all values matches the record."""
    tally.attempted += len(monos)
    key = batch_key(b)
    if isinstance(values, Exception):
        tally.fail(len(monos), f"{key}: {type(values).__name__}: {values}")
        return
    if set(values) != set(monos):
        tally.fail(len(monos), f"{key}: pairings returned for the wrong monomials")
        return
    g, n, r = b["g"], b["n"], b["r"]
    dim = 3 * g - 3 + n
    degree = Fraction(r) ** (2 * g - 1)
    bad = [
        mono
        for mono in monos
        if monomial_degree(mono) == dim and values[mono] != degree * integrate_monomial(g, n, *mono)
    ]
    if bad:
        tally.fail(len(bad), f"{key}: top-degree pairing {bad[0]} != r^(2g-1) * integral")
    want = reference["graph_sum"].get(key)
    if want is None:
        raise KeyError(f"no reference digest for {key}; rerun make_reference.py")
    if pairing_digest(values) != want:
        tally.fail(len(monos) - len(bad), f"{key}: pairing digest differs from the reference")


def check_closed_form(g: int, n: int, chis: dict, mvs: dict, tally: Tally) -> None:
    """Every chi route equals Harer-Zagier's closed form; the MV routes agree."""
    tally.attempted += len(chis) + len(mvs)
    hz = chi_harer_zagier(g, n).value
    for route, v in chis.items():
        if v != hz:
            tally.fail(1, f"chi({g},{n}) route {route}: {v!r} != Harer-Zagier {hz}")
    errors = [route for route, v in mvs.items() if isinstance(v, Exception)]
    if errors:
        tally.fail(len(errors), f"mv({g},{n}) route {errors[0]}: {mvs[errors[0]]!r}")
    good = {route: v for route, v in mvs.items() if route not in errors}
    if len(set(good.values())) > 1:
        tally.fail(len(good), f"mv({g},{n}) routes disagree: {good}")


def report_key(rep) -> list:
    p = rep.parameters
    return [rep.check] + [int(p[k]) if k in p else None for k in ("g", "n", "r", "s")]


def check_report(rep, tally: Tally, known: list) -> None:
    tally.attempted += 1
    if not rep.passed:
        key = report_key(rep)
        known_failure = key in known
        label = "known defect, " if known_failure else ""
        params = " ".join(f"{k}={v}" for k, v in sorted(rep.parameters.items()))
        tally.fail(1, f"{label}{rep.check} {params}: {rep.got}", known=known_failure)


def check_suite_end(seen: int, tally: Tally, reference: dict, error: Exception | None) -> None:
    expected = reference["identity_suite"]["reports"]
    if error is not None:
        tally.attempted += 1
        tally.fail(1, f"suite raised {type(error).__name__}: {error}")
    if seen != expected:
        missing = max(expected - seen, 0)
        tally.attempted += missing
        tally.fail(max(missing, 1), f"suite yielded {seen} reports, expected {expected}")


def _call(fn, *args):
    """fn(*args), or the exception it raised (counted as a failed operation)."""
    try:
        return fn(*args)
    except Exception as exc:  # a raised exception is a failed operation
        return exc


# -- untraced workloads ----------------------------------------------------------------


def run_graph_sum(inputs: dict, tally: Tally, reference: dict) -> None:
    for b in inputs["batches"]:
        monos = batch_monomials(b)
        values = _call(omega_pairings, b["g"], b["n"], batch_spec(b), monos)
        check_batch(b, monos, values, tally, reference)


def run_closed_form(inputs: dict, tally: Tally, reference: dict) -> None:
    for g, n in inputs["spaces"]:
        chis = {route: _call(lambda rt: chi(g, n, rt).value, route) for route in CHI_ROUTES}
        mvs = {route: _call(lambda rt: mv(g, n, rt).value, route) for route in MV_ROUTES}
        check_closed_form(g, n, chis, mvs, tally)


def run_identity_suite(inputs: dict, tally: Tally, reference: dict) -> None:
    known = reference["identity_suite"]["known_failures"]
    seen = 0
    error = None
    try:
        for rep in iter_suite(identity_grid(inputs)):
            seen += 1
            check_report(rep, tally, known)
    except Exception as exc:  # the suite stopping early fails the rest
        error = exc
    check_suite_end(seen, tally, reference, error)


RUNNERS = {
    "graph_sum": run_graph_sum,
    "closed_form": run_closed_form,
    "identity_suite": run_identity_suite,
}


def cache_ratios() -> dict[str, float]:
    out = {}
    for name, fn in (
        ("graphs.enumerate_hit_ratio", enumerate_stable_graphs),
        ("graphs.aut_hit_ratio", automorphism_order),
        ("polys.edge_hit_ratio", edge_local_factor),
        ("exact.bernoulli_hit_ratio", bernoulli_poly),
    ):
        info = fn.cache_info()
        calls = info.hits + info.misses
        out[name] = info.hits / calls if calls else 0.0
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plain(workload: str, inputs: dict, reference: dict, save_psi: str | None) -> dict:
    tally = Tally()
    t0, c0 = time.perf_counter(), time.process_time()
    RUNNERS[workload](inputs, tally, reference)
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    out = {
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        "cache": cache_ratios(),
        **tally.as_dict(),
    }
    if save_psi:
        save_cache(save_psi)
    return out


# -- traced workloads --------------------------------------------------------------------


class Tracer:
    """Spans (name, start, end, parent) kept in memory, written out at the end."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "workload": self.workload}
            for n, s, e, p in self.spans
        ]


def trace_graph_sum(inputs: dict, tally: Tally, reference: dict, tr: Tracer, m: dict) -> None:
    for b in inputs["batches"]:
        g, n, r, s = b["g"], b["n"], b["r"], b["s"]
        a = tuple(b["a"])
        dim = 3 * g - 3 + n
        with tr.span("batch"):
            with tr.span("graphs.enumerate"):
                graphs = enumerate_stable_graphs(g, n)
            m["graphs.count"] += len(graphs)
            with tr.span("graphs.automorphism"):
                for G in graphs:
                    automorphism_order(G)
            tries = 0
            with tr.span("graphs.weightings"):
                for G in graphs:
                    m["graphs.weightings"] += len(enumerate_weightings(G, r, s, a))
                    tries += 1 if G.h1() == 0 else r ** G.n_edges
            m["weighting_tries"] += tries
            with tr.span("polys.edge_series"):
                for w in range(r):
                    m["polys.edge_terms"] += len(edge_local_factor(w, r, Fraction(1), dim).terms)
            with tr.span("bench.vertex_types"):
                types = {
                    (gv, dv - 3 * gv + 3)
                    for G in graphs
                    for gv, dv in zip(G.genera, G.vertex_dims())
                }
            with tr.span("intersect.vertex"):
                for gv, nv in sorted(types):
                    for kappa, psi in pairing_basis(gv, nv)[3 * gv - 3 + nv]:
                        integrate_monomial(gv, nv, kappa, psi)
                        m["intersect.monomials"] += 1
            monos = batch_monomials(b)
            with tr.span("omega.graph_sum"):
                values = _call(omega_pairings, g, n, batch_spec(b), monos)
            if not isinstance(values, Exception):
                m["omega.pairings"] += len(values)
            with tr.span("bench.check"):
                check_batch(b, monos, values, tally, reference)


def _staged_r1(g: int, n: int, s: int, tr: Tracer, m: dict):
    """omega_r1_parts then hodge_pair: the closed-form route's two stages."""
    dim = 3 * g - 3 + n
    with tr.span("omega.r1_parts"):
        lam, P = omega_r1_parts(g, n, s, (0,) * n, Fraction(1), dim)
    m["hodge.pair_terms"] += len(lam) * len(P.terms)
    with tr.span("hodge.pair"):
        return hodge_pair(g, n, lam, P)


def trace_closed_form(inputs: dict, tally: Tally, reference: dict, tr: Tracer, m: dict) -> None:
    routes = {"hodge_sum": "apps.chi_hodge", "omega": "apps.chi_omega"}
    mv_routes = {"hodge_sum": "apps.mv_hodge", "omega": "apps.mv_omega"}
    for g, n in inputs["spaces"]:
        dim = 3 * g - 3 + n
        with tr.span("space"):
            chis, mvs = {}, {}
            staged_chi = _call(_staged_r1, g, n, -1, tr, m)
            for route in CHI_ROUTES:
                with tr.span(routes.get(route, f"apps.chi_{route}")):
                    chis[route] = _call(lambda rt: chi(g, n, rt).value, route)
            staged_mv = _call(_staged_r1, g, n, 2, tr, m)
            for route in MV_ROUTES:
                with tr.span(mv_routes.get(route, f"apps.mv_{route}")):
                    mvs[route] = _call(lambda rt: mv(g, n, rt).value, route)
            with tr.span("bench.check"):
                check_closed_form(g, n, chis, mvs, tally)
                tally.attempted += 2
                if staged_chi != chis.get("omega"):
                    tally.fail(1, f"chi({g},{n}): staged {staged_chi} != {chis.get('omega')}")
                if not isinstance(staged_mv, Exception):
                    staged_mv *= (-1) ** dim
                if staged_mv != mvs.get("omega"):
                    tally.fail(1, f"mv({g},{n}): staged {staged_mv} != {mvs.get('omega')}")


def trace_identity_suite(inputs: dict, tally: Tally, reference: dict, tr: Tracer, m: dict) -> None:
    grid = identity_grid(inputs)
    spaces = sorted({sp for g, n in grid.spaces() for sp in ((g, n), (g, n + 1))})
    with tr.span("graphs.enumerate"):
        graphs = [G for g, n in spaces for G in enumerate_stable_graphs(g, n)]
    m["graphs.count"] += len(graphs)
    with tr.span("graphs.automorphism"):
        for G in graphs:
            automorphism_order(G)
    known = reference["identity_suite"]["known_failures"]
    seen = 0
    error = None
    with tr.span("checks.suite"):
        suite = iter_suite(grid)
        while True:
            idx = tr.open("checks.report")
            try:
                rep = next(suite)
            except StopIteration:
                tr.close(idx)
                tr.spans.pop()
                break
            except Exception as exc:  # the suite stopping early fails the rest
                tr.close(idx)
                error = exc
                break
            tr.close(idx)
            span = tr.spans[idx]
            if rep.check not in CHECK_NAMES:
                raise KeyError(f"check {rep.check!r} has no checks.<name>_s metric")
            span[0] = f"checks.{rep.check}"
            seen += 1
            with tr.span("bench.check"):
                check_report(rep, tally, known)
    check_suite_end(seen, tally, reference, error)
    m["checks.reports"] = seen
    m["checks.failed"] = tally.failed


TRACERS = {
    "graph_sum": trace_graph_sum,
    "closed_form": trace_closed_form,
    "identity_suite": trace_identity_suite,
}


def read_psi_file(path: Path) -> list[tuple[int, tuple[int, ...], Fraction]]:
    """The (g, d, value) entries of a psi cache file ('g;d_1,...;p/q' lines)."""
    out = []
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        gs, ds, vs = line.split(";")
        out.append((int(gs), tuple(int(t) for t in ds.split(",")), Fraction(vs)))
    return out


def trace_psi(psi_ref: Path, workdir: Path, tally: Tally, tr: Tracer, m: dict) -> None:
    """Load, save and cold recompute of the psi entries an untraced run saved."""
    m["psi.entries"] = cache_size()
    entries = read_psi_file(psi_ref)
    m["psi.cache_bytes"] = psi_ref.stat().st_size
    tally.attempted += 2
    clear_cache()
    with tr.span("psi.load"):
        loaded = load_cache(psi_ref)
    resaved = workdir / "resaved.psi"
    with tr.span("psi.save"):
        save_cache(resaved)
    if loaded != len(entries) or resaved.read_bytes() != psi_ref.read_bytes():
        tally.fail(1, "psi cache load/save round trip changed the file")
    clear_cache()
    with tr.span("psi.dvv"):
        wrong = [(g, d) for g, d, v in entries if psi_integral(g, d) != v]
    if wrong:
        tally.fail(1, f"psi recompute differs at {wrong[0]}")


def run_traced(workload: str, inputs: dict, reference: dict, psi_ref: Path) -> dict:
    tally = Tally()
    tr = Tracer(workload)
    m = {name: 0 for name in TRACE_UNITS}
    m["weighting_tries"] = 0
    with tr.span("workload"):
        TRACERS[workload](inputs, tally, reference, tr, m)
    total_s = tr.total("workload")
    trace_psi(psi_ref, psi_ref.parent, tally, tr, m)
    # a layer this workload does not call has no spans: its time reads 0
    for span_name, metric in SPAN_METRICS.items():
        m[metric] = tr.total(span_name)
    latencies = [
        (end - start) * 1000.0
        for name, start, end, _ in tr.spans
        if name.startswith("checks.") and name[len("checks."):] in CHECK_NAMES
    ]
    if latencies:
        m["checks.report_p50_ms"] = statistics.median(latencies)
        m["checks.report_p99_ms"] = statistics.quantiles(latencies, n=100, method="inclusive")[98]
    tries = m.pop("weighting_tries")
    m["graphs.weighting_yield"] = m["graphs.weightings"] / tries if tries else 0.0
    return {
        "total_s": total_s,
        "metrics": m,
        "units": TRACE_UNITS,
        "spans": tr.records(),
        **tally.as_dict(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true", help="staged, traced repetition")
    ap.add_argument("--save-psi", help="untraced: write the psi cache here afterwards")
    ap.add_argument("--psi-ref", help="traced: psi cache file of an untraced repetition")
    ns = ap.parse_args(argv)
    reference = json.loads(REFERENCE.read_text())
    inputs = make_inputs(ns.workload, ns.seed)
    if ns.trace:
        if not ns.psi_ref:
            ap.error("--trace needs --psi-ref")
        out = run_traced(ns.workload, inputs, reference, Path(ns.psi_ref))
    else:
        out = run_plain(ns.workload, inputs, reference, ns.save_psi)
    out["inputs"] = inputs
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
