"""Command-line frontend.

Exact rationals print as "p/q" (bare "p" when q = 1); a --decimal flag
renders floats at a stated precision with a warning, since nothing internal
is ever inexact.  Exit codes: 0 success, 1 a verification failed, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import psi
from .apps import CHI_ROUTES, MV_ROUTES, chi, mv, mv_normalization
from .checks import FULL_GRID, SMALL_GRID, iter_suite
from .hodge import hodge_monomial
from .omega import OmegaSpec, omega_integral
from .polys import TautPolynomial
from .psi import is_stable, stable_types

DIM_HARD_CAP = 10
CACHE_ENV_VAR = "TAUTINT_CACHE"


def _fmt_rat(v: Fraction, decimal: int | None) -> str:
    if decimal is not None:
        return f"{float(v):.{decimal}g}"
    return str(v)


def _emit(rows: list[dict], fmt: str, decimal: int | None) -> str:
    if fmt == "json":
        return "\n".join(
            json.dumps({k: str(v) for k, v in row.items()}, sort_keys=True) for row in rows
        )
    if fmt == "csv":
        out = ["g,n,value,route"]
        for row in rows:
            out.append(f"{row['g']},{row['n']},{row['value']},{row['route']}")
        return "\n".join(out)
    return "\n".join(str(row["value"]) if "route" not in row or len(rows) == 1 else f"{row['route']}: {row['value']}" for row in rows)


def _chi_cell(args: tuple[int, int]) -> list[tuple[int, int, str, str]]:
    g, n = args
    return [(g, n, str(chi(g, n, route).value), route) for route in CHI_ROUTES]


def cmd_chi(ns: argparse.Namespace) -> int:
    if not is_stable(ns.g, ns.n):
        print(f"error: unstable (g,n)=({ns.g},{ns.n})", file=sys.stderr)
        return 2
    routes = [ns.route] if ns.route else ["harer_zagier"]
    rows = [
        {"g": ns.g, "n": ns.n, "value": _fmt_rat(chi(ns.g, ns.n, r).value, ns.decimal), "route": r}
        for r in routes
    ]
    print(_emit(rows, ns.format, ns.decimal))
    return 0


def cmd_mv(ns: argparse.Namespace) -> int:
    if not is_stable(ns.g, ns.n):
        print(f"error: unstable (g,n)=({ns.g},{ns.n})", file=sys.stderr)
        return 2
    routes = [ns.route] if ns.route else ["omega"]
    rows = [
        {"g": ns.g, "n": ns.n, "value": _fmt_rat(mv(ns.g, ns.n, r).value, ns.decimal), "route": r}
        for r in routes
    ]
    if ns.with_normalization:
        rows.append(
            {"g": ns.g, "n": ns.n, "value": _fmt_rat(mv_normalization(ns.g, ns.n), ns.decimal), "route": "normalization_constant"}
        )
    print(_emit(rows, ns.format, ns.decimal))
    return 0


def cmd_hodge(ns: argparse.Namespace) -> int:
    d = tuple(int(t) for t in ns.d.split(",")) if ns.d else (0,) * ns.n
    if len(d) != ns.n:
        print("error: need one psi exponent per marked point", file=sys.stderr)
        return 2
    lam = (ns.i,) if ns.i else ()
    val = hodge_monomial(ns.g, ns.n, lam, (), d)
    print(_fmt_rat(val, ns.decimal))
    return 0


def cmd_omega(ns: argparse.Namespace) -> int:
    a = tuple(int(t) for t in ns.a.split(",")) if ns.a else ()
    if len(a) != ns.n:
        print("error: need one a_i per marked point", file=sys.stderr)
        return 2
    spec = OmegaSpec(ns.r, ns.s, a, Fraction(ns.x))
    try:
        spec.validate(ns.g, ns.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    T = _parse_test_class(ns.test_class, ns.g, ns.n) if ns.test_class else None
    val = omega_integral(ns.g, ns.n, spec, T, route=ns.route)
    print(_fmt_rat(val, ns.decimal))
    return 0


def _parse_test_class(expr: str, g: int, n: int) -> TautPolynomial:
    """Parse a monomial like 'psi1^2*k3' into a test class."""
    dim = 3 * g - 3 + n
    out = TautPolynomial.one(n, dim)
    for factor in expr.split("*"):
        factor = factor.strip()
        if not factor or factor == "1":
            continue
        name, _, power = factor.partition("^")
        e = int(power) if power else 1
        if name.startswith("psi"):
            out = out * TautPolynomial.psi(int(name[3:]), n, dim, power=e)
        elif name.startswith("k"):
            for _ in range(e):
                out = out * TautPolynomial.kappa(int(name[1:]), n, dim)
        else:
            raise ValueError(f"cannot parse factor {factor!r}")
    return out


def cmd_verify(ns: argparse.Namespace) -> int:
    grid = FULL_GRID if ns.grid == "full" else SMALL_GRID
    failures = 0
    for report in iter_suite(grid):
        print(report.to_json())
        if not report.passed:
            failures += 1
    return 1 if failures else 0


def cmd_table(ns: argparse.Namespace) -> int:
    if ns.dimmax > DIM_HARD_CAP:
        print(f"error: --dimmax is capped at {DIM_HARD_CAP}", file=sys.stderr)
        return 2
    cells = stable_types(ns.dimmax, ns.gmax)
    if ns.jobs > 1:
        with ProcessPoolExecutor(max_workers=ns.jobs) as pool:
            blocks = list(pool.map(_chi_cell, cells))
    else:
        blocks = [_chi_cell(c) for c in cells]
    rows = [
        {"g": g, "n": n, "value": v, "route": route}
        for block in blocks
        for g, n, v, route in block
    ]
    fmt = ns.format if ns.format != "text" else "csv"
    print(_emit(rows, fmt, ns.decimal))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache", default=None, help=f"psi-integral cache file (or ${CACHE_ENV_VAR})")
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument(
        "--decimal",
        type=int,
        default=None,
        help="render decimals at this precision (WARNING: output is no longer exact)",
    )

    p = argparse.ArgumentParser(prog="tautint", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("chi", parents=[common], help="orbifold Euler characteristic of M_{g,n}")
    c.add_argument("g", type=int)
    c.add_argument("n", type=int)
    c.add_argument("--route", choices=CHI_ROUTES, default=None)
    c.set_defaults(func=cmd_chi)

    m = sub.add_parser("mv", parents=[common], help="Masur-Veech volume over pi^{6g-6+2n}")
    m.add_argument("g", type=int)
    m.add_argument("n", type=int)
    m.add_argument("--route", choices=MV_ROUTES, default=None)
    m.add_argument("--with-normalization", action="store_true")
    m.set_defaults(func=cmd_mv)

    h = sub.add_parser("hodge", parents=[common], help="int lambda_i psi_1^{d_1}...psi_n^{d_n}")
    h.add_argument("g", type=int)
    h.add_argument("n", type=int)
    h.add_argument("i", type=int)
    h.add_argument("d", nargs="?", default="", help="comma-separated psi exponents")
    h.set_defaults(func=cmd_hodge)

    o = sub.add_parser("omega", parents=[common], help="int Omega^{[x]}(r,s;a) * T")
    o.add_argument("g", type=int)
    o.add_argument("n", type=int)
    o.add_argument("r", type=int)
    o.add_argument("s", type=int)
    o.add_argument("a", nargs="?", default="", help="comma-separated a_i")
    o.add_argument("-x", default="1", help="formal weight x (rational)")
    o.add_argument("--test-class", default=None, help="e.g. 'psi1^2*k1'")
    o.add_argument("--route", choices=("auto", "graph", "graph-raw", "closed"), default="auto")
    o.set_defaults(func=cmd_omega)

    v = sub.add_parser("verify", parents=[common], help="run the identity suite, one JSON line per check")
    v.add_argument("--grid", choices=("small", "full"), default="small")
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("table", parents=[common], help="chi by all three routes over a (g,n) range")
    t.add_argument("--gmax", type=int, default=3)
    t.add_argument("--dimmax", type=int, default=4)
    t.add_argument("--jobs", type=int, default=1)
    t.set_defaults(func=cmd_table)

    return p


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    cache_path = os.environ.get(CACHE_ENV_VAR) if ns.cache is None else ns.cache
    if ns.decimal is not None:
        print("warning: --decimal output is a float rendering, not exact", file=sys.stderr)
    if cache_path:
        psi.load_cache(cache_path)
    try:
        code = ns.func(ns)
    finally:
        if cache_path:
            try:
                psi.save_cache(cache_path)
            except OSError as exc:
                print(f"warning: psi cache not saved to {cache_path}: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
