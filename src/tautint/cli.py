"""Command-line frontend.

Exact rationals print as "p/q" (bare "p" when q = 1); --decimal (not on
verify) renders floats with a warning, since nothing internal is inexact.
Exit codes: 0 success, 1 a verification failed or stdout was closed early
(the rest goes to os.devnull, with no traceback), 2 usage (malformed tokens,
an unstable (g, n), 3g-3+n above DIM_HARD_CAP, or above GRAPH_DIM_CAP for
omega and table, r^g above WEIGHTING_CAP for omega with r > 1, an unreadable
--cache file), which is reported on one "error:" line before any computation
starts.  --stats (omega and verify) writes one sorted-key JSON object to
stderr when the command ends: every engine memo's entries (and its hits and
misses if it is an lru_cache) and the process's peak RSS in MB; stdout does
not change.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import memos, psi
from .apps import CHI_ROUTES, MV_ROUTES, chi, mv, mv_normalization
from .checks import FULL_GRID, SMALL_GRID, iter_suite
from .hodge import hodge_monomial
from .omega import OmegaSpec, omega_integral
from .polys import TautPolynomial
from .psi import is_stable, stable_types

# chi, mv and hodge: at dimension 12 the slowest chi/MV route takes under 1 s
# cold.  omega and table keep the lower cap: omega may run the stable-graph
# sum, and table runs every chi route on every space up to --dimmax.
DIM_HARD_CAP = 12
GRAPH_DIM_CAP = 10
# omega with r > 1 runs the graph sum, which builds up to r^g mod-r weightings
# per stable graph.  On a 2-core Intel Xeon the slowest call measured within
# the cap, `omega 4 1 5 0 0` (r^g = 625), takes 27-35 s and 266 MB, while
# `omega 4 1 10 0 0` runs out of 2 GB and `omega 1 1 100000 0 0` takes > 300 s.
WEIGHTING_CAP = 10**3
CACHE_ENV_VAR = "TAUTINT_CACHE"


def _token(convert, what: str, ok=lambda v: True):
    """An argparse type: `convert`, refusing values that fail it or `ok`."""

    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError):
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}")
        return value

    return parse


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",")) if text else ()


_nonneg_int = _token(int, "an integer >= 0", lambda v: v >= 0)
_pos_int = _token(int, "an integer >= 1", lambda v: v >= 1)
_int_list = _token(_ints, "a comma-separated list of integers")
_exponents = _token(_ints, "a list of integers >= 0", lambda v: min(v, default=0) >= 0)
_rational = _token(Fraction, "a rational number")


_FACTOR = re.compile(r"(psi|k)([1-9][0-9]*)(?:\^([0-9]+))?")


def _monomial_expr(expr: str) -> tuple[tuple[str, int, int], ...]:
    """Parse a monomial like 'psi1^2*k3' into (name, index, power) factors."""
    factors = []
    for factor in expr.split("*"):
        factor = factor.strip()
        if not factor or factor == "1":
            continue
        match = _FACTOR.fullmatch(factor)
        if match is None:
            raise argparse.ArgumentTypeError(f"cannot parse factor {factor!r}")
        name, index, power = match.groups()
        factors.append((name, int(index), int(power) if power else 1))
    return tuple(factors)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _space_error(g: int, n: int, cap: int = DIM_HARD_CAP) -> str | None:
    """Why (g, n) is refused, or None: it must be stable and within the cap."""
    if not is_stable(g, n):
        return f"unstable (g,n)=({g},{n})"
    if 3 * g - 3 + n > cap:
        return f"dimension 3g-3+n = {3 * g - 3 + n} exceeds the cap of {cap}"
    return None


def _fmt_rat(v: Fraction, decimal: int | None) -> str:
    return str(v) if decimal is None else f"{float(v):.{decimal}g}"


def _emit(cells: list[tuple[int, int, Fraction, str]], fmt: str, decimal: int | None) -> str:
    """The (g, n, value, route) cells as JSON lines, as CSV under a header, or
    as text: a lone cell's value, else one "route: value" line per cell."""
    keys = ("g", "n", "value", "route")
    rows = [(g, n, _fmt_rat(v, decimal), route) for g, n, v, route in cells]
    if fmt == "json":
        import json  # json and the process pool load only where they are used

        return "\n".join(json.dumps(dict(zip(keys, map(str, row))), sort_keys=True) for row in rows)
    if fmt == "csv":
        return "\n".join([",".join(keys)] + [",".join(map(str, row)) for row in rows])
    if len(rows) == 1:
        return rows[0][2]
    return "\n".join(f"{route}: {value}" for _, _, value, route in rows)


def _chi_cell(args: tuple[int, int]) -> list[tuple[int, int, Fraction, str]]:
    g, n = args
    return [(g, n, chi(g, n, route).value, route) for route in CHI_ROUTES]


def cmd_route(ns: argparse.Namespace) -> int:
    """chi or mv by one route; mv may add its normalisation constant."""
    if err := _space_error(ns.g, ns.n):
        return _usage_error(err)
    if ns.with_normalization:
        try:
            norm = mv_normalization(ns.g, ns.n)
        except ValueError as exc:
            return _usage_error(str(exc))
    cells = [(ns.g, ns.n, ns.compute(ns.g, ns.n, ns.route).value, ns.route)]
    if ns.with_normalization:
        cells.append((ns.g, ns.n, norm, "normalization_constant"))
    print(_emit(cells, ns.format, ns.decimal))
    return 0


def cmd_hodge(ns: argparse.Namespace) -> int:
    if err := _space_error(ns.g, ns.n):
        return _usage_error(err)
    d = ns.d or (0,) * ns.n
    if len(d) != ns.n:
        return _usage_error("need one psi exponent per marked point")
    lam = (ns.i,) if ns.i else ()
    val = hodge_monomial(ns.g, ns.n, lam, (), d)
    print(_emit([(ns.g, ns.n, val, "hodge")], ns.format, ns.decimal))
    return 0


def cmd_omega(ns: argparse.Namespace) -> int:
    if err := _space_error(ns.g, ns.n, GRAPH_DIM_CAP):
        return _usage_error(err)
    if len(ns.a) != ns.n:
        return _usage_error("need one a_i per marked point")
    if ns.route == "closed" and ns.r != 1:
        return _usage_error("--route closed needs r = 1")
    if ns.r**ns.g > WEIGHTING_CAP:
        return _usage_error(f"r^g exceeds the cap of {WEIGHTING_CAP} weightings per stable graph")
    if any(name == "psi" and i > ns.n for name, i, _ in ns.test_class):
        return _usage_error(f"--test-class names a psi beyond the {ns.n} marked points")
    try:
        spec = OmegaSpec(ns.r, ns.s, ns.a, ns.x)
        spec.validate(ns.g, ns.n)
    except ValueError as exc:
        return _usage_error(str(exc))
    T = _test_class(ns.test_class, ns.g, ns.n) if ns.test_class else None
    val = omega_integral(ns.g, ns.n, spec, T, route=ns.route)
    print(_emit([(ns.g, ns.n, val, ns.route)], ns.format, ns.decimal))
    return 0


def _test_class(factors: tuple[tuple[str, int, int], ...], g: int, n: int) -> TautPolynomial:
    """The test class of parsed (name, index, power) factors: one monomial,
    which is 0 when its degree exceeds 3g-3+n."""
    kappa: dict[int, int] = {}
    psi = [0] * n
    for name, index, power in factors:
        if name == "psi":
            psi[index - 1] += power
        else:
            kappa[index] = kappa.get(index, 0) + power
    kappa_part = tuple((m, e) for m, e in kappa.items() if e)
    return TautPolynomial.from_monomial(n, 3 * g - 3 + n, kappa_part, tuple(psi))


def cmd_verify(ns: argparse.Namespace) -> int:
    grid = FULL_GRID if ns.grid == "full" else SMALL_GRID
    failures = 0
    for report in iter_suite(grid):
        print(report.to_json())
        if not report.passed:
            failures += 1
    return 1 if failures else 0


def cmd_table(ns: argparse.Namespace) -> int:
    if ns.dimmax > GRAPH_DIM_CAP:
        return _usage_error(f"--dimmax is capped at {GRAPH_DIM_CAP}")
    cells = stable_types(ns.dimmax, ns.gmax)
    if ns.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its workers at once; more than one per cell idle
        with ProcessPoolExecutor(max_workers=min(ns.jobs, len(cells))) as pool:
            blocks = list(pool.map(_chi_cell, cells))
    else:
        blocks = [_chi_cell(c) for c in cells]
    fmt = ns.format if ns.format != "text" else "csv"
    print(_emit([cell for block in blocks for cell in block], fmt, ns.decimal))
    return 0


def _stats_line() -> str:
    """memos.stats() and the peak RSS of this process, as one JSON object."""
    import json
    import resource

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return json.dumps({"memos": memos.stats(), "peak_rss_mb": peak_rss_mb}, sort_keys=True)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache", default=None, help=f"psi-integral cache file (or ${CACHE_ENV_VAR})")
    # verify prints JSON report lines and takes neither flag
    output = argparse.ArgumentParser(add_help=False, parents=[common])
    output.add_argument("--format", choices=("text", "json", "csv"), default="text")
    output.add_argument(
        "--decimal",
        type=_nonneg_int,
        default=None,
        help="render decimals at this precision (WARNING: output is no longer exact)",
    )

    p = argparse.ArgumentParser(prog="tautint", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("chi", parents=[output], help="orbifold Euler characteristic of M_{g,n}")
    c.add_argument("g", type=_nonneg_int)
    c.add_argument("n", type=_nonneg_int)
    c.add_argument("--route", choices=CHI_ROUTES, default="harer_zagier")
    c.set_defaults(func=cmd_route, compute=chi, with_normalization=False)

    m = sub.add_parser("mv", parents=[output], help="Masur-Veech volume over pi^{6g-6+2n}")
    m.add_argument("g", type=_nonneg_int)
    m.add_argument("n", type=_nonneg_int)
    m.add_argument("--route", choices=MV_ROUTES, default="omega")
    m.add_argument("--with-normalization", action="store_true")
    m.set_defaults(func=cmd_route, compute=mv)

    h = sub.add_parser("hodge", parents=[output], help="int lambda_i psi_1^{d_1}...psi_n^{d_n}")
    h.add_argument("g", type=_nonneg_int)
    h.add_argument("n", type=_nonneg_int)
    h.add_argument("i", type=_nonneg_int, help="lambda index (0: no lambda class)")
    h.add_argument("d", nargs="?", type=_exponents, default=(), help="comma-separated psi powers")
    h.set_defaults(func=cmd_hodge)

    o = sub.add_parser("omega", parents=[output], help="int Omega^{[x]}(r,s;a) * T")
    o.add_argument("g", type=_nonneg_int)
    o.add_argument("n", type=_nonneg_int)
    o.add_argument("r", type=int)
    o.add_argument("s", type=int)
    o.add_argument("a", nargs="?", type=_int_list, default=(), help="comma-separated a_i")
    o.add_argument("-x", type=_rational, default=Fraction(1), help="formal weight x (rational)")
    o.add_argument("--test-class", type=_monomial_expr, default=(), help="e.g. 'psi1^2*k1'")
    o.add_argument("--route", choices=("auto", "graph", "graph-raw", "closed"), default="auto")
    o.set_defaults(func=cmd_omega)

    v = sub.add_parser("verify", parents=[common], help="run the identity suite, one JSON line per check")
    v.add_argument("--grid", choices=("small", "full"), default="small")
    v.set_defaults(func=cmd_verify)

    for parser in (o, v):
        parser.add_argument("--stats", action="store_true", help="engine memo sizes and peak RSS on stderr")

    t = sub.add_parser("table", parents=[output], help="chi by all three routes over a (g,n) range")
    t.add_argument("--gmax", type=_nonneg_int, default=3)
    t.add_argument("--dimmax", type=_nonneg_int, default=4)
    t.add_argument("--jobs", type=_pos_int, default=1)
    t.set_defaults(func=cmd_table)

    # the negative-number matcher of Python 3.13: "-1,1,1,-3" and "-1/2" are values, not options
    for parser in (p, *sub.choices.values()):
        parser._negative_number_matcher = re.compile(r"-\.?\d")
    return p


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    cache_path = os.environ.get(CACHE_ENV_VAR) if ns.cache is None else ns.cache
    if getattr(ns, "decimal", None) is not None:
        print("warning: --decimal output is a float rendering, not exact", file=sys.stderr)
    if cache_path:
        try:
            psi.load_cache(cache_path)
        except (OSError, UnicodeDecodeError) as exc:
            return _usage_error(f"cannot read psi cache {cache_path}: {exc}")
    try:
        code = ns.func(ns)
        sys.stdout.flush()
    except BrokenPipeError:
        # the Python docs' recipe: the flush at exit then cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    finally:
        if cache_path:
            try:
                psi.save_cache(cache_path)
            except OSError as exc:
                print(f"warning: psi cache not saved to {cache_path}: {exc}", file=sys.stderr)
    if getattr(ns, "stats", False):
        print(_stats_line(), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
