"""Intersection numbers of pure psi classes on Mbar_{g,n}.

<tau_{d_1} ... tau_{d_n}>_g is computed by the Virasoro/DVV recursion with
string and dilaton fast paths, seeded by <tau_0^3>_0 = 1 and by the genus-one
value <tau_1>_{1,1} = 1/24 (the central term of the L_0 constraint, which the
quadratic recursion cannot reach on its own).

The recursion works on exponent multisets.  The string sum and the linear
DVV term visit each distinct exponent once, times its multiplicity, and the
quadratic term runs over sub-multisets of the remaining exponents, the split
taking t_k of the c_k points with the k-th exponent weighted by
prod_k comb(c_k, t_k), instead of over all 2^m subsets.  The genus of each
side of a split is fixed by its dimension.

Within one memo entry every term adds its integer numerator to a
{denominator: numerator} table, which is brought over one denominator and
reduced once (`exact.sum_by_denominator`); the memo holds reduced Fractions.
The recursion, and the kappa and Hodge kernels built on it, look values up
through `_psi_value`, which takes a key already known to be valid and
checks nothing; `psi_integral` validates its arguments for every other
caller.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import product as iproduct
from math import comb

from .exact import sum_by_denominator
from .memos import cached, register


CACHE_VERSION = "tautint-psi-cache v1"

_cache: dict[tuple[int, tuple[int, ...]], Fraction] = register("psi._cache", {})
_cache_lock = threading.Lock()


def is_stable(g: int, n: int) -> bool:
    return g >= 0 and n >= 0 and 2 * g - 2 + n > 0


def stable_types(dimmax: int, gmax: int | None = None) -> list[tuple[int, int]]:
    """The stable (g, n) with 3g-3+n <= dimmax (and g <= gmax), sorted."""
    # 3g-3+n <= dimmax bounds g by dimmax // 3 + 1, whatever gmax says
    top = dimmax // 3 + 1 if gmax is None else min(gmax, dimmax // 3 + 1)
    return [(g, n) for g in range(top + 1) for n in range(dimmax - 3 * g + 4) if is_stable(g, n)]


def _dfact(k: int) -> int:
    """Odd double factorial with (-1)!! = 1."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def psi_integral(g: int, d: Iterable[int]) -> Fraction:
    """Exact value of int_{Mbar_{g,n}} prod_i psi_i^{d_i}.

    Zero unless sum(d) == 3g-3+n; symmetric in the exponents.  Raises on
    unstable (g, n) and on n == 0 (no marked points, nothing to integrate).
    """
    d = tuple(d)
    n = len(d)
    if n == 0:
        raise ValueError("psi integrals need at least one marked point")
    if any(e < 0 for e in d):
        raise ValueError("psi exponents must be nonnegative")
    if not is_stable(g, n):
        raise ValueError(f"unstable moduli space (g={g}, n={n})")
    if sum(d) != 3 * g - 3 + n:
        return Fraction(0)
    return _psi_value(g, tuple(sorted(d, reverse=True)))


def _psi_value(g: int, d: tuple[int, ...]) -> Fraction:
    """psi_integral on a key that is already valid: (g, len(d)) stable, d
    sorted descending, nonnegative and of total degree 3g-3+n.  Nothing is
    checked; the recursions here and in the kappa and Hodge kernels only
    build such keys."""
    val = _cache.get((g, d))
    if val is None:
        val = _compute(g, d)
        with _cache_lock:
            val = _cache.setdefault((g, d), val)
    return val


def runs(t: tuple[int, ...]) -> Iterator[tuple[int, int, int]]:
    """(first index, value, multiplicity) of each run of equal entries of a
    sorted tuple."""
    i = 0
    while i < len(t):
        j = i + 1
        while j < len(t) and t[j] == t[i]:
            j += 1
        yield i, t[i], j - i
        i = j


Split = tuple[tuple[int, ...], tuple[int, ...], int, int]


@cached
def multiset_splits(d: tuple[int, ...]) -> tuple[Split, ...]:
    """The ways to send marked points with exponents d (sorted descending) to
    two sides, grouped by the resulting exponent multisets: (left, right,
    multiplicity, degree of left), both sides sorted descending.  The
    multiplicity is prod_k comb(c_k, t_k) when t_k of the c_k points of the
    k-th distinct exponent go left."""
    out: list[Split] = []
    groups = [(v, c) for _, v, c in runs(d)]
    for picks in iproduct(*(range(c + 1) for _, c in groups)):
        ways = 1
        left: tuple[int, ...] = ()
        right: tuple[int, ...] = ()
        for (v, c), t in zip(groups, picks):
            ways *= comb(c, t)
            left += (v,) * t
            right += (v,) * (c - t)
        out.append((left, right, ways, sum(left)))
    return tuple(out)


def _compute(g: int, d: tuple[int, ...]) -> Fraction:
    """<tau_d>_g for d sorted descending and of total degree 3g-3+n.  Equal
    exponents are handled once per run, times its multiplicity."""
    n = len(d)
    if (g, n) == (0, 3):
        return Fraction(1)
    if (g, n) == (1, 1):
        return Fraction(1, 24)  # seeded: L_0 central term

    sums: dict[int, int] = {}
    if d[-1] == 0 and is_stable(g, n - 1):
        # string: lower the last copy of each exponent >= 1, keeping the order
        rest = d[:-1]
        for i, v, c in runs(rest):
            if v >= 1:
                j = i + c - 1
                val = _psi_value(g, rest[:j] + (v - 1,) + rest[j + 1 :])
                sums[val.denominator] = sums.get(val.denominator, 0) + c * val.numerator
        return sum_by_denominator(sums)

    if 1 in d and is_stable(g, n - 1):
        i = d.index(1)
        return (2 * g - 3 + n) * _psi_value(g, d[:i] + d[i + 1 :])

    # all exponents >= 2: DVV on the largest one, every term doubled so that
    # the quadratic half is an integer weight
    d1 = d[0]
    rest = d[1:]
    for i, dj, c in runs(rest):
        # d1 + dj - 1 > d1 >= the others, so the key stays sorted
        val = _psi_value(g, (d1 + dj - 1,) + rest[:i] + rest[i + 1 :])
        den = _dfact(2 * dj - 1) * val.denominator
        sums[den] = sums.get(den, 0) + 2 * c * _dfact(2 * (d1 + dj) - 1) * val.numerator
    # a + b = d1 - 2 over the two halves of the new node, weighted (2a+1)!! (2b+1)!!
    weights = [_dfact(2 * a + 1) * _dfact(2 * (d1 - 2 - a) + 1) for a in range(d1 - 1)]
    if g >= 1 and is_stable(g - 1, n + 1):
        for a, w in enumerate(weights):
            val = _psi_value(g - 1, _desc((a, d1 - 2 - a) + rest))
            sums[val.denominator] = sums.get(val.denominator, 0) + w * val.numerator
    for left, right, ways, left_deg in multiset_splits(rest):
        # the genus of the left side is fixed by its dimension: a = 3 g1 + c
        c = len(left) - left_deg - 2
        n1, n2 = len(left) + 1, len(right) + 1
        for g1 in range(max(0, (2 - c) // 3), min(g, (d1 - 2 - c) // 3) + 1):
            if is_stable(g1, n1) and is_stable(g - g1, n2):
                a = 3 * g1 + c
                x = _psi_value(g1, _desc((a,) + left))
                y = _psi_value(g - g1, _desc((d1 - 2 - a,) + right))
                den = x.denominator * y.denominator
                sums[den] = sums.get(den, 0) + weights[a] * ways * x.numerator * y.numerator
    return sum_by_denominator(sums) / (2 * _dfact(2 * d1 + 1))


def _desc(t: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(t, reverse=True))


# -- cache persistence --------------------------------------------------------


def cache_size() -> int:
    return len(_cache)


def clear_cache() -> None:
    with _cache_lock:
        _cache.clear()


def save_cache(path: str | os.PathLike) -> int:
    """Write the memo table as sorted 'g;d_1,...,d_n;p/q' lines.

    The text goes to a temporary file in the target's directory that is then
    renamed over the target, so a failed save leaves the old file intact.
    """
    from pathlib import Path  # only here, so that importing tautint does not load pathlib

    path = Path(path)
    lines = [f"# {CACHE_VERSION}"]
    for (g, d), v in sorted(_cache.items()):
        lines.append(f"{g};{','.join(map(str, d))};{v.numerator}/{v.denominator}")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write("\n".join(lines) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return len(_cache)


def load_cache(path: str | os.PathLike) -> int:
    """Load a cache file, skipping (with a warning) any corrupted line."""
    from pathlib import Path

    p = Path(path)
    if not p.exists():
        return 0
    loaded = 0
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            gs, ds, vs = line.split(";")
            g = int(gs)
            d = tuple(int(t) for t in ds.split(",")) if ds else ()
            num, _, den = vs.partition("/")
            val = Fraction(int(num), int(den) if den else 1)
            if not d or min(d) < 0 or not is_stable(g, len(d)) or sum(d) != 3 * g - 3 + len(d):
                raise ValueError("inconsistent index")
        except (ValueError, ZeroDivisionError) as exc:
            import logging  # only here, so that importing tautint does not load logging

            logging.getLogger(__name__).warning(
                "skipping corrupted cache line %d (%s): %r", lineno, exc, line
            )
            continue
        with _cache_lock:
            _cache.setdefault((g, tuple(sorted(d, reverse=True))), val)
        loaded += 1
    return loaded
