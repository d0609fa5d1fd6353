"""Truncated polynomial algebra in kappa_m and per-point psi_i classes.

One truncated sparse-series kernel (multiply, inverse) serves the kappa/psi
products here and the lambda series of `hodge`.  `TautPolynomial` holds
a kappa/psi polynomial and keeps what the engine calls: the constructors
`one`, `from_monomial` and `psi_series` (the single place a coefficient list
is put on one psi_i), `*`, `==`, `by_degree` and the canonical `render`.
The exponentials the Omega class needs are built directly: exp of a
kappa series by the partition formula prod c_m^{e_m}/e_m!, and the
coefficient list of exp of a one-point psi series by the recurrence
k a_k = sum_m m b_m a_{k-m}.  That list at a residue u is the leg series
(`leg_series`); the edge series is a closed form in two of them.

A monomial is a pair (kappa, psi): `kappa` is a tuple of (index, exponent)
pairs sorted by index, `psi` a tuple of n nonnegative exponents.  Its degree
is sum(m*e) + sum(psi).  Polynomials store Fraction coefficients in a dict
and re-truncate eagerly above `trunc`; monomials with zero coefficient are
never kept.  kappa_0 is deliberately excluded: where it is needed it is the
scalar 2g-2+n and is substituted at the use site.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Hashable, Iterator
from fractions import Fraction
from operator import add, itemgetter

from .exact import Rat, bernoulli_series
from .memos import cached

KappaPart = tuple[tuple[int, int], ...]
PsiPart = tuple[int, ...]
Monomial = tuple[KappaPart, PsiPart]

# -- the truncated sparse-series kernel ----------------------------------------
#
# A series is a dict {key: Fraction} without zero coefficients, truncated
# above a total degree.  A ring is fixed by two functions on its keys:
# `degree` and `product`.  Kappa/psi polynomials and the lambda polynomials
# are multiplied and inverted here.

Series = dict[Hashable, Fraction]
Degree = Callable[[Hashable], int]
Product = Callable[[Hashable, Hashable], Hashable]


def series_mul(a: Series, b: Series, trunc: int, degree: Degree, product: Product) -> Series:
    """a * b with every term of degree above `trunc` dropped."""
    bs = sorted(((kb, cb, degree(kb)) for kb, cb in b.items()), key=itemgetter(2))
    out: Series = {}
    for ka, ca in a.items():
        room = trunc - degree(ka)
        for kb, cb, db in bs:
            if db > room:
                break
            key = product(ka, kb)
            cur = out.get(key)
            out[key] = ca * cb if cur is None else cur + ca * cb
    return {key: c for key, c in out.items() if c}


def series_inverse(a: Series, one: Hashable, trunc: int, degree: Degree, product: Product) -> Series:
    """1/a for a series with constant term 1: the geometric series in u = 1 - a,
    summed by Horner's rule q <- 1 + u*q."""
    u = {key: -c for key, c in a.items() if key != one}
    q: Series = {one: Fraction(1)}
    for _ in range(trunc):
        q = {one: Fraction(1), **series_mul(q, u, trunc, degree, product)}
    return q


def vector_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, a, b))


def compositions(total: int, parts: int, minval: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of `parts` integers >= minval summing to `total`, in
    lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minval, total - minval * (parts - 1) + 1):
        for rest in compositions(total - first, parts - 1, minval):
            yield (first,) + rest


def partitions(total: int, parts: int, minval: int) -> Iterator[tuple[int, ...]]:
    """Non-decreasing tuples of `parts` integers >= minval summing to `total`,
    in lexicographic order: one per multiset of `compositions`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minval, total // parts + 1):
        for rest in partitions(total - first, parts - 1, first):
            yield (first,) + rest


# -- kappa/psi monomials and polynomials ----------------------------------------


def monomial_degree(mono: Monomial) -> int:
    kappa, psi = mono
    return sum(m * e for m, e in kappa) + sum(psi)


def monomial_product(a: Monomial, b: Monomial) -> Monomial:
    (ka, pa), (kb, pb) = a, b
    if not kb:
        kappa = ka
    elif not ka:
        kappa = kb
    else:
        d: dict[int, int] = dict(ka)
        for m, e in kb:
            d[m] = d.get(m, 0) + e
        kappa = tuple(sorted(d.items()))
    return kappa, vector_add(pa, pb)


class TautPolynomial:
    """Element of the truncated kappa/psi ring on `n_points` marked points."""

    __slots__ = ("n_points", "trunc", "terms")

    def __init__(self, n_points: int, trunc: int, terms: dict[Monomial, Fraction] | None = None):
        if n_points < 0 or trunc < 0:
            raise ValueError("n_points and trunc must be nonnegative")
        self.n_points = n_points
        self.trunc = trunc
        self.terms: dict[Monomial, Fraction] = {}
        if terms:
            for mono, c in terms.items():
                self._add_term(mono, c)

    # -- construction ------------------------------------------------------

    @staticmethod
    def one(n_points: int, trunc: int) -> TautPolynomial:
        return TautPolynomial(n_points, trunc, {((), (0,) * n_points): Fraction(1)})

    @staticmethod
    def from_monomial(n_points: int, trunc: int, kappa: KappaPart, psi: PsiPart, c: Rat = 1) -> TautPolynomial:
        return TautPolynomial(n_points, trunc, {(tuple(sorted(kappa)), tuple(psi)): Fraction(c)})

    @staticmethod
    def psi_series(i: int, n_points: int, trunc: int, coeffs: list[Fraction]) -> TautPolynomial:
        """sum_k coeffs[k] psi_i^k over k <= trunc, zero coefficients dropped."""
        if not 1 <= i <= n_points:
            raise ValueError("psi point index out of range")
        out = TautPolynomial(n_points, trunc)
        unit = (0,) * n_points
        out.terms = {((), unit[: i - 1] + (k,) + unit[i:]): c for k, c in enumerate(coeffs[: trunc + 1]) if c}
        return out

    # -- basic ring structure ----------------------------------------------

    def _add_term(self, mono: Monomial, c: Fraction) -> None:
        if len(mono[1]) != self.n_points:
            raise ValueError("psi exponent vector has wrong length")
        if c == 0 or monomial_degree(mono) > self.trunc:
            return
        cur = self.terms.get(mono)
        new = c if cur is None else cur + c
        if new == 0:
            self.terms.pop(mono, None)
        else:
            self.terms[mono] = new

    def __mul__(self, other: TautPolynomial) -> TautPolynomial:
        if self.n_points != other.n_points or self.trunc != other.trunc:
            raise ValueError("mismatched n_points or truncation degree")
        out = TautPolynomial(self.n_points, self.trunc)
        out.terms = series_mul(self.terms, other.terms, self.trunc, monomial_degree, monomial_product)
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TautPolynomial)
            and self.n_points == other.n_points
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    # -- inspection ----------------------------------------------------------

    def by_degree(self) -> dict[int, tuple[tuple[Monomial, Fraction], ...]]:
        """The terms grouped by degree, for pairings that read one degree."""
        buckets: dict[int, list] = {}
        for mono, c in self.terms.items():
            buckets.setdefault(monomial_degree(mono), []).append((mono, c))
        return {deg: tuple(terms) for deg, terms in buckets.items()}

    def render(self) -> str:
        """Canonical text form, e.g. "1 - 3/4*k2 + 1/2*k1*psi2^2"."""
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono, c in sorted(self.terms.items()):
            frag = _render_monomial(mono)
            mag = abs(c)
            if frag == "1":
                body = str(mag)
            elif mag == 1:
                body = frag
            else:
                body = f"{mag}*{frag}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"TautPolynomial(n={self.n_points}, trunc={self.trunc}, {self.render()})"


def _render_monomial(mono: Monomial) -> str:
    kappa, psi = mono
    frags = [f"k{m}" + (f"^{e}" if e > 1 else "") for m, e in kappa]
    frags += [
        f"psi{i + 1}" + (f"^{e}" if e > 1 else "")
        for i, e in enumerate(psi)
        if e > 0
    ]
    return "*".join(frags) if frags else "1"


def exp_kappa_series(coeffs: dict[int, Rat], n_points: int, trunc: int) -> TautPolynomial:
    """exp(sum_m c_m kappa_m), truncated; constant term is 1.  The coefficient
    of prod kappa_m^{e_m} is prod c_m^{e_m}/e_m!, one term per partition of
    degree <= trunc into the indices with c_m != 0."""
    if any(m < 1 for m in coeffs):
        raise ValueError("kappa indices start at 1")
    parts = sorted((m, Fraction(c)) for m, c in coeffs.items() if c and m <= trunc)
    # (kappa part, degree, numerator, denominator), extended one index at a
    # time; each coefficient is reduced once, at the end
    acc: list[tuple[KappaPart, int, int, int]] = [((), 0, 1, 1)]
    for m, c in parts:
        nxt = []
        for kappa, deg, num, den in acc:
            nxt.append((kappa, deg, num, den))
            e = 1
            while deg + e * m <= trunc:
                num *= c.numerator
                den *= c.denominator * e
                nxt.append((kappa + ((m, e),), deg + e * m, num, den))
                e += 1
        acc = nxt
    out = TautPolynomial(n_points, trunc)
    unit = (0,) * n_points
    out.terms = {(kappa, unit): Fraction(num, den) for kappa, _, num, den in acc}
    return out


def exp_psi_series(coeffs: dict[int, Rat], trunc: int) -> list[Fraction]:
    """The coefficients a_0, ..., a_trunc of exp(sum_m b_m psi^m): they obey
    k a_k = sum_m m b_m a_{k-m} with a_0 = 1."""
    if any(m < 1 for m in coeffs):
        raise ValueError("psi powers start at 1")
    b = [(m, m * Fraction(c)) for m, c in sorted(coeffs.items()) if c and m <= trunc]
    a = [Fraction(1)]
    for k in range(1, trunc + 1):
        a.append(sum((mb * a[k - m] for m, mb in b if m <= k), Fraction(0)) / k)
    return a


# -- leg and edge series ---------------------------------------------------------


def leg_series(u: Rat, x: Rat, trunc: int) -> list[Fraction]:
    """The coefficients of psi^0, ..., psi^trunc in the leg factor
    exp(-sum_m c_m(u) psi^m), c_m(u) the Bernoulli series at residue u."""
    return exp_psi_series({m: -c for m, c in bernoulli_series(u, x, trunc).items()}, trunc)


# a polynomial in the two half-edge psi classes (psi', psi''): its sorted
# ((i, j), coefficient) terms, truncated to total degree trunc
EdgeSeries = namedtuple("EdgeSeries", "trunc terms")


@cached
def edge_local_factor(w: int, r: int, x: Rat, trunc: int) -> EdgeSeries:
    """Edge factor of the stable-graph expansion at half-edge residue w:

        (1 - exp(-sum_m c_m(w/r) ((psi')^m - (-psi'')^m))) / (psi' + psi'')

    truncated to total degree `trunc`.  B_{m+1}(1 - u) = (-1)^{m+1} B_{m+1}(u)
    makes the exponential A(psi') B(psi''), with A and B the leg series at
    w/r and (r - w)/r, and A(t) B(-t) = 1.  So 1 - A(s) B(t) =
    A(s) (B(-s) - B(t)), and dividing B(-s) - B(t) by s + t term by term gives
    Q[i, j] = -sum_{q <= i} (-1)^q A[i - q] B[j + q + 1] with no remainder.
    """
    if not 0 <= w < r:
        raise ValueError("residue must lie in 0..r-1")
    A = leg_series(Fraction(w, r), x, trunc)
    B = leg_series(Fraction(r - w, r), x, trunc + 1)
    terms = []
    for i in range(trunc + 1):
        for j in range(trunc + 1 - i):
            c = -sum((-1) ** q * A[i - q] * B[j + q + 1] for q in range(i + 1))
            if c:
                terms.append(((i, j), c))
    return EdgeSeries(trunc, tuple(terms))
