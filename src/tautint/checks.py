"""Machine verification of the Omega-class identities and degree bounds.

Class identities are certified at pairing level: both sides are integrated
against every kappa/psi monomial of each complementary degree (boundary
classes are not part of the data model, so this tests the image of the
identity in the monomial pairing, stated as such in the reports).  Failures
record the first differing pairing with both exact values.  A single shift
in s or a_i is checked as the N = 1 case of its multi-shift, and reports
that pass or show their first failure share one builder.

The comparisons run on integers.  A batch of pairings is read as integer
numerators over its least common denominator, so a sum of c * pairing is an
integer dot product; each side of a compared row is a (numerator,
denominator) pair, the two compared by cross-multiplying, and a row's label
and fractions are formatted only when it fails.  The (1 + t psi_i) products
and their inverses are integer coefficient lists.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .exact import (
    power_sum,
    solve_linear,
    stirling_generalized_first,
    stirling_generalized_second,
)
from .hodge import hodge_pair_by_degree, lambda_dict_mul, lambda_total_inverse
from .intersect import integrate_monomial
from .omega import OmegaSpec, omega_integral, omega_pairings, omega_r1_parts
from .polys import (
    Monomial,
    TautPolynomial,
    compositions,
    exp_kappa_series,
    monomial_degree,
    monomial_product,
)
from .psi import stable_types
from .reports import CheckReport, first_failure


# -- pairing bases ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _psi_upto(n: int, maxtotal: int) -> tuple[tuple[int, ...], ...]:
    """The psi exponent vectors on n points of total degree <= maxtotal."""
    return tuple(psi for total in range(maxtotal + 1) for psi in compositions(total, n, 0))


@lru_cache(maxsize=None)
def _basis_by_degree(g: int, n: int, include_kappa: bool) -> tuple[tuple[Monomial, ...], ...]:
    """The sorted kappa/psi monomials of each degree 0..dim, indexed by degree."""
    dim = 3 * g - 3 + n
    out: list[list[Monomial]] = [[] for _ in range(dim + 1)]
    # the kappa monomials of degree <= kdim are the terms of exp(sum_m kappa_m)
    kdim = dim if include_kappa else 0
    for kap, _ in exp_kappa_series(dict.fromkeys(range(1, kdim + 1), 1), 0, kdim).terms:
        kdeg = sum(m * e for m, e in kap)
        for psi in _psi_upto(n, dim - kdeg):
            out[kdeg + sum(psi)].append((kap, psi))
    return tuple(tuple(sorted(ms)) for ms in out)


def pairing_basis(g: int, n: int, include_kappa: bool = True) -> dict[int, list[Monomial]]:
    """All kappa/psi monomials of each degree 0..dim, keyed by degree (a fresh
    copy of a memoised table)."""
    return {k: list(ms) for k, ms in enumerate(_basis_by_degree(g, n, include_kappa))}


def flat_basis(g: int, n: int, include_kappa: bool = True) -> list[Monomial]:
    """pairing_basis in one list, by increasing degree."""
    return [m for ms in _basis_by_degree(g, n, include_kappa) for m in ms]


# -- helpers ----------------------------------------------------------------------


def _common_denominator(values: dict[Monomial, Fraction]) -> tuple[dict[Monomial, int], int]:
    """The values as integer numerators over their least common denominator."""
    den = lcm(*(v.denominator for v in values.values()))
    return {m: v.numerator * (den // v.denominator) for m, v in values.items()}, den


def _pair_with_factor(
    g: int, n: int, spec: OmegaSpec, factor: TautPolynomial, monos: Iterable[Monomial]
) -> tuple[dict[Monomial, int], int]:
    """int Omega_spec * factor * mono for each basis monomial, as integer
    numerators over one denominator.

    Each product factor * mono keeps the factor's terms of degree
    <= factor.trunc - deg(mono), as its truncation at factor.trunc would,
    and one `omega_pairings` batch covers every monomial the products reach.
    With the factor and the pairings each over a common denominator, each
    sum of c * pairing is an integer dot product."""
    coeffs, fden = _common_denominator(factor.terms)
    terms = [(m, c, monomial_degree(m)) for m, c in coeffs.items()]
    prods: dict[Monomial, list[tuple[Monomial, int]]] = {}
    for mono in monos:
        room = factor.trunc - monomial_degree(mono)
        prods[mono] = [(monomial_product(m, mono), c) for m, c, d in terms if d <= room]
    needed = {m for prod_terms in prods.values() for m, _ in prod_terms}
    pair, pden = _common_denominator(omega_pairings(g, n, spec, needed) if needed else {})
    return {mono: sum(c * pair[m] for m, c in prod_terms) for mono, prod_terms in prods.items()}, fden * pden


def _differing(template: str, rows: Iterable[tuple]) -> list[str]:
    """The line "label: lhs=.. rhs=.." of each row (key, lhs, rhs) whose sides
    differ, each side a (numerator, denominator) pair and the two compared by
    cross-multiplying.  The label template.format(*key) and the fractions are
    formatted for those rows only."""
    return [
        f"{template.format(*key)}: lhs={Fraction(ln, ld)} rhs={Fraction(rn, rd)}"
        for key, (ln, ld), (rn, rd) in rows
        if ln * rd != rn * ld
    ]


def _compare_pairings(name: str, params: dict, lhs: tuple[dict, int], rhs: tuple[dict, int]) -> CheckReport:
    """Pairings compared per monomial, each side numerators over one denominator."""
    (lnums, lden), (rnums, rden) = lhs, rhs
    rows = (((mono,), (lnums[mono], lden), (rnums[mono], rden)) for mono in sorted(lnums))
    expected = "all pairings equal (pairing-certified identity)"
    return first_failure(name, params, expected, _differing("pairing {}", rows), "equal")


def _linear_product(n: int, i: int, trunc: int, roots: list[Fraction], invert: bool) -> TautPolynomial:
    """prod_t (1 + t psi_i) over the roots t on n points, truncated above
    degree trunc, and its inverse when `invert` is set.  Built as the
    coefficient list of psi_i^0, ..., psi_i^trunc: with the roots t = T/D
    over their common denominator D, the psi_i^k coefficient is N_k / D^k,
    and the integers N_k are multiplied by one factor 1 + T psi_i at a time
    (N_k += T N_{k-1}, descending), or divided by it (N_k -= T N_{k-1},
    ascending)."""
    den = lcm(*(t.denominator for t in roots))
    c = [1] + [0] * trunc
    for t in roots:
        T = t.numerator * (den // t.denominator)
        if invert:
            for k in range(1, trunc + 1):
                c[k] -= T * c[k - 1]
        else:
            for k in range(trunc, 0, -1):
                c[k] += T * c[k - 1]
    return TautPolynomial.psi_series(i, n, trunc, [Fraction(ck, den**k) for k, ck in enumerate(c)])


# -- Riemann-Roch degree bounds --------------------------------------------------


def degree_bound_check(g: int, n: int, spec: OmegaSpec, bound_formula: str) -> CheckReport:
    """Vanishing of [deg = k].Omega above the rank bound.

    bound_formula "jkv": g = 0, s = 0, a_i > 0 except at most one in {-1, 0};
    the degree-k part vanishes for k > sum(a)/r - 1.
    bound_formula "negative-s": s < 0, a_i > 0; vanishing for
    k > ((2g-2+n)(-s) + r(g-1) + sum(a))/r.
    The degree-k part pairs with T of degree dim-k as x^k times the x = 1
    pairing, so the x = 1 pairings decide the vanishing.
    """
    spec.validate(g, n)
    dim = 3 * g - 3 + n
    if bound_formula == "jkv":
        if g != 0 or spec.s != 0:
            raise ValueError("jkv bound needs g = 0 and s = 0")
        low = [ai for ai in spec.a if ai <= 0]
        if len(low) > 1 or any(ai not in (-1, 0) for ai in low):
            raise ValueError("jkv bound needs a_i > 0 except at most one in {-1, 0}")
        bound = Fraction(sum(spec.a), spec.r) - 1
    elif bound_formula == "negative-s":
        if spec.s >= 0 or any(ai <= 0 for ai in spec.a):
            raise ValueError("negative-s bound needs s < 0 and a_i > 0")
        bound = Fraction(
            (2 * g - 2 + n) * (-spec.s) + spec.r * (g - 1) + sum(spec.a), spec.r
        )
    else:
        raise ValueError(f"unknown bound formula {bound_formula!r}")

    ks = [k for k in range(dim + 1) if k > bound]
    details: list[str] = []
    for k in ks:
        monos = [((), psi) for psi in compositions(dim - k, n, 0)]
        pairs = omega_pairings(g, n, OmegaSpec(spec.r, spec.s, spec.a), monos)
        for mono in monos:
            if pairs[mono] != 0:
                details.append(f"k={k} T=psi^{mono[1]}: coefficient {pairs[mono]}")
    expected = f"degree-k pairings vanish for k > {bound}" if ks else f"vanishing above k > {bound}"
    # scripts/degree_bounds_scan.py reads "vacuous" in `got`
    ok = "all zero" if ks else f"vacuous (bound >= dim = {dim})"
    params = {"g": g, "n": n, "spec": spec}
    return first_failure(f"degree_bound_{bound_formula}", params, expected, details, ok)


# -- Omega-class property checks --------------------------------------------------


def check_shift_s(g: int, n: int, r: int, s: int, a: tuple[int, ...], x, N: int = 1) -> CheckReport:
    """Omega(r, s+Nr; a) = Omega(r, s; a) * exp(sum (-x)^m/m p_m kappa_m), p_m the power sum
    of s/r, ..., s/r+N-1: reported as shift_s at N = 1, else as multi_shift_s with N."""
    x = Fraction(x)
    dim = 3 * g - 3 + n
    basis = flat_basis(g, n)
    lhs = _common_denominator(omega_pairings(g, n, OmegaSpec(r, s + N * r, a, x), basis))
    coeffs = {m: (-x) ** m * power_sum(m, Fraction(s, r), N) / m for m in range(1, dim + 1)}
    factor = exp_kappa_series(coeffs, n, dim)
    rhs = _pair_with_factor(g, n, OmegaSpec(r, s, a, x), factor, basis)
    name, extra = ("shift_s", {}) if N == 1 else ("multi_shift_s", {"N": N})
    return _compare_pairings(name, {"g": g, "n": n, "r": r, "s": s, "a": a, "x": x, **extra}, lhs, rhs)


def check_shift_a(g: int, n: int, r: int, s: int, a: tuple[int, ...], i: int, x, N: int = 1) -> CheckReport:
    """Omega(r, s; .., a_i + Nr, ..) = Omega(r, s; a) * prod_{t<N} (1 + x(a_i/r + t) psi_i):
    reported as shift_a at N = 1, else as multi_shift_a with N."""
    x = Fraction(x)
    basis = flat_basis(g, n)
    a2 = a[: i - 1] + (a[i - 1] + N * r,) + a[i:]
    lhs = _common_denominator(omega_pairings(g, n, OmegaSpec(r, s, a2, x), basis))
    roots = [x * (Fraction(a[i - 1], r) + t) for t in range(N)]
    factor = _linear_product(n, i, 3 * g - 3 + n, roots, False)
    rhs = _pair_with_factor(g, n, OmegaSpec(r, s, a, x), factor, basis)
    name, extra = ("shift_a", {}) if N == 1 else ("multi_shift_a", {"N": N})
    params = {"g": g, "n": n, "r": r, "s": s, "a": a, "i": i, "x": x, **extra}
    return _compare_pairings(name, params, lhs, rhs)


def check_zero_r_symmetry(g: int, n: int, r: int, a: tuple[int, ...]) -> CheckReport:
    """Omega(r, 0; a) = Omega(r, r; a), plus the leaf version 0 <-> r."""
    basis = flat_basis(g, n)
    lhs = _common_denominator(omega_pairings(g, n, OmegaSpec(r, 0, a), basis))
    rhs = _common_denominator(omega_pairings(g, n, OmegaSpec(r, r, a), basis))
    rep = _compare_pairings("zero_r_symmetry", {"g": g, "n": n, "r": r, "a": a}, lhs, rhs)
    if rep.passed:
        for i, ai in enumerate(a):
            if ai % r == 0:
                a2 = a[:i] + (ai + r if ai == 0 else ai - r,) + a[i + 1 :]
                alt = _common_denominator(omega_pairings(g, n, OmegaSpec(r, 0, a2), basis))
                leaf = _compare_pairings(
                    "zero_r_symmetry_leaf", {"g": g, "n": n, "r": r, "a": a, "i": i + 1}, lhs, alt
                )
                if not leaf.passed:
                    return leaf
                break
    return rep


def _pullback_family(g: int, n: int, r: int, s: int, a: tuple[int, ...], x) -> tuple[CheckReport, ...]:
    """The pullback, string, dilaton and vanishing_pullback_class reports:
    consequences of Omega(r,s;a,s) = pi^* Omega(r,s;a).  Vanishing:
    int_{g,n+1} Omega(r,s;a,s) = 0 for every integer s; pullback: that, and
    <Omega(..,s) psi_{n+1}^{k+1} prod psi^d>_{g,n+1} = <Omega(r,s;a) kappa_k
    prod psi^d>_{g,n} for k <= 2 (kappa_0 = 2g-2+n); string and dilaton:
    their equations, coefficientwise.  All four read one batch of its
    pairings on Mbar_{g,n+1} with every psi monomial of degree <= dim + 1
    whose last exponent is at most 3, and one batch of Omega(r,s;a) pairings
    on Mbar_{g,n}, so each graph sum runs once for the four."""
    x = Fraction(x)
    dim1 = 3 * g - 2 + n
    params = {"g": g, "n": n, "r": r, "s": s, "a": a, "x": x}
    ds = _psi_upto(n, dim1)
    cases = [(k, d) for k in range(3) for d in _psi_upto(n, dim1 - k - 1)]
    monos = [((), d + (k,)) for k in range(4) for d in _psi_upto(n, dim1 + 1 - k)]
    # each batch as integer numerators over one denominator
    up, uden = _common_denominator(omega_pairings(g, n + 1, OmegaSpec(r, s, a + (s,), x), monos))
    kappa_monos = [(((k, 1),), d) for k, d in cases if k]
    down_monos = [((), d) for d in ds] + kappa_monos
    down, dden = _common_denominator(omega_pairings(g, n, OmegaSpec(r, s, a, x), down_monos))
    euler = 2 * g - 2 + n
    total = Fraction(up[((), (0,) * (n + 1))], uden)
    pullback = [f"int Omega(..., s) = {total} != 0"] if total != 0 else []
    pullback += _differing("k={} d={}", (
        ((k, d), (up[((), d + (k + 1,))], uden), (down[(((k, 1),), d)] if k else euler * down[((), d)], dden))
        for k, d in cases
    ))
    string = _differing("d={}", (
        ((d,), (up[((), d + (0,))] if sum(d) <= dim1 else 0, uden),
         (sum(down[((), d[:j] + (d[j] - 1,) + d[j + 1 :])] for j in range(n) if d[j]), dden))
        for d in _psi_upto(n, dim1 + 1)
    ))
    dilaton = _differing("d={}", (
        ((d,), (up[((), d + (1,))], uden), (euler * down[((), d)], dden)) for d in ds
    ))
    expected = "pullback consequences (vanishing and kappa transport)"
    return (
        first_failure("pullback", params, expected, pullback, "hold"),
        first_failure("string", params, "string equation coefficientwise", string, "holds"),
        first_failure("dilaton", params, "dilaton equation coefficientwise", dilaton, "holds"),
        CheckReport("vanishing_pullback_class", params, "0", str(total), total == 0),
    )


def check_vanishing_corollary(g: int, n: int, r: int, s: int, a: tuple[int, ...], x=1) -> CheckReport:
    """The weighted-psi and kappa-exponential vanishings derived from the
    shift identities, with the generalised-Stirling cross-check of the
    psi-polynomial coefficients."""
    x = Fraction(x)
    params = {"g": g, "n": n, "r": r, "s": s, "a": a, "x": x}
    if 0 <= s < r:
        passed = omega_integral(g, n + 1, OmegaSpec(r, s, a + (s,), x)) == 0
        expected, got = "degenerate to the pullback-class vanishing", "covered by vanishing_pullback_class"
        return CheckReport("vanishing_corollary", params, expected, got, passed)
    dim1 = 3 * g - 2 + n
    q, rem = divmod(s, r)  # s = r*q + rem with 0 <= rem < r
    if s >= r:
        roots = [Fraction(s, r) - t for t in range(1, q + 1)]
        base, count, sign, invert = Fraction(rem, r), q, 1, False
        form, kind, stirling, mmax = "product form", "first", stirling_generalized_first, q
    else:
        roots = [Fraction(s, r) + t for t in range(-q)]
        base, count, sign, invert = Fraction(s, r), -q, -1, True
        form, kind, stirling, mmax = "inverse-product form", "second", stirling_generalized_second, dim1
    details: list[str] = []
    T1 = _linear_product(n + 1, n + 1, dim1, [x * t for t in roots], invert)
    I1 = omega_integral(g, n + 1, OmegaSpec(r, s, a + (rem,), x), T1)
    if I1 != 0:
        details.append(f"{form}: {I1}")
    coeffs = {m: sign * (-x) ** m * power_sum(m, base, count) / m for m in range(1, dim1 + 1)}
    T2 = exp_kappa_series(coeffs, n + 1, dim1)
    I2 = omega_integral(g, n + 1, OmegaSpec(r, rem, a + (s,), x), T2)
    if I2 != 0:
        details.append(f"kappa-exponential form: {I2}")
    # Stirling reformulation of the product polynomial at x = 1; the probe
    # keeps psi^q, which may exceed dim1
    probe = _linear_product(n + 1, n + 1, max(dim1, q), roots, invert)
    for m in range(mmax + 1):
        want = stirling(len(roots), m, Fraction(rem, r))
        gotc = probe.terms.get(((), (0,) * n + (m,)), Fraction(0))
        if gotc != want:
            details.append(f"stirling {kind} k={len(roots)} m={m}: poly {gotc} vs {want}")
    expected = "both weighted integrals vanish; Stirling coefficients match"
    return first_failure("vanishing_corollary", params, expected, details, "hold")


def check_segre_chern(g: int, n: int, s: int, x) -> CheckReport:
    """For r = 1: Omega^{[-x]}(1, 1-s; 0) * Omega^{[x]}(1, s; 0) pairs like 1.

    Both factors are used in their closed forms Lambda(+-x)^{-1} * exp(kappa
    series), with the inverse series rather than the linear Lambda(-+x); the
    lambda parts multiply out to arbitrary lambda monomials, so no
    total-Chern-class relation is assumed.
    """
    x = Fraction(x)
    dim = 3 * g - 3 + n
    _, polyA = omega_r1_parts(g, n, 1 - s, (0,) * n, -x, dim)
    _, polyB = omega_r1_parts(g, n, s, (0,) * n, x, dim)
    lam = lambda_dict_mul(lambda_total_inverse(-x, g, dim), lambda_total_inverse(x, g, dim), dim).items()
    buckets = (polyA * polyB).by_degree()
    details = []
    for kap, psi in flat_basis(g, n):
        got = hodge_pair_by_degree(g, n, lam, buckets, (kap, psi))
        want = integrate_monomial(g, n, kap, psi)
        if got != want:
            details.append(f"pairing {(kap, psi)}: product {got} vs unit {want}")
    params = {"g": g, "n": n, "s": s, "x": x}
    expected = "product of the two parametrisations pairs like 1"
    return first_failure("segre_chern_r1", params, expected, details, "holds")


def check_counterexample_footnote(xs: Iterable = (1, 2, Fraction(1, 2))) -> CheckReport:
    """On Mbar_{1,2}: Omega^{[x]}(2,1;0,2) * Omega^{[-x]}(2,1;2,0) pairs like
    c^2 - (3/4) x^2 kappa_2 with c = r^{2g-1} = 2 the covering degree carried
    by the degree-0 part of each factor; in particular the product is NOT the
    class naive Serre duality would give (c^2 times the unit), the correction
    being exactly the advertised -(3/4) x^2 kappa_2.

    The monomials 1; psi_1, kappa_1; psi_1^2 span R^0, R^1, R^2 of Mbar_{1,2}
    (ranks 1, 2, 1) under the pairing.  Each factor is solved on that span
    from its pairings with it and must reproduce all its basis pairings; the
    product of the two is compared with c^2 - (3/4) x^2 kappa_2 on every
    basis monomial, so its degree-1 part pairs to zero (the odd-degree
    vanishing observation).
    """
    g, n = 1, 2
    c0 = Fraction(2)  # r^{2g-1} for r = 2, g = 1
    basis = flat_basis(g, n)
    unit, kappa2 = ((), (0, 0)), (((2, 1),), (0, 0))
    span = [unit, ((), (1, 0)), (((1, 1),), (0, 0)), ((), (2, 0))]

    def pair(terms: dict[Monomial, Fraction], q: Monomial) -> tuple[int, int]:
        value = sum(c * integrate_monomial(g, n, *monomial_product(m, q)) for m, c in terms.items())
        return value.as_integer_ratio()

    gram = [[integrate_monomial(g, n, *monomial_product(p, q)) for p in span] for q in span]
    details: list[str] = []
    vanished = False
    for x in xs:
        x = Fraction(x)
        factors = []
        for name, spec in (("A", OmegaSpec(2, 1, (0, 2), x)), ("B", OmegaSpec(2, 1, (2, 0), -x))):
            pairs = omega_pairings(g, n, spec, basis)
            coeffs = solve_linear([row + [pairs[q]] for row, q in zip(gram, span)])
            if coeffs[0] != c0:
                details.append(f"x={x}: degree-0 part of {name} is not {c0}")
            terms = dict(zip(span, coeffs))
            rows = (((x, name, q), pair(terms, q), pairs[q].as_integer_ratio()) for q in basis)
            details += _differing("x={}: {} rebuilt against {}", rows)
            factors.append(TautPolynomial(n, 3 * g - 3 + n, terms))
        product = (factors[0] * factors[1]).terms
        want = {unit: c0**2, kappa2: -Fraction(3, 4) * x**2}
        rows = (((x, q), pair(product, q), pair(want, q)) for q in basis)
        details += _differing("x={}: product against {}", rows)
        vanished = vanished or pair(product, unit)[0] == 0
    if vanished:
        details.append("kappa_2 correction vanished: duality did NOT fail")
    params = {"g": g, "n": n, "x": tuple(str(Fraction(x)) for x in xs), "deg0": str(c0)}
    expected = "product pairs like c^2 - 3/4*x^2*k2 (c = 2); naive duality form fails"
    return first_failure("counterexample_footnote", params, expected, details, "confirmed")


# -- grid runner -------------------------------------------------------------------


_GRID_DEFAULTS = (4, 3, tuple(range(-3, 5)), (Fraction(1), Fraction(-1), Fraction(1, 2)))


class CheckGrid(namedtuple("CheckGrid", "max_dim max_r s_values x_values", defaults=_GRID_DEFAULTS)):
    """Parameter grid for the identity suite."""

    __slots__ = ()

    def spaces(self) -> list[tuple[int, int]]:
        return stable_types(self.max_dim)


SMALL_GRID = CheckGrid(max_dim=2, max_r=2, s_values=(-2, -1, 0, 1, 2), x_values=(Fraction(1), Fraction(-1)))
FULL_GRID = CheckGrid()


def admissible_a(g: int, n: int, r: int, s: int) -> tuple[int, ...]:
    """A canonical a-vector in 1..r satisfying the modular constraint: every
    entry r except the first, which takes the residue (2g-2+n)s mod r."""
    if n == 0:
        return ()
    return (((2 * g - 2 + n) * s - 1) % r + 1,) + (r,) * (n - 1)


def iter_suite(grid: CheckGrid) -> Iterator[CheckReport]:
    """Run every identity check over the grid, yielding reports."""
    for g, n in grid.spaces():
        for r in range(1, grid.max_r + 1):
            for s in grid.s_values:
                if n == 0 and (2 * g - 2) * s % r != 0:
                    continue
                a = admissible_a(g, n, r, s)
                for x in grid.x_values:
                    for N in (1, 2, 3):
                        yield check_shift_s(g, n, r, s, a, x, N)
                    if n >= 1:
                        for N in (1, 2):
                            yield check_shift_a(g, n, r, s, a, 1, x, N)
                    yield from _pullback_family(g, n, r, s, a, x)
                    yield check_vanishing_corollary(g, n, r, s, a, x)
            a0 = admissible_a(g, n, r, 0)
            yield check_zero_r_symmetry(g, n, r, a0)
        for s in grid.s_values:
            for x in grid.x_values:
                yield check_segre_chern(g, n, s, x)
    yield check_counterexample_footnote()
