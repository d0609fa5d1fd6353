from fractions import Fraction as F
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from oracles import edge_series_remultiply, exp_series, psi_geometric, substitute_edge
from tautint.exact import bernoulli_poly
from tautint.polys import EdgeSeries, TautPolynomial, edge_local_factor, exp_kappa_series, exp_psi_series


def P1(n=2, trunc=3):
    return TautPolynomial.one(n, trunc)


def test_truncation_kills_high_terms():
    one = TautPolynomial.one(1, 1)
    plus, minus = (TautPolynomial.psi_series(1, 1, 1, [F(1), F(t)]) for t in (1, -1))
    assert plus * minus == one  # psi^2 dies at trunc 1


def test_kappa_merge_and_zero_purge():
    k1 = TautPolynomial.from_monomial(0, 4, ((1, 1),), ())
    sq = k1 * k1
    assert list(sq.terms) == [(((1, 2),), ())]
    z = TautPolynomial(1, 4, {(((2, 1),), (0,)): F(3), ((), (1,)): F(0)})
    assert len(z.terms) == 1


def test_render_canonical():
    n, tr = 2, 4
    p = TautPolynomial(n, tr, {((), (0, 0)): F(1), (((2, 1),), (0, 0)): F(-3, 4)})
    assert p.render() == "1 - 3/4*k2"
    q = TautPolynomial.from_monomial(n, tr, ((1, 1),), (0, 0)) * TautPolynomial.psi_series(2, n, tr, [0, 0, 1])
    assert q.render() == "k1*psi2^2"


@st.composite
def sparse_polys(draw, n=2, trunc=4):
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        c = F(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        ks = draw(st.lists(st.integers(1, 3), max_size=2))
        kappa = []
        for m in set(ks):
            kappa.append((m, ks.count(m)))
        psi = tuple(draw(st.integers(0, 2)) for _ in range(n))
        mono = (tuple(sorted(kappa)), psi)
        terms[mono] = terms.get(mono, 0) + c
    return TautPolynomial(n, trunc, terms)


@given(sparse_polys(), sparse_polys(), sparse_polys())
@settings(max_examples=40, deadline=None)
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    # distributivity, each sum taken on the term dicts
    def plus(p, q):
        keys = p.terms.keys() | q.terms.keys()
        return TautPolynomial(p.n_points, p.trunc, {m: p.terms.get(m, 0) + q.terms.get(m, 0) for m in keys})

    assert a * plus(b, c) == plus(a * b, a * c)


@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=3), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_exp_inverse(coeffs):
    cs = {m + 1: c for m, c in enumerate(coeffs)}
    n, tr = 1, 6
    e = exp_kappa_series(cs, n, tr)
    einv = exp_kappa_series({m: -c for m, c in cs.items()}, n, tr)
    assert e * einv == TautPolynomial.one(n, tr)


def test_exp_kappa_examples():
    assert exp_kappa_series({}, 0, 3) == TautPolynomial.one(0, 3)
    e = exp_kappa_series({1: F(-1)}, 0, 2)
    want = TautPolynomial(0, 2, {((), ()): F(1), (((1, 1),), ()): F(-1), (((1, 2),), ()): F(1, 2)})
    assert e == want
    # exp(-k1 - k2/2 - k3/3) expanded by hand through degree 3
    e3 = exp_kappa_series({m: F(-1, m) for m in (1, 2, 3)}, 0, 3)
    hand = {
        ((), ()): F(1),
        (((1, 1),), ()): F(-1),
        (((1, 2),), ()): F(1, 2),
        (((2, 1),), ()): F(-1, 2),
        (((1, 3),), ()): F(-1, 6),
        (((1, 1), (2, 1)), ()): F(1, 2),
        (((3, 1),), ()): F(-1, 3),
    }
    assert e3.terms == hand


def test_exp_series_reject_index_zero():
    with pytest.raises(ValueError):
        exp_kappa_series({0: F(1)}, 1, 3)
    with pytest.raises(ValueError):
        exp_psi_series({0: F(1)}, 3)
    with pytest.raises(ValueError):
        TautPolynomial.psi_series(0, 1, 3, exp_psi_series({1: F(1)}, 3))


def test_exp_series_drop_high_and_zero_terms():
    assert exp_kappa_series({1: F(0), 4: F(2)}, 1, 3) == TautPolynomial.one(1, 3)
    assert exp_psi_series({2: F(0), 4: F(2)}, 3) == [1, 0, 0, 0]
    assert TautPolynomial.psi_series(2, 2, 3, exp_psi_series({2: F(0), 4: F(2)}, 3)) == TautPolynomial.one(2, 3)
    a = exp_psi_series({1: F(0), 2: F(3), 5: F(1)}, 4)
    assert a == [1, 0, 3, 0, F(9, 2)]
    e = TautPolynomial.psi_series(2, 2, 4, a)
    assert e.terms == {((), (0, 0)): F(1), ((), (0, 2)): F(3), ((), (0, 4)): F(9, 2)}


def psi_exp_reference(coeffs, tr):
    """exp(sum_m c_m t^m) through t^tr by the oracle's one-variable exp."""
    return exp_series([F(0)] + [F(coeffs.get(m, 0)) for m in range(1, tr + 1)], tr)


def kappa_exp_reference(coeffs, n, tr):
    """exp(sum_m c_m kappa_m) as the ring product over m of exp(c_m kappa_m),
    each the oracle's one-variable exp with t^(m e) read as kappa_m^e."""
    out = TautPolynomial.one(n, tr)
    for m, c in coeffs.items():
        series = psi_exp_reference({m: c}, tr)
        terms = {(((m, k // m),) if k else (), (0,) * n): a for k, a in enumerate(series) if a}
        out = out * TautPolynomial(n, tr, terms)
    return out


def test_exp_series_equal_sum_then_exp():
    n, tr = 3, 5
    coeffs = {1: F(-1, 2), 2: F(2, 3), 4: F(5)}
    assert exp_kappa_series(coeffs, n, tr) == kappa_exp_reference(coeffs, n, tr)
    assert exp_psi_series(coeffs, tr) == psi_exp_reference(coeffs, tr)


def test_direct_exp_series_match_generic_exp():
    # the partition formula and the one-variable recurrence against the
    # oracle's series exponential, zero coefficients and trunc 0 included
    values = (F(0), F(1), F(-2, 3))
    for tr in range(5):
        for cs in product(values, repeat=3):
            coeffs = dict(zip((1, 2, 4), cs))
            assert exp_psi_series(coeffs, tr) == psi_exp_reference(coeffs, tr), (tr, coeffs)
            for n in range(4):
                assert exp_kappa_series(coeffs, n, tr) == kappa_exp_reference(coeffs, n, tr), (n, tr, coeffs)


@pytest.mark.parametrize("n, i", [(n, i) for n in range(1, 5) for i in sorted({1, n})])
@pytest.mark.parametrize("trunc", range(6))
def test_psi_series_places_coefficients_on_psi_i(n, i, trunc):
    # the entry at k = 1 is zero and dropped; the list runs two past trunc
    coeffs = [F(k - 1, k + 1) for k in range(trunc + 3)]
    want = {}
    for k, c in enumerate(coeffs):
        psi = tuple(k if j == i else 0 for j in range(1, n + 1))
        if c and k <= trunc:
            want[((), psi)] = c
    got = TautPolynomial.psi_series(i, n, trunc, coeffs)
    assert (got.n_points, got.trunc, got.terms) == (n, trunc, want)
    assert len(got.terms) == max(trunc, 1)  # psi_i^1 dropped, nothing past trunc
    for bad in (0, n + 1):
        with pytest.raises(ValueError, match="psi point index out of range"):
            TautPolynomial.psi_series(bad, n, trunc, coeffs)


def test_wrong_psi_length_raises_above_trunc():
    for psi in ((5, 0), (1, 0)):
        with pytest.raises(ValueError, match="psi exponent vector has wrong length"):
            TautPolynomial(1, 1, {((), psi): F(1)})


def test_psi_geometric():
    assert psi_geometric(1, F(0), 1, 3) == TautPolynomial.one(1, 3)
    got = psi_geometric(1, F(1, 3), 1, 3)
    want = {((), (k,)): F(1, 3**k) for k in range(4)}
    assert got.terms == want


def test_edge_factor_constant_term():
    # lowest-order term of the numerator is -x * B_2(w/r)/2 * (psi' + psi'')
    for (w, r, x) in [(0, 1, F(1)), (1, 2, F(1)), (1, 3, F(-2)), (0, 2, F(1, 2))]:
        series = edge_local_factor(w, r, x, 3)
        const = dict(series.terms).get((0, 0), F(0))
        assert const == -x * bernoulli_poly(2, F(w, r)) / 2
    assert dict(edge_local_factor(0, 1, F(1), 1).terms)[(0, 0)] == F(-1, 12)


def test_edge_factor_x_zero_vanishes():
    assert edge_local_factor(0, 2, F(0), 4).terms == ()


@pytest.mark.parametrize("x", [F(1), F(-1), F(1, 2), F(0)])
@pytest.mark.parametrize("r", range(1, 8))
def test_edge_factor_remultiplication(r, x):
    # quotient * (psi' + psi'') reproduces the numerator 1 - exp(-S) through
    # degree trunc + 1, which fixes every quotient term through trunc; the
    # numerator is expanded here as a bivariate series, once at the largest
    # trunc, and read below it by degree
    top = 6
    for w in range(r):
        S = {}
        for m in range(1, top + 2):
            c = (-x) ** m * bernoulli_poly(m + 1, F(w, r)) / (m * (m + 1))
            S[(m, 0)] = c
            S[(0, m)] = -((-1) ** m) * c
        # 1 - exp(-S) = -sum_{k >= 1} (-S)^k / k!
        num, power = {}, {(0, 0): F(1)}
        for k in range(1, top + 2):
            nxt = {}
            for (i, j), cv in power.items():
                for (a, b), cw in S.items():
                    if i + a + j + b <= top + 1:
                        nxt[(i + a, j + b)] = nxt.get((i + a, j + b), F(0)) - cv * cw
            power = nxt
            for key, val in power.items():
                num[key] = num.get(key, F(0)) - val / factorial(k)
        for tr in range(top + 1):
            series = edge_local_factor(w, r, x, tr)
            keys = [ij for ij, _ in series.terms]
            assert keys == sorted(keys) and all(sum(ij) <= tr and c for ij, c in series.terms)
            remul = edge_series_remultiply(series)
            for key in set(num) | set(remul):
                if sum(key) <= tr + 1:
                    assert remul.get(key, F(0)) == num.get(key, F(0)), (w, r, x, tr, key)


def test_edge_factor_symmetry_r2():
    series = edge_local_factor(1, 2, F(1), 5)
    d = dict(series.terms)
    for (i, j), c in d.items():
        assert d.get((j, i), F(0)) == c


def test_substitute_edge():
    n, tr = 3, 2
    p = TautPolynomial.one(n, tr)
    s = EdgeSeries(tr, (((1, 0), F(1)),))  # the series psi'
    assert substitute_edge(s, p, 3, 2) == TautPolynomial.from_monomial(n, tr, (), (0, 0, 1))
    s2 = EdgeSeries(tr, (((1, 1), F(2)),))
    got = substitute_edge(s2, p, 1, 2)
    assert got == TautPolynomial.from_monomial(n, tr, (), (1, 1, 0), 2)
    with pytest.raises(ValueError):
        substitute_edge(s, p, 2, 2)


def test_compositions_against_product_filter():
    import itertools

    from tautint.polys import compositions

    for minval in (0, 1, 2):
        for parts in range(0, 5):
            for total in range(0, 9):
                want = [
                    c
                    for c in itertools.product(range(minval, total + 1), repeat=parts)
                    if sum(c) == total
                ]
                assert list(compositions(total, parts, minval)) == want
