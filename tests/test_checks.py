import hashlib
import json
from fractions import Fraction as F

import pytest

from tautint import checks, omega
from tautint.checks import (
    SMALL_GRID,
    CheckGrid,
    admissible_a,
    _pullback_family,
    check_counterexample_footnote,
    check_segre_chern,
    check_shift_a,
    check_shift_s,
    check_vanishing_corollary,
    check_zero_r_symmetry,
    flat_basis,
    iter_suite,
    pairing_basis,
)
from tautint.polys import TautPolynomial, monomial_degree, monomial_product, series_inverse


def test_pairing_basis_shape():
    basis = pairing_basis(1, 2)
    assert set(basis) == {0, 1, 2}
    assert basis[0] == [((), (0, 0))]
    assert (((1, 1),), (0, 0)) in basis[1]
    assert (((2, 1),), (0, 0)) in basis[2]
    assert (((1, 2),), (0, 0)) in basis[2]
    # psi-only monomials of each degree are all present
    assert ((), (2, 0)) in basis[2] and ((), (1, 1)) in basis[2]


def test_admissible_a():
    for (g, n, r, s) in [(1, 1, 2, 1), (0, 4, 3, 2), (2, 1, 3, -2), (1, 3, 2, -1)]:
        a = admissible_a(g, n, r, s)
        assert len(a) == n and all(1 <= ai <= r for ai in a)
        assert (sum(a) - (2 * g - 2 + n) * s) % r == 0


def test_shift_checks_examples():
    assert check_shift_s(1, 1, 2, 1, (1,), F(1)).passed
    assert check_shift_s(1, 1, 1, -2, (0,), F(1)).passed  # reduces to kappa bookkeeping
    assert check_shift_s(0, 4, 2, 0, (2, 2, 2, 2), F(1)).passed  # (s/r)^m = 0 branch
    assert check_shift_a(1, 1, 2, 0, (2,), 1, F(1)).passed
    assert check_shift_a(1, 1, 2, 1, (1,), 1, F(1, 2)).passed
    assert check_shift_s(1, 1, 2, 1, (1,), F(1), N=2).passed
    assert check_shift_s(0, 4, 3, -1, admissible_a(0, 4, 3, -1), F(-1), N=3).passed
    assert check_shift_a(1, 1, 2, 1, (1,), 1, F(1), N=2).passed


def test_zero_r_and_pullback():
    assert check_zero_r_symmetry(1, 1, 2, (2,)).passed
    assert check_zero_r_symmetry(0, 4, 2, admissible_a(0, 4, 2, 0)).passed
    # _pullback_family returns the pullback, string, dilaton and
    # vanishing_pullback_class reports
    assert _pullback_family(1, 1, 2, 3, (1,), 1)[0].passed  # s outside [0, r]
    assert _pullback_family(1, 1, 2, 0, (2,), 1)[0].passed  # flat-unit case
    assert _pullback_family(0, 3, 3, 1, admissible_a(0, 3, 3, 1), 1)[0].passed


def test_string_dilaton():
    assert _pullback_family(1, 1, 2, 0, (2,), 1)[1].passed
    assert _pullback_family(0, 3, 2, 1, admissible_a(0, 3, 2, 1), 1)[1].passed
    assert _pullback_family(0, 3, 2, 0, (2, 2, 2), 1)[2].passed
    assert _pullback_family(1, 1, 3, -1, admissible_a(1, 1, 3, -1), F(1, 2))[2].passed


def test_vanishings():
    assert _pullback_family(1, 1, 2, -1, (1,), 1)[3].passed
    assert _pullback_family(1, 2, 2, 3, admissible_a(1, 2, 2, 3), F(-1))[3].passed
    assert check_vanishing_corollary(1, 1, 2, 3, (1,)).passed
    assert check_vanishing_corollary(1, 1, 2, -1, (1,)).passed
    assert check_vanishing_corollary(0, 4, 3, 5, admissible_a(0, 4, 3, 5), F(1, 2)).passed
    assert check_vanishing_corollary(0, 4, 3, -2, admissible_a(0, 4, 3, -2), F(2)).passed
    # 0 <= s < r degenerates to the plain vanishing
    rep = check_vanishing_corollary(1, 1, 3, 1, admissible_a(1, 1, 3, 1))
    assert rep.passed and "degenerate" in rep.expected


def test_vanishing_corollary_r1_beyond_dimension():
    # q = s/r exceeds the dimension of Mbar_{g,n+1}: the Stirling probe must
    # keep its psi^q coefficient
    for g, n, r, s in [(0, 3, 1, 3), (0, 3, 1, 4), (0, 4, 1, 4), (1, 1, 1, 4)]:
        for x in (F(1), F(-1), F(1, 2)):
            rep = check_vanishing_corollary(g, n, r, s, admissible_a(g, n, r, s), x)
            assert rep.passed, rep.to_json()


def test_segre_chern():
    assert check_segre_chern(1, 1, -1, F(1)).passed  # the chi/MV pair s=-1 vs 2
    assert check_segre_chern(0, 4, 0, F(1)).passed
    assert check_segre_chern(1, 2, 2, F(1, 2)).passed
    assert check_segre_chern(1, 1, 1, F(0)).passed  # x = 0 trivial


def test_footnote_counterexample():
    rep = check_counterexample_footnote()
    assert rep.passed, rep.details
    assert rep.parameters["deg0"] == "2"
    # at x = 0 each factor is its degree-0 part, so the product pairs like
    # c^2 and the kappa_2 correction is gone
    rep = check_counterexample_footnote(xs=(0,))
    assert not rep.passed
    assert rep.details == ["kappa_2 correction vanished: duality did NOT fail"]


def test_report_json_shape():
    rep = check_shift_s(0, 3, 1, 0, (0, 0, 0), F(1))
    payload = json.loads(rep.to_json())
    assert set(payload) == {"check", "parameters", "expected", "got", "pass"}
    assert payload["pass"] is True


def test_iter_suite_smallest():
    grid = CheckGrid(max_dim=0, max_r=2, s_values=(0, 1), x_values=(F(1),))
    reports = list(iter_suite(grid))
    assert reports, "suite must produce reports"
    bad = [r for r in reports if not r.passed]
    assert not bad, bad[0].to_json() if bad else None


def test_suite_memo_holds_canonical_entries_only():
    # one pairing memo entry per canonical monomial: the closed and graph
    # routes keep x = 1 values only and scale other x on each call, and
    # monomials that differ by moving markings of equal a_i share one entry;
    # storing scaled values or non-canonical aliases would raise these counts
    omega._pairing_cache.clear()
    omega._config_cache.clear()
    reports = list(iter_suite(SMALL_GRID))
    assert len(reports) == 1061 and all(rep.passed for rep in reports)
    # `tautint verify --grid small` prints these lines (sha256 839aa8fa...0348
    # with its trailing newline)
    text = "\n".join(rep.to_json() for rep in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a8380e8dc37dec3ebf211caf4d6c14fb1124036db33bd6b725151904067e57ca"
    )
    assert len(omega._pairing_cache) == 315
    assert sum(map(len, omega._pairing_cache.values())) == 2166


def test_failing_reports_text(monkeypatch):
    # perturb every value the checks read by a fixed rational so that each
    # report-building path fails, and pin the got/details text of the failures
    pairings, integral, hodge = checks.omega_pairings, checks.omega_integral, checks.hodge_pair_by_degree
    first, second = checks.stirling_generalized_first, checks.stirling_generalized_second

    def bump(g, spec):
        # independent of s at genus 0, so zero_r_symmetry passes there and its
        # leaf variant is reached
        return F(sum(spec.a) + 1 + g * spec.s, 7)

    monkeypatch.setattr(
        checks,
        "omega_pairings",
        lambda g, n, spec, monos: {m: v + bump(g, spec) for m, v in pairings(g, n, spec, monos).items()},
    )
    monkeypatch.setattr(
        checks, "omega_integral", lambda g, n, spec, T=None: integral(g, n, spec, T) + bump(g, spec)
    )
    monkeypatch.setattr(
        checks, "hodge_pair_by_degree", lambda g, n, lam, buckets, mono: hodge(g, n, lam, buckets, mono) + F(1, 7)
    )
    monkeypatch.setattr(checks, "stirling_generalized_first", lambda k, m, t: first(k, m, t) + (m == k))
    monkeypatch.setattr(checks, "stirling_generalized_second", lambda k, m, t: second(k, m, t) + (m == k))
    grid = CheckGrid(max_dim=1, max_r=2, s_values=(-2, -1, 1, 2), x_values=(F(1),))
    reports = list(iter_suite(grid))
    failed = [rep for rep in reports if not rep.passed]
    assert len(reports) == 259 and len(failed) == 230
    assert {rep.check for rep in failed} == {rep.check for rep in reports}
    corollary = [d for rep in failed if rep.check == "vanishing_corollary" for d in rep.details]
    for head in ("product form", "inverse-product form", "stirling first", "stirling second"):
        assert any(d.startswith(head) for d in corollary)
    assert any(rep.got == "covered by vanishing_pullback_class" for rep in failed)

    def digest(reps):
        text = "\n".join(rep.to_json() + "\n" + json.dumps(rep.details) for rep in reps)
        return hashlib.sha256(text.encode()).hexdigest()

    # the footnote report is pinned on its own, so that its text can change
    # without moving the pin of the others
    footnote = [rep for rep in failed if rep.check == "counterexample_footnote"]
    assert digest([rep for rep in failed if rep.check != "counterexample_footnote"]) == (
        "4362a382e2844490a88952f8ba51821e6fad3a3cab99d43c649182a830941061"
    )
    assert digest(footnote) == "410007d0b48a85374ff07c3845da7fd1e8731cd3fe28c6c0e8a8ed8e40257c5d"


def test_linear_product_matches_polynomial_product():
    # the product and inverse in the ring, one multiply per root, as the
    # oracle of the coefficient-list recurrences
    def ring_product(n, i, trunc, roots, invert):
        unit, psi_i = (0,) * n, tuple(int(j == i) for j in range(1, n + 1))
        out = TautPolynomial.one(n, trunc)
        for t in roots:
            out = out * TautPolynomial(n, trunc, {((), unit): F(1), ((), psi_i): F(t)})
        if not invert:
            return out
        return TautPolynomial(n, trunc, series_inverse(out.terms, ((), unit), trunc, monomial_degree, monomial_product))

    root_lists = ([], [F(0)], [F(-2)], [F(-3, 2), F(1, 3)], [F(2, 3), F(2, 3)], [F(5, 4), F(0), F(-5, 4), 2])
    for n in range(1, 5):
        for trunc in range(7):
            for roots in root_lists:
                for invert in (False, True):
                    for i in {1, n}:
                        want = ring_product(n, i, trunc, roots, invert)
                        assert checks._linear_product(n, i, trunc, roots, invert) == want


@pytest.mark.parametrize(
    "k, d, failing",
    [
        (0, (1,), {"string"}),  # <psi^d> upstairs: the left side of the string row d
        (1, (1,), {"pullback", "dilaton"}),  # <psi^d psi_2>: pullback k=0 and dilaton, row d
        (1, (0,), {"pullback", "dilaton"}),
    ],
)
def test_one_wrong_pairing_fails_the_rows_that_read_it(monkeypatch, k, d, failing):
    # move one Mbar_{g,n+1} pairing by 10^-12: the rows that read it, and no
    # others, must fail, each with its own detail line; a cross-multiplication
    # of the wrong pair of numerators and denominators would not show this
    g, n, r, s, x = 1, 1, 2, 1, F(-1, 2)
    a = admissible_a(g, n, r, s)
    target, eps = ((), d + (k,)), F(1, 10**12)
    pairings = checks.omega_pairings

    def moved(g_, n_, spec, monos):
        out = pairings(g_, n_, spec, monos)
        if n_ == n + 1 and target in out:
            out[target] += eps
        return out

    true = pairings(g, n + 1, checks.OmegaSpec(r, s, a + (s,), x), [target])[target]
    monkeypatch.setattr(checks, "omega_pairings", moved)
    reports = {rep.check: rep for rep in _pullback_family(g, n, r, s, a, x)}
    assert {name for name, rep in reports.items() if not rep.passed} == failing
    row = f"d={d}: lhs={true + eps} rhs={true}"
    for name in failing:
        assert reports[name].details == [f"k=0 {row}" if name == "pullback" else row]
