import hashlib
from fractions import Fraction as F
from math import factorial

from oracles import boundary_sum_unpruned, descending_vectors

from tautint import hodge
from tautint.apps import chi_via_omega
from tautint.hodge import (
    hodge_monomial,
    hodge_pair,
    lambda_dict_mul,
    lambda_total,
    lambda_total_inverse,
)
from tautint.polys import TautPolynomial, compositions, exp_kappa_series
from tautint.psi import is_stable, stable_types


def test_calibration_values():
    assert hodge_monomial(1, 1, (1,), (), (0,)) == F(1, 24)
    assert hodge_monomial(1, 1, (), (), (1,)) == F(1, 24)
    # Lambda(-1) on Mbar_{1,1}: -lambda_1
    assert -hodge_monomial(1, 1, (1,), (), (0,)) == F(-1, 24)


def test_rank_and_degree_gates():
    assert hodge_monomial(1, 2, (2,), (), (0, 0)) == 0  # lambda_2 beyond rank 1
    assert hodge_monomial(1, 1, (1,), (), (1,)) == 0  # degree mismatch
    assert hodge_monomial(0, 4, (1,), (), (0, 0, 0, 0)) == 0  # genus 0 has no lambdas


def test_classical_genus_two_values():
    assert hodge_monomial(2, 1, (2,), (), (2,)) == F(7, 5760)
    assert hodge_monomial(2, 1, (1,), (), (3,)) == F(1, 480)
    # lambda_g lambda_{g-1} evaluation on Mbar_2: int lambda_2 lambda_1 = 1/5760
    assert hodge_monomial(2, 0, (2, 1), (), ()) == F(1, 5760)


def test_mumford_relation_pairings():
    # Lambda(x) * Lambda(-x) pairs like 1 against every kappa/psi monomial
    from tautint.checks import flat_basis

    for (g, n) in [(1, 1), (1, 2), (2, 0), (2, 1)]:
        dim = 3 * g - 3 + n
        x = F(1)
        lam = lambda_dict_mul(lambda_total(x, g, dim), lambda_total(-x, g, dim), dim)
        for kap, psi in flat_basis(g, n):
            P = TautPolynomial.from_monomial(n, dim, kap, psi)
            got = hodge_pair(g, n, lam, P)
            want = hodge_pair(g, n, {(): F(1)}, P)
            assert got == want, (g, n, kap, psi)


def test_lambda_inverse_matches_linear_dual():
    # Lambda(x)^{-1} and Lambda(-x) pair identically (Mumford's relation)
    from tautint.checks import flat_basis

    for (g, n) in [(1, 2), (2, 0), (2, 1)]:
        dim = 3 * g - 3 + n
        for x in (F(1), F(-2), F(1, 3)):
            inv = lambda_total_inverse(x, g, dim)
            lin = lambda_total(-x, g, dim)
            for kap, psi in flat_basis(g, n):
                P = TautPolynomial.from_monomial(n, dim, kap, psi)
                assert hodge_pair(g, n, inv, P) == hodge_pair(g, n, lin, P)


def test_dilaton_onto_no_marked_points():
    # int_{2,1} lambda_2 lambda_1 psi_1 = (2g-2) int_{Mbar_2} lambda_2 lambda_1
    assert hodge_monomial(2, 1, (2, 1), (), (1,)) == F(1, 2880)
    assert hodge_monomial(2, 1, (2, 1), (), (1,)) == 2 * hodge_monomial(2, 0, (2, 1), (), ())


def test_hodge_digest_pinned():
    # every lambda multiset with parts <= g, kappa_1^0 or kappa_1^1 and sorted
    # psi exponents of complementary degree on each stable (g, n) with
    # 3g-3+n <= 7, n = 0 included, recomputed from empty memos; the digest
    # was recorded before the string and dilaton equations were applied to
    # lambda classes
    from tautint.psi import clear_cache

    hodge._hodge_core.cache_clear()
    clear_cache()
    h = hashlib.sha256()
    count = 0
    for g, n in stable_types(7):
        dim = 3 * g - 3 + n
        for deg in range(dim + 1):
            for parts in range(1 if deg else 0, deg + 1):
                for lam in descending_vectors(deg, parts, g):
                    if not all(lam):
                        continue
                    for kappa in ((), ((1, 1),)):
                        rest = dim - deg - len(kappa)
                        for psi in descending_vectors(rest, n, rest) if rest >= 0 else ():
                            v = hodge_monomial(g, n, lam, kappa, psi)
                            h.update(f"{g};{n};{lam};{kappa};{psi}={v}\n".encode())
                            count += 1
    assert count == 561
    assert h.hexdigest() == "bc0af90f4e0a6e3d1525f68a56595673dd147ab4de782fc7f6399100375ff63e"


def test_kappa_with_lambda():
    # int lambda_1 kappa_1 on Mbar_{1,2} agrees with the dilaton-style value
    assert hodge_monomial(1, 2, (1,), ((1, 1),), (0, 0)) == F(1, 24)
    # and through a polynomial pairing
    e = exp_kappa_series({1: F(1)}, 2, 2)
    got = hodge_pair(1, 2, {(1,): F(1)}, e)
    assert got == F(1, 24)


def test_hodge_psi_dilaton_consistency():
    # int lambda_1 psi_1 over Mbar_{1,2} = (2g-2+n)|_{(1,1)} * int lambda_1
    assert hodge_monomial(1, 2, (1,), (), (1, 0)) == hodge_monomial(1, 1, (1,), (), (0,))


def test_pruned_boundary_sum_matches_unpruned_oracle(monkeypatch):
    # every boundary sum reached by chi through the r = 1 closed form,
    # recomputed term by term with nothing skipped; dimension 7 reaches
    # genus 3, where lambda_3 brings in p_3 (m = 3)
    from tautint.omega import _pairing_cache

    reached = set()
    pruned = hodge._boundary_terms

    def record(g, n, lambdas, psi, m):
        reached.add((g, n, lambdas, psi, m))
        return pruned(g, n, lambdas, psi, m)

    monkeypatch.setattr(hodge, "_boundary_terms", record)
    hodge._hodge_core.cache_clear()
    _pairing_cache.clear()
    for g, n in stable_types(7):
        chi_via_omega(g, n)
    monkeypatch.undo()

    def integral(g, n, lambdas, psi):
        return hodge_monomial(g, n, lambdas, (), psi)

    assert {m for *_, m in reached} == {1, 3}
    for g, n, lambdas, psi, m in sorted(reached):
        want = boundary_sum_unpruned(integral, g, n, lambdas, psi, m)
        assert pruned(g, n, lambdas, psi, m) == want, (g, n, lambdas, psi, m)


def test_lambda_g_formula():
    # int lambda_g prod psi_i^{d_i} = binom(2g-3+n; d_1..d_n) * b_g
    b = {1: F(1, 24), 2: F(7, 5760), 3: F(31, 967680)}
    for g, bg in b.items():
        for n in range(1, 5):
            total = 2 * g - 3 + n
            for d in compositions(total, n, 0):
                multinomial = factorial(total)
                for di in d:
                    multinomial //= factorial(di)
                assert hodge_monomial(g, n, (g,), (), d) == multinomial * bg, (g, d)
