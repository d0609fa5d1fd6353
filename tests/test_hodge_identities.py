"""Hodge integrals against closed formulas and independent expansions that no
pinned digest reaches."""

from fractions import Fraction as F
from math import factorial

from oracles import added_point_terms_by_compositions, descending_vectors

from tautint.exact import bernoulli_number
from tautint.hodge import hodge_monomial
from tautint.psi import stable_types


def test_faber_lambda_top_minus_one_cubed():
    # int_{Mbar_g} lambda_{g-1}^3 = |B_{2g}| |B_{2g-2}| / (2g (2g-2) (2g-2)!)
    # (Faber-Pandharipande, arXiv:math/9810173): the multi-lambda Newton
    # recursion at genera up to 5
    for g in range(2, 6):
        want = abs(bernoulli_number(2 * g) * bernoulli_number(2 * g - 2)) / (
            2 * g * (2 * g - 2) * factorial(2 * g - 2)
        )
        assert hodge_monomial(g, 0, (g - 1,) * 3) == want, g
    assert hodge_monomial(2, 0, (1, 1, 1)) == F(1, 2880)


def test_kappa_branch_matches_added_point_compositions():
    # int lambda * kappa * psi = sum c int lambda * psi * prod psi^{mu_j+1} on
    # len(mu) added points, c and mu from the expansion over ordered
    # compositions: every stable (g, n) with 3g-3+n <= 6, every lambda
    # multiset (the empty one too), kappa monomials of degree 1 to 3
    kappas = [((1, 1),), ((1, 2),), ((2, 1),), ((1, 3),), ((1, 1), (2, 1)), ((3, 1),)]
    count = 0
    for g, n in stable_types(6):
        dim = 3 * g - 3 + n
        for kappa in kappas:
            kdeg = sum(m * e for m, e in kappa)
            terms = added_point_terms_by_compositions(kappa)
            for ldeg in range(dim - kdeg + 1):
                for parts in range(1 if ldeg else 0, ldeg + 1):
                    for lam in descending_vectors(ldeg, parts, g):
                        if not all(lam):
                            continue
                        rest = dim - kdeg - ldeg
                        for psi in descending_vectors(rest, n, rest):
                            want = sum(
                                c * hodge_monomial(
                                    g, n + len(mu), lam, (), psi + tuple(m + 1 for m in mu)
                                )
                                for c, mu in terms
                            )
                            assert hodge_monomial(g, n, lam, kappa, psi) == want, (
                                g, n, lam, kappa, psi
                            )
                            count += 1
    assert count == 381
