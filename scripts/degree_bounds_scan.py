#!/usr/bin/env python3
"""Scan the Riemann-Roch degree bounds for Omega classes.

Finds parameter tuples where the bound bites below the dimension (the
non-vacuous cases) and verifies the predicted vanishing of the graded
pairings there.  Exits 1 when any case prints FAIL.

    python3 scripts/degree_bounds_scan.py --dimmax 2 --rmax 3
"""

from __future__ import annotations

import argparse
import sys
from itertools import product

from tautint.checks import degree_bound_check
from tautint.omega import OmegaSpec
from tautint.psi import is_stable


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dimmax", type=int, default=2)
    ap.add_argument("--rmax", type=int, default=3)
    args = ap.parse_args()
    failed = 0

    # genus-zero (section-free) bound: s = 0, positive a_i
    for n in range(3, args.dimmax + 4):
        if 3 * 0 - 3 + n > args.dimmax:
            continue
        for r in range(2, args.rmax + 1):
            for a in product(range(1, r + 1), repeat=n):
                if sum(a) % r != 0:
                    continue
                rep = degree_bound_check(0, n, OmegaSpec(r, 0, a), "jkv")
                failed += not rep.passed
                tag = "vacuous" if "vacuous" in rep.got else "NONVACUOUS"
                print(f"jkv        (0,{n}) r={r} a={a}: {'ok' if rep.passed else 'FAIL'} [{tag}]")

    # negative-s bound
    for g in range(0, 2):
        for n in range(0, args.dimmax + 4):
            if not is_stable(g, n) or 3 * g - 3 + n > args.dimmax or n == 0:
                continue
            for r in range(2, args.rmax + 1):
                for s in (-1, -2):
                    for a in product(range(1, r + 1), repeat=n):
                        if (sum(a) - (2 * g - 2 + n) * s) % r != 0:
                            continue
                        rep = degree_bound_check(g, n, OmegaSpec(r, s, a), "negative-s")
                        failed += not rep.passed
                        tag = "vacuous" if "vacuous" in rep.got else "NONVACUOUS"
                        print(
                            f"negative-s ({g},{n}) r={r} s={s} a={a}: "
                            f"{'ok' if rep.passed else 'FAIL'} [{tag}]"
                        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
