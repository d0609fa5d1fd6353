#!/usr/bin/env python3
"""Print the Euler-characteristic and Masur-Veech tables side by side.

Every chi value is computed three times (closed form, Hodge-integral sum,
Omega-integral) and every volume twice; a mismatch raises immediately, so a
clean run doubles as a consistency sweep.

    python3 scripts/chi_mv_table.py --dimmax 5
"""

from __future__ import annotations

import argparse

from tautint.apps import CHI_ROUTES, chi, mv_normalization, mv_via_hodge, mv_via_omega
from tautint.psi import stable_types


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--gmax", type=int, default=3)
    ap.add_argument("--dimmax", type=int, default=5)
    args = ap.parse_args()

    print(f"{'(g,n)':>8}  {'chi':>14}  {'MV/pi^(6g-6+2n)':>18}  {'normalised MV':>16}")
    for g, n in stable_types(args.dimmax, args.gmax):
        values = {r: chi(g, n, r).value for r in CHI_ROUTES}
        assert len(set(values.values())) == 1, (g, n, values)
        volume = mv_via_omega(g, n).value
        assert volume == mv_via_hodge(g, n).value, (g, n)
        try:
            normalised = str(mv_normalization(g, n) * volume)
        except ValueError:
            normalised = "-"
        print(f"({g},{n})".rjust(8), f"{str(values['harer_zagier']):>14}", f"{str(volume):>18}", f"{normalised:>16}")


if __name__ == "__main__":
    main()
