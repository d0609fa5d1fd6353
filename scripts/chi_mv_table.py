#!/usr/bin/env python3
"""Print the Euler-characteristic and Masur-Veech tables side by side.

Every chi value is computed three times (closed form, Hodge-integral sum,
Omega-integral) and every volume twice; a mismatch stops the run with one
line on stderr and exit status 1, so a clean run doubles as a consistency
sweep.

    python3 scripts/chi_mv_table.py --dimmax 5
"""

from __future__ import annotations

import argparse
import sys

from tautint.apps import CHI_ROUTES, chi, mv_normalization, mv_via_hodge, mv_via_omega
from tautint.psi import stable_types


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--gmax", type=int, default=3)
    ap.add_argument("--dimmax", type=int, default=5)
    args = ap.parse_args()

    print(f"{'(g,n)':>8}  {'chi':>14}  {'MV/pi^(6g-6+2n)':>18}  {'normalised MV':>16}")
    for g, n in stable_types(args.dimmax, args.gmax):
        values = {r: chi(g, n, r).value for r in CHI_ROUTES}
        if len(set(values.values())) != 1:
            print(f"chi routes disagree at ({g},{n}): {values}", file=sys.stderr)
            return 1
        volume = mv_via_omega(g, n).value
        other = mv_via_hodge(g, n).value
        if volume != other:
            print(f"MV routes disagree at ({g},{n}): {volume} != {other}", file=sys.stderr)
            return 1
        try:
            normalised = str(mv_normalization(g, n) * volume)
        except ValueError:
            normalised = "-"
        print(f"({g},{n})".rjust(8), f"{str(values['harer_zagier']):>14}", f"{str(volume):>18}", f"{normalised:>16}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
