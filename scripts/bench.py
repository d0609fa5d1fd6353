#!/usr/bin/env python3
"""Record a benchmark snapshot of a checkout as BENCH_<short-commit>.json.

For each perfbench workload this runs `perfbench/run.py --seed 0` with
`--trace 0` (end-to-end medians) and with `--trace 1` (per-layer metrics) and
keeps the final JSON line of each.  It then times the frontier graph-sum batch,
the 84 psi pairings of Omega(7, 0; 1, 2, 4) on Mbar_{2,3}, in a fresh
interpreter: once cold, and once warm, by repeating the call in the same
process (a warm time far from zero means a memo has stopped working).  The
file also records nproc, the Python version, the commit and
`wc -l src/tautint/*.py`.

    python3 scripts/bench.py [--checkout DIR] [--out DIR]

`--checkout` defaults to this repository and `--out` to the checkout.  A
checkout whose src/ or perfbench/ differs from its HEAD commit is written as
BENCH_<short-commit>-dirty.json.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("graph_sum", "closed_form", "identity_suite")

FRONTIER = """
import hashlib, json, resource, time
from tautint.checks import flat_basis
from tautint.omega import OmegaSpec, omega_pairings

def batch():
    return omega_pairings(2, 3, OmegaSpec(7, 0, (1, 2, 4)), flat_basis(2, 3, include_kappa=False))

t0 = time.perf_counter()
values = batch()
t1 = time.perf_counter()
batch()
t2 = time.perf_counter()
h = hashlib.sha256()
for mono in sorted(values):
    v = values[mono]
    h.update(f"{mono!r}={v.numerator}/{v.denominator}\\n".encode())
print(json.dumps({
    "name": "Mbar_{2,3} r=7 s=0 a=(1,2,4), 84 psi monomials",
    "cold_s": t1 - t0,
    "warm_s": t2 - t1,
    "digest": h.hexdigest(),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def last_json_line(cmd: list[str], cwd: Path, env: dict[str, str]) -> dict:
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"failed: {' '.join(cmd)}")
    return json.loads(lines[-1])


def src_line_counts(checkout: Path) -> dict[str, int]:
    files = sorted(glob.glob(str(checkout / "src" / "tautint" / "*.py")))
    out = subprocess.run(["wc", "-l", *files], capture_output=True, text=True, check=True).stdout
    counts = {}
    for line in out.strip().splitlines():
        num, name = line.split(maxsplit=1)
        counts[name if name == "total" else Path(name).name] = int(num)
    return counts


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    commit = git(checkout, "rev-parse", "--short", "HEAD")
    dirty = bool(git(checkout, "status", "--porcelain", "--", "src", "perfbench"))
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "TAUTINT_CACHE")}
    env["PYTHONHASHSEED"] = "0"

    record: dict = {
        "commit": commit,
        "dirty": dirty,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "wc_l_src": src_line_counts(checkout),
        "perfbench": {},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
                "--trace", str(trace),
            ]
            print(f"{workload} --trace {trace}", flush=True)
            record["perfbench"][f"{workload}/trace{trace}"] = last_json_line(cmd, checkout, env)
    print("frontier batch", flush=True)
    record["frontier"] = last_json_line(
        [sys.executable, "-c", FRONTIER], checkout, {**env, "PYTHONPATH": str(checkout / "src")}
    )

    out_dir = (args.out or checkout).resolve()
    path = out_dir / f"BENCH_{commit}{'-dirty' if dirty else ''}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
