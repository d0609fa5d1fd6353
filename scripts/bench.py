#!/usr/bin/env python3
"""Record a benchmark snapshot of a checkout as BENCH_<short-commit>.json.

For each perfbench workload this runs `perfbench/run.py --seed 0` three times
with `--trace 0` (end-to-end medians), keeping the final JSON line of every
run and the median of each metric over the three, and once with `--trace 1`
(per-layer metrics).  It then times, each in a fresh interpreter with its
value checked:

- the frontier graph-sum batch, the 84 psi pairings of Omega(7, 0; 1, 2, 4)
  on Mbar_{2,3}: once cold, and once warm, by repeating the call in the same
  process (a warm time far from zero means a memo has stopped working), its
  digest compared with the one the test suite pins;
- the chi/MV frontier beyond dimension 10: chi by the hodge_sum route on
  (6,0), MV by the hodge_sum route on (6,0) and chi by the omega route on
  (5,2), each cold.

The file also records nproc, the Python version, the commit and
`wc -l src/tautint/*.py`.

    python3 scripts/bench.py [--checkout DIR] [--out DIR]

`--checkout` defaults to this repository and `--out` to the checkout.  A
checkout whose src/ or perfbench/ differs from its HEAD commit is written as
BENCH_<short-commit>-dirty.json.  The script exits 1 when a checked value
is wrong.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("graph_sum", "closed_form", "identity_suite")
TRACE0_RUNS = 3

# the digest that tests/test_omega.py::PINNED_BATCHES pins for this batch (M23-r7)
FRONTIER_DIGEST = "05645631499edc2b9844995c8e6e4846fb0d15df5c6d553399d94d61fe5c3fbf"

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


# (name, expression, expected value): chi against Harer-Zagier, MV against
# the value both MV routes give
CHI_MV_FRONTIER = (
    ("chi hodge_sum (6,0)", "chi_via_hodge(6, 0)", "chi_harer_zagier(6, 0).value"),
    ("mv hodge_sum (6,0)", "mv_via_hodge(6, 0)", "Fraction(51582017261473, 229323571200)"),
    ("chi omega (5,2)", "chi_via_omega(5, 2)", "chi_harer_zagier(5, 2).value"),
)

CHI_MV_CASE = """
import json, resource, time
from fractions import Fraction
from tautint.apps import chi_harer_zagier, chi_via_hodge, chi_via_omega, mv_via_hodge

t0 = time.perf_counter()
value = ({expr}).value
t1 = time.perf_counter()
print(json.dumps({{
    "name": {name!r},
    "cold_s": t1 - t0,
    "value": str(value),
    "correct": value == {expected},
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}}))
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
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--trace"]
        runs = []
        for k in range(TRACE0_RUNS):
            print(f"{workload} --trace 0 ({k + 1}/{TRACE0_RUNS})", flush=True)
            runs.append(last_json_line(cmd + ["0"], checkout, env))
        record["perfbench"][f"{workload}/trace0"] = {
            "runs": runs,
            "correct": all(run["correct"] for run in runs),
            "median": {
                name: statistics.median(run["metrics"][name]["value"] for run in runs)
                for name in runs[0]["metrics"]
            },
        }
        print(f"{workload} --trace 1", flush=True)
        record["perfbench"][f"{workload}/trace1"] = last_json_line(cmd + ["1"], checkout, env)
    src_env = {**env, "PYTHONPATH": str(checkout / "src")}
    print("frontier batch", flush=True)
    record["frontier"] = last_json_line([sys.executable, "-c", FRONTIER], checkout, src_env)
    record["frontier"]["correct"] = record["frontier"]["digest"] == FRONTIER_DIGEST
    record["frontier_chi_mv"] = []
    for name, expr, expected in CHI_MV_FRONTIER:
        print(name, flush=True)
        code = CHI_MV_CASE.format(name=name, expr=expr, expected=expected)
        record["frontier_chi_mv"].append(last_json_line([sys.executable, "-c", code], checkout, src_env))

    out_dir = (args.out or checkout).resolve()
    path = out_dir / f"BENCH_{commit}{'-dirty' if dirty else ''}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    checks = [record["perfbench"][f"{w}/trace0"]["correct"] for w in WORKLOADS]
    checks += [record["perfbench"][f"{w}/trace1"]["correct"] for w in WORKLOADS]
    checks.append(record["frontier"]["correct"])
    checks += [case["correct"] for case in record["frontier_chi_mv"]]
    if not all(checks):
        print("a benchmarked value is wrong", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
