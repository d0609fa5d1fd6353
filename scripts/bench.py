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
- the graph-sum frontier, two batches of every basis monomial, kappa
  included: Omega(3, 0; 1,2,3,1,2,3,1,2) on Mbar_{0,8} and Omega(2, 0;
  1,2,1,2) on Mbar_{2,4}, where many psi vectors of an orbit meet one leg
  layout, each cold, its digest (perfbench's `pairing_digest` format)
  compared with a pinned one;
- the chi/MV frontier beyond dimension 10: chi by the hodge_sum route on
  (6,0), (7,0) and (8,0), MV by the hodge_sum route on (6,0), chi by the
  omega route on (5,2) and (7,0), and MV by the omega route on (7,0), each
  cold, chi checked against Harer-Zagier and MV against the value both MV
  routes give;
- the stable-graph enumeration frontier: `graph_orbits` on (3,3) with all
  colours equal, (4,1), (1,6) with all colours distinct, (0,8) with one equal
  pair and (0,8) with all colours distinct (the labelled genus-0 path), each
  cold, its orbit count and digest compared with pinned ones;
- the many-marking frontier, two `tautint omega` calls whose degree-9 test
  class reads only degree 2 of Omega on spaces with tens of thousands of
  graph orbits, each cold, its printed value compared with a pinned one;
- the full identity suite, one `python -m tautint verify --grid full` per
  side, cold: its wall time and peak RSS, taken from outside the child, and
  the sha256 of its stdout compared with the pinned report text;
- cold start: 20 starts each of `python -c "import tautint"`,
  `python -S -c "import tautint"` and `python -m tautint chi 1 1` (its stdout
  checked against -1/12), each timed from outside the child, with the
  median and quartiles of each.

With `--against` it also runs 12 alternating pairs of cold
`perfbench/workload.py --workload W --seed 0` runs per workload, each in a
fresh interpreter, and records per side the `run_s` of every run, their
median and quartiles, and the number of pairs in which that side was the
faster one: three runs per side cannot resolve a change of 10-30 %.  The
cold starts then alternate too, and record the same count of wins.

Beside the times it records a measure of the work that does not depend on
the machine: per workload, the function calls of one cold
`perfbench/workload.py --workload W --seed 0` run, as scripts/call_count.py
counts them (the count CI reports).
The file also records nproc, the Python version, the commit and
`wc -l src/tautint/*.py`.

    python3 scripts/bench.py [--checkout DIR] [--against DIR] [--out DIR]

`--checkout` defaults to this repository and `--out` to the checkout.  A
checkout whose src/ or perfbench/ differs from its HEAD commit is written as
BENCH_<short-commit>-dirty.json.  With `--against`, a second checkout is
measured in the same session, every run alternating between the two (A B,
B A, A B, ...) so that drift of the machine falls on both, and both files
are written.  Every run reads a fresh copy of its checkout's src/ and
perfbench/, each side at the same path depth under one temporary directory
and with its bytecode compiled before the first timed run, so that neither
the place of a checkout nor a cold bytecode cache reads as a difference
between the two; the commit and dirty flag come from the checkouts
themselves.  The script exits 1 when a checked value is wrong.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("graph_sum", "closed_form", "identity_suite")
CALL_COUNT = Path(__file__).resolve().parent / "call_count.py"
TRACE0_RUNS = 3
COLD_PAIRS = 12
COLD_STARTS = 20

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


# (name, g, n, r, a, sha256 of the pairings as perfbench's pairing_digest
# writes them): s = 0, every basis monomial, kappa included
GRAPH_SUM_FRONTIER = (
    ("Mbar_{0,8} r=3 s=0 a=(1,2,3,1,2,3,1,2)", 0, 8, 3, (1, 2, 3, 1, 2, 3, 1, 2),
     "8d4fb7d9734d53e5ffed927d9adf28929cd633ae1da3273d7a6cb20cb02524c9"),
    ("Mbar_{2,4} r=2 s=0 a=(1,2,1,2)", 2, 4, 2, (1, 2, 1, 2),
     "dc046dfd356c247fce11de511f06d1d99aa4ac1cb44ba8f6f15ee81618efd7d7"),
)

GRAPH_SUM_CASE = """
import hashlib, json, resource, time
from tautint.checks import flat_basis
from tautint.omega import OmegaSpec, omega_pairings

monos = flat_basis({g}, {n})
t0 = time.perf_counter()
values = omega_pairings({g}, {n}, OmegaSpec({r}, 0, {a!r}), monos)
t1 = time.perf_counter()
h = hashlib.sha256()
for mono in sorted(values):
    v = values[mono]
    h.update(f"{{mono!r}}={{v.numerator}}/{{v.denominator}}\\n".encode())
print(json.dumps({{
    "name": {name!r},
    "cold_s": t1 - t0,
    "monomials": len(monos),
    "digest": h.hexdigest(),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}}))
"""

# (name, expression, expected value): chi against Harer-Zagier, MV against
# the value both MV routes give
MV_70 = "Fraction(2988444945587149, 220150628352)"
CHI_MV_FRONTIER = (
    ("chi hodge_sum (6,0)", "chi_via_hodge(6, 0)", "chi_harer_zagier(6, 0).value"),
    ("mv hodge_sum (6,0)", "mv_via_hodge(6, 0)", "Fraction(51582017261473, 229323571200)"),
    ("chi omega (5,2)", "chi_via_omega(5, 2)", "chi_harer_zagier(5, 2).value"),
    ("chi hodge_sum (7,0)", "chi_via_hodge(7, 0)", "chi_harer_zagier(7, 0).value"),
    ("chi omega (7,0)", "chi_via_omega(7, 0)", "chi_harer_zagier(7, 0).value"),
    ("mv omega (7,0)", "mv_via_omega(7, 0)", MV_70),
    ("chi hodge_sum (8,0)", "chi_via_hodge(8, 0)", "chi_harer_zagier(8, 0).value"),
)

# (g, n, colours, orbit count, sha256 of the repr of the rows
# [(genera, legs, edges, |Aut_col|)] of graph_orbits)
ENUMERATION = (
    (3, 3, (0, 0, 0), 4041,
     "67ebb33958add83ae5b51100b35efd5206289620bdada0e5f487258512195fd7"),
    (4, 1, (0,), 2666,
     "dd4f5200ba321567289210fe13f05df1063150ba0ca622f251dd5270bb11aa25"),
    (1, 6, (0, 1, 2, 3, 4, 5), 19340,
     "fb4c0a429e57f6d0fb299f916bb0b816a7c2455e666371c9550f2e13b3b518bc"),
    (0, 8, (0, 0, 1, 2, 3, 4, 5, 6), 22356,
     "f15eeeb79e2f51ff32214754c56b8c83200d51f74c7ff6c5e7cb04157a28ba95"),
    (0, 8, (0, 1, 2, 3, 4, 5, 6, 7), 39208,
     "2241f8ee036b54f0f82dcb2cd0a092ecad4637fa2099eeeb8289a7a0f713ff94"),
)

ENUMERATION_CASE = """
import hashlib, json, resource, time
from tautint.graphs import graph_orbits

t0 = time.perf_counter()
orbits = graph_orbits({g}, {n}, {colours!r})
t1 = time.perf_counter()
rows = [(G.genera, G.legs, G.edges, aut) for G, aut in orbits]
print(json.dumps({{
    "name": "graph_orbits({g}, {n}, {colours!r})",
    "cold_s": t1 - t0,
    "orbits": len(rows),
    "digest": hashlib.sha256(repr(rows).encode()).hexdigest(),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}}))
"""

CHI_MV_CASE = """
import json, resource, time
from fractions import Fraction
from tautint.apps import chi_harer_zagier, chi_via_hodge, chi_via_omega, mv_via_hodge, mv_via_omega

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


# (name, tautint argv, expected stdout): a test class of degree 9 on spaces of
# dimension 11 and 12, so only the degree-2 part of Omega pairs with it
MANY_MARKING = (
    ("omega (2,6) a=(1,1,0,0,0,0) psi1^4*psi2^3",
     ["omega", "2", "6", "2", "0", "1,1,0,0,0,0", "--test-class", "psi1^4*psi2^3"], "55/576"),
    ("omega (1,9) a=(1,1,0,...,0) psi1^4*psi2^3",
     ["omega", "1", "9", "2", "0", "1,1,0,0,0,0,0,0,0", "--test-class", "psi1^4*psi2^3"], "0"),
)

# sha256 of the stdout of `tautint verify --grid full`, the pinned report text
VERIFY_FULL_DIGEST = "7dac257d7f02f1d17bdda1029718249ff6cc44a4d726f262c34cf98f2d2cc55b"

# (name, interpreter arguments, expected stdout): what every process that
# imports tautint pays before it computes anything
COLD_START = (
    ("import tautint", ["-c", "import tautint"], ""),
    ("-S import tautint", ["-S", "-c", "import tautint"], ""),
    ("tautint chi 1 1", ["-m", "tautint", "chi", "1", "1"], "-1/12\n"),
)

MANY_MARKING_CASE = """
import contextlib, io, json, resource, time
from tautint.cli import main

out = io.StringIO()
t0 = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = main({argv!r})
t1 = time.perf_counter()
print(json.dumps({{
    "name": {name!r},
    "cold_s": t1 - t0,
    "exit": code,
    "value": out.getvalue().strip(),
    "correct": code == 0 and out.getvalue() == {expected!r} + "\\n",
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


def call_count(checkout: Path, workload: str, env: dict[str, str]) -> dict:
    """The function calls of one cold workload.py run, by scripts/call_count.py,
    and whether the run's values were correct."""
    cmd = [sys.executable, str(CALL_COUNT), "--workload", workload, "--seed", "0"]
    run = last_json_line(cmd, checkout, {**env, "PYTHONPATH": str(checkout / "src")})
    return {"calls": run["calls"], "correct": run["correct"]}


def src_line_counts(checkout: Path) -> dict[str, int]:
    files = sorted(glob.glob(str(checkout / "src" / "tautint" / "*.py")))
    out = subprocess.run(["wc", "-l", *files], capture_output=True, text=True, check=True).stdout
    counts = {}
    for line in out.strip().splitlines():
        num, name = line.split(maxsplit=1)
        counts[name if name == "total" else Path(name).name] = int(num)
    return counts


def fresh_copy(checkout: Path, dest: Path, env: dict[str, str]) -> Path:
    """dest with a copy of the checkout's src/ and perfbench/, their bytecode
    compiled both beside the sources and under the cache prefix that
    perfbench/run.py gives its children."""
    for part in ("src", "perfbench"):
        shutil.copytree(checkout / part, dest / part, ignore=shutil.ignore_patterns("__pycache__"))
    prefix = dest / ".bench_build" / "perfbench" / "pycache"
    for extra in ({}, {"PYTHONPYCACHEPREFIX": str(prefix)}):
        cmd = [sys.executable, "-m", "compileall", "-q", "src", "perfbench"]
        subprocess.run(cmd, cwd=dest, env={**env, **extra}, check=True)
    return dest


def new_record(checkout: Path) -> dict:
    return {
        "commit": git(checkout, "rev-parse", "--short", "HEAD"),
        "dirty": bool(git(checkout, "status", "--porcelain", "--", "src", "perfbench")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "wc_l_src": src_line_counts(checkout),
        "perfbench": {},
        "frontier_graph_sum": [],
        "frontier_chi_mv": [],
        "frontier_enumeration": [],
        "frontier_many_marking": [],
        "call_counts": {},
        "cold_pairs": {},
        "cold_start": {},
    }


def bench_name(record: dict) -> str:
    return f"BENCH_{record['commit']}{'-dirty' if record['dirty'] else ''}"


def add_spread(entry: dict, times: list[float], theirs: list[float] | None) -> None:
    """The median and quartiles of times and, against the other side's times
    of the same runs, the number of pairs in which this side was faster."""
    entry["median"] = statistics.median(times)
    entry["quartiles"] = statistics.quantiles(times, n=4)
    if theirs is not None:
        entry["wins"] = sum(a < b for a, b in zip(times, theirs))
        entry["pairs"] = len(theirs)


def measure(sides: list[tuple[Path, dict]], env: dict[str, str]) -> list[dict]:
    """Run every benchmark on each (directory, record) side, alternating the
    order of the sides from one step to the next, and fill in the records."""
    turn = 0

    def each_side():
        """The sides, in alternating order per call."""
        nonlocal turn
        turn += 1
        return sides if turn % 2 else sides[::-1]

    def run_src(checkout: Path, cmd: list[str]) -> dict:
        """The final JSON line of cmd, run in the checkout on its src/."""
        return last_json_line(cmd, checkout, {**env, "PYTHONPATH": str(checkout / "src")})

    def run_case(checkout: Path, code: str) -> dict:
        return run_src(checkout, [sys.executable, "-c", code])

    def start(checkout: Path, args: list[str], expected: str) -> tuple[float, bool]:
        """The wall time of one interpreter start in the checkout, and whether
        it exited 0 with the expected stdout."""
        cmd, env_src = [sys.executable, *args], {**env, "PYTHONPATH": str(checkout / "src")}
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=checkout, env=env_src, capture_output=True, text=True)
        return time.perf_counter() - t0, proc.returncode == 0 and proc.stdout == expected

    def verify_full(checkout: Path) -> dict:
        """One cold `python -m tautint verify --grid full` in the checkout: its
        wall time, the peak RSS of that child alone (os.wait4), and whether it
        exited 0 with the pinned stdout."""
        cmd = [sys.executable, "-m", "tautint", "verify", "--grid", "full"]
        env_src = {**env, "PYTHONPATH": str(checkout / "src")}
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=checkout, env=env_src, stdout=subprocess.PIPE) as proc:
            digest = hashlib.sha256(proc.stdout.read()).hexdigest()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "name": "tautint verify --grid full",
            "cold_s": time.perf_counter() - t0,
            "digest": digest,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "correct": proc.returncode == 0 and digest == VERIFY_FULL_DIGEST,
        }

    for workload in WORKLOADS:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--trace"]
        for k in range(TRACE0_RUNS):
            for checkout, record in each_side():
                step = f"{workload} --trace 0 ({k + 1}/{TRACE0_RUNS})"
                print(f"{bench_name(record)}: {step}", flush=True)
                entry = record["perfbench"].setdefault(f"{workload}/trace0", {"runs": []})
                entry["runs"].append(last_json_line(cmd + ["0"], checkout, env))
        for checkout, record in each_side():
            print(f"{bench_name(record)}: {workload} --trace 1", flush=True)
            record["perfbench"][f"{workload}/trace1"] = last_json_line(cmd + ["1"], checkout, env)
    for checkout, record in each_side():
        print(f"{bench_name(record)}: frontier batch", flush=True)
        record["frontier"] = run_case(checkout, FRONTIER)
        record["frontier"]["correct"] = record["frontier"]["digest"] == FRONTIER_DIGEST
    for name, g, n, r, a, digest in GRAPH_SUM_FRONTIER:
        code = GRAPH_SUM_CASE.format(name=name, g=g, n=n, r=r, a=a)
        for checkout, record in each_side():
            print(f"{bench_name(record)}: {name}", flush=True)
            case = run_case(checkout, code)
            case["correct"] = case["digest"] == digest
            record["frontier_graph_sum"].append(case)
    for name, expr, expected in CHI_MV_FRONTIER:
        code = CHI_MV_CASE.format(name=name, expr=expr, expected=expected)
        for checkout, record in each_side():
            print(f"{bench_name(record)}: {name}", flush=True)
            record["frontier_chi_mv"].append(run_case(checkout, code))
    for g, n, colours, count, digest in ENUMERATION:
        code = ENUMERATION_CASE.format(g=g, n=n, colours=colours)
        for checkout, record in each_side():
            print(f"{bench_name(record)}: graph_orbits({g}, {n}, {colours})", flush=True)
            case = run_case(checkout, code)
            case["correct"] = case["orbits"] == count and case["digest"] == digest
            record["frontier_enumeration"].append(case)
    for name, argv, expected in MANY_MARKING:
        code = MANY_MARKING_CASE.format(name=name, argv=argv, expected=expected)
        for checkout, record in each_side():
            print(f"{bench_name(record)}: {name}", flush=True)
            record["frontier_many_marking"].append(run_case(checkout, code))
    for workload in WORKLOADS:
        for checkout, record in each_side():
            print(f"{bench_name(record)}: {workload} cProfile call count", flush=True)
            record["call_counts"][workload] = call_count(checkout, workload, env)
    if len(sides) == 2:
        for workload in WORKLOADS:
            cmd = [sys.executable, "perfbench/workload.py", "--workload", workload, "--seed", "0"]
            for k in range(COLD_PAIRS):
                for checkout, record in each_side():
                    step = f"{workload} cold ({k + 1}/{COLD_PAIRS})"
                    print(f"{bench_name(record)}: {step}", flush=True)
                    run = run_src(checkout, cmd)
                    entry = record["cold_pairs"].setdefault(workload, {"run_s": []})
                    entry["run_s"].append(run["run_s"])
                    entry["correct"] = entry.get("correct", True) and run["correct"]
        for (_, mine), (_, other) in zip(sides, sides[::-1]):
            for workload, entry in mine["cold_pairs"].items():
                add_spread(entry, entry["run_s"], other["cold_pairs"][workload]["run_s"])
    for checkout, record in each_side():
        print(f"{bench_name(record)}: verify --grid full", flush=True)
        record["frontier_verify"] = verify_full(checkout)
    for k in range(COLD_STARTS):
        for name, args, expected in COLD_START:
            for checkout, record in each_side():
                print(f"{bench_name(record)}: {name} ({k + 1}/{COLD_STARTS})", flush=True)
                wall, ok = start(checkout, args, expected)
                entry = record["cold_start"].setdefault(name, {"wall_s": [], "correct": True})
                entry["wall_s"].append(wall)
                entry["correct"] = entry["correct"] and ok
    for (_, mine), (_, other) in zip(sides, sides[::-1]):
        for name, entry in mine["cold_start"].items():
            theirs = other["cold_start"][name]["wall_s"] if len(sides) == 2 else None
            add_spread(entry, entry["wall_s"], theirs)
    return [record for _, record in sides]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--against", type=Path, default=None)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    checkouts = [args.checkout.resolve()]
    if args.against is not None:
        checkouts.append(args.against.resolve())
    dropped = ("PYTHONPATH", "TAUTINT_CACHE", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env["PYTHONHASHSEED"] = "0"
    with tempfile.TemporaryDirectory(prefix="tautint-bench-") as tmp:
        # the sides are named A and B, so their paths have one length
        sides = [
            (fresh_copy(checkout, Path(tmp).resolve() / name, env), new_record(checkout))
            for name, checkout in zip("AB", checkouts)
        ]
        records = measure(sides, env)
    status = 0
    for record in records:
        for workload in WORKLOADS:
            entry = record["perfbench"][f"{workload}/trace0"]
            runs = entry["runs"]
            entry["correct"] = all(run["correct"] for run in runs)
            entry["median"] = {
                name: statistics.median(run["metrics"][name]["value"] for run in runs)
                for name in runs[0]["metrics"]
            }
        out_dir = (args.out or checkouts[0]).resolve()
        path = out_dir / f"{bench_name(record)}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
        checks = [
            record["perfbench"][f"{w}/trace{t}"]["correct"] for w in WORKLOADS for t in (0, 1)
        ]
        checks.append(record["frontier"]["correct"])
        checks += [case["correct"] for case in record["frontier_graph_sum"]]
        checks += [case["correct"] for case in record["frontier_chi_mv"]]
        checks += [case["correct"] for case in record["frontier_enumeration"]]
        checks += [case["correct"] for case in record["frontier_many_marking"]]
        checks.append(record["frontier_verify"]["correct"])
        checks += [entry["correct"] for entry in record["call_counts"].values()]
        checks += [entry["correct"] for entry in record["cold_pairs"].values()]
        checks += [entry["correct"] for entry in record["cold_start"].values()]
        if not all(checks):
            print(f"{path.name}: a benchmarked value is wrong", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
