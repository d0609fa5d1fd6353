#!/usr/bin/env python3
"""Count the function calls of one cold perfbench workload run.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 scripts/call_count.py --workload graph_sum [--seed 0]

Run from the root of a checkout.  This runs `perfbench/workload.py
--workload W --seed S` in this process under cProfile, as `python
perfbench/workload.py` would run it, and prints one JSON line with the
workload, the seed, `calls` and the run's `correct` verdict.  `calls` is
the sum of `callcount` over `cProfile.Profile.getstats()`: every code object
counts.  The `total_calls` of `pstats.Stats` is not used, since it keeps one
code object per (file, line, name) label, so that several generator
expressions on one line drop calls in a way that follows their memory
addresses.  The count is a measure of work that does not depend on the
speed of the machine; CI and scripts/bench.py both take it from here.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import json
import runpy
import sys
from pathlib import Path


def count_calls(workload: str, seed: int) -> dict:
    script = Path("perfbench") / "workload.py"
    sys.argv = [str(script), "--workload", workload, "--seed", str(seed)]
    sys.path.insert(0, str(script.parent.resolve()))
    out = io.StringIO()
    prof = cProfile.Profile()
    with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
        prof.enable()
        try:
            runpy.run_path(str(script), run_name="__main__")
        finally:
            prof.disable()
    run = json.loads(out.getvalue().strip().splitlines()[-1])
    calls = sum(entry.callcount for entry in prof.getstats())
    return {"workload": workload, "seed": seed, "calls": calls, "correct": run["correct"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ns = ap.parse_args(argv)
    print(json.dumps(count_calls(ns.workload, ns.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
