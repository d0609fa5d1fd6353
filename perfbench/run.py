"""tautint benchmark: one workload with cold caches, every metric by name.

    python3 perfbench/run.py --workload graph_sum --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout of the repository; it imports tautint from
the checkout's src/ and needs nothing installed.  Workloads: graph_sum,
closed_form, identity_suite (see perfbench/README.md for why each exists and
which layer moves which metric).

Each repetition is a fresh single-threaded interpreter (workload.py), started
one at a time, so every memo cache starts empty, as it does for each tautint
invocation.  --trace 0 runs repetitions for about --seconds (at least one)
and reports the median end-to-end metrics, with the times scaled to a
reference machine speed (see calibrate);
--trace 1 runs one untraced and one staged, traced repetition and reports the
per-layer metrics, with the gap between the two totals as trace.overhead_s.  The spans are
written to .bench_build/perfbench/.  Human-readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  Exits 2 when the checkout holds no src/tautint.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("graph_sum", "closed_form", "identity_suite")

SETUP_SAMPLES = 6
# one calibration point is the median of this many loops
CALIBRATION_LOOPS = 5
# the calibration loop's time at the reference speed that --trace 0 times are
# scaled to; the loop takes about 0.11 s on one core of a 2-vCPU Xeon VM
# under Python 3.11, where scaled times read about 10 % below wall time
REFERENCE_LOOP_S = 0.1
# the whole run must end within 180 s
HARD_LIMIT = 175.0

END_TO_END_UNITS = {
    "run_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "ratio",
}


class BenchError(RuntimeError):
    pass


def child_env(tmp: Path) -> dict[str, str]:
    """Environment of every child: the checkout's src/ only, a fixed hash
    seed, no persistent psi cache, bytecode (always written, as an installed
    package has it) and temp files under .bench_build."""
    dropped = ("TAUTINT_CACHE", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str(BUILD / "pycache"),
        TMPDIR=str(tmp),
    )
    return env


def run_process(cmd: list[str], env: dict[str, str], deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting a process")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:3]} did not finish within the run's time limit") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{' '.join(cmd[1:4])} exited with code {proc.returncode}")
    return proc


def time_setup(env: dict[str, str], deadline: float, count: int) -> list[float]:
    """Wall times of `count` interpreter starts plus `import tautint`."""
    cmd = [sys.executable, "-c", "import tautint"]
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        run_process(cmd, env, deadline)
        samples.append(time.perf_counter() - t0)
    return samples


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed pure-Python loop, the median of
    CALIBRATION_LOOPS runs in this process.

    The loop does the kind of work tautint does (Fraction arithmetic into a
    dict with tuple keys) and never touches tautint, so a change to the
    program cannot move it; only the machine's speed can.  On a shared
    2-vCPU VM that speed drifts by up to 40 % between quiet and busy periods,
    for wall and CPU time alike, so --trace 0 scales its times by
    REFERENCE_LOOP_S over the loop's time measured around the repetitions.
    """
    walls, cpus = [], []
    for _ in range(CALIBRATION_LOOPS):
        t0, c0 = time.perf_counter(), time.process_time()
        acc: dict[tuple[int, int], Fraction] = {}
        for i in range(40000):
            key = (i % 61, i % 7)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 13 + 1, i % 89 + 1)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    return statistics.median(walls), statistics.median(cpus)


def run_workload(args: list[str], env: dict[str, str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    out = run_process(cmd, env, deadline).stdout.strip().splitlines()
    if not out:
        raise BenchError("workload process printed no result")
    return json.loads(out[-1])


def commit_id() -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def machine_info() -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit_id(),
        "src_lines": src_lines,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def plain_run(base: list[str], env: dict[str, str], seconds: float, deadline: float):
    """Untraced repetitions; end-to-end metrics as medians at reference speed.

    A calibration point is taken before the set-up samples, before the first
    repetition and after each one.  The medians of the times are scaled by
    the median of the points, so one point taken in a short burst of machine
    noise moves nothing.
    """
    # one untimed start writes the bytecode cache; set-up samples are taken
    # before and after the repetitions, so both ends of the run are seen
    time_setup(env, deadline, 1)
    points = [calibrate()]
    setup = time_setup(env, deadline, SETUP_SAMPLES)
    # start another repetition while it is expected to end within `seconds`,
    # judged by the mean repetition so far
    loop_start = time.perf_counter()
    points.append(calibrate())
    reps = []
    while True:
        reps.append(run_workload(base, env, deadline))
        points.append(calibrate())
        now = time.perf_counter()
        mean_rep = (now - loop_start) / len(reps)
        if now - loop_start + mean_rep > seconds or now + 1.5 * mean_rep > deadline:
            break
    setup += time_setup(env, deadline, SETUP_SAMPLES)
    loop_s = statistics.median(wall for wall, _ in points)
    loop_cpu_s = statistics.median(cpu for _, cpu in points)
    print(f"repetitions: {len(reps)}  wall run_s: " + " ".join(f"{r['run_s']:.3f}" for r in reps))
    print("calibration loop s: " + " ".join(f"{wall:.4f}" for wall, _ in points))
    print(f"wall setup_s: {statistics.median(setup):.4f}")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    values = {
        "run_s": statistics.median(r["run_s"] for r in reps) * REFERENCE_LOOP_S / loop_s,
        "cpu_s": statistics.median(r["cpu_s"] for r in reps) * REFERENCE_LOOP_S / loop_cpu_s,
        "setup_s": statistics.median(setup) * REFERENCE_LOOP_S / loop_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "passed_frac": (attempted - failed) / attempted,
    }
    return reps, {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def traced_run(base: list[str], env: dict[str, str], tmp: Path, deadline: float, meta: dict):
    """One untraced and one traced repetition; per-layer metrics, spans to a file."""
    psi_file = tmp / "untraced.psi"
    plain = run_workload(base + ["--save-psi", str(psi_file)], env, deadline)
    traced = run_workload(base + ["--trace", "--psi-ref", str(psi_file)], env, deadline)
    values = {
        **traced["metrics"],
        **plain["cache"],
        "trace.overhead_s": traced["total_s"] - plain["run_s"],
    }
    trace_file = BUILD / f"trace-{meta['workload']}-seed{meta['seed']}.json"
    record = {
        "meta": meta,
        "inputs": traced["inputs"],
        "untraced_run_s": plain["run_s"],
        "traced_total_s": traced["total_s"],
        "spans": traced["spans"],
    }
    trace_file.write_text(json.dumps(record) + "\n")
    print(f"spans: {len(traced['spans'])} written to {trace_file.relative_to(ROOT)}")
    return [plain, traced], {
        name: metric(values[name], unit) for name, unit in traced["units"].items()
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    if not (ROOT / "src" / "tautint" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/tautint to benchmark", file=sys.stderr)
        return 2

    # on SIGTERM, unwind: subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.perf_counter() + HARD_LIMIT
    BUILD.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    try:
        env = child_env(tmp)
        meta = {"workload": ns.workload, "seed": ns.seed, "trace": ns.trace, **machine_info()}
        print("perfbench " + " ".join(f"{k}={v}" for k, v in meta.items()))
        base = ["--workload", ns.workload, "--seed", str(ns.seed)]
        if ns.trace:
            reps, metrics = traced_run(base, env, tmp, deadline, meta)
        else:
            reps, metrics = plain_run(base, env, ns.seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"inputs: {json.dumps(reps[0]['inputs'])}")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = all(r["correct"] for r in reps)
    print(f"correct: {str(correct).lower()}  attempted: {attempted}  failed: {failed}")
    for problem in [p for r in reps for p in r["problems"]][:12]:
        print(f"  failed: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
