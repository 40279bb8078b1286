"""weylkit benchmark: each workload in fresh interpreters, timed from outside.

    python3 perfbench/run.py --workload {catalog,modules,sampler,harmonic}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; weylkit is imported from its ``src``.
Every process is a cold CLI-like start, because weylkit's module, group and
multiplicity caches live for one process.  One untimed ``setup`` process
first compiles the bytecode and reports the environment.  Then processes
run one after another (closed loop, one at a time) until S seconds are
used, each with OMP_NUM_THREADS=1 and OPENBLAS_NUM_THREADS=1.

``--trace 0`` prints the end-to-end metrics, medians over the processes:
set-up wall time (spawn until ``weylkit.cli`` is imported and the inputs
are built), peak RSS of the process, the share of verdicts that agree
with ``oracle.json``, and two ratios: the run's wall time (the calls and
the check of every verdict) and the process's CPU time, each divided by
the time of a fixed reference task the same process timed around its run
(``reference.py`` says why).  The raw medians are in the environment
line.

``--trace 1`` alternates plain and traced processes and prints the
per-layer metrics of ``layers.py`` (medians of the traced ones) plus
``trace.overhead_s``, the traced minus the plain median run time.

The last stdout line is the JSON result; the line before it records the
environment, the seed and every process's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalog", "modules", "sampler", "harmonic")
HARD_LIMIT_S = 165  # a run must end within 180 s
MIN_PLAIN = 3
RAW = ("setup_s", "run_s", "cpu_s", "ref_s", "ref_cpu_s", "maxrss_kb")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("WEYLKIT_CATALOG", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def spawn(workload: str, seed: int, mode: str, timeout: float) -> dict | None:
    """Run one child; its parsed report with spawn-relative times, or None."""
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"{mode} process timed out", file=sys.stderr)
        return None
    wall = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    try:
        rep = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        rep = None
    if rep is None:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    rep["setup_s"] = rep["ready"] - spawned
    if "done" in rep:
        rep["run_s"] = rep["done"] - rep["start"]
        rep["run_rel"] = rep["run_s"] / rep["ref_s"]
        rep["cpu_rel"] = rep["cpu_s"] / rep["ref_cpu_s"]
    rep["wall_s"] = wall
    return rep


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    warm = spawn(workload, seed, "setup", HARD_LIMIT_S)
    if warm is None:
        raise SystemExit(f"{workload}: the set-up process failed")
    plain: list[dict] = []
    traced: list[dict] = []
    lost = 0
    t0 = time.monotonic()
    modes = ("plain", "trace") if trace else ("plain",)
    while True:
        for mode in modes:
            left = HARD_LIMIT_S - (time.monotonic() - started)
            rep = spawn(workload, seed, mode, left)
            if rep is None:
                lost += 1
            else:
                (traced if mode == "trace" else plain).append(rep)
        walls = [r["wall_s"] for r in plain + traced] or [0.0]
        cycle = statistics.median(walls) * len(modes)
        elapsed = time.monotonic() - t0
        if time.monotonic() - started + cycle > HARD_LIMIT_S:
            break
        if elapsed + cycle > seconds and (trace or len(plain) >= MIN_PLAIN):
            break
    return {"env": warm["env"], "plain": plain, "traced": traced, "lost": lost}


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def result(m: dict, trace: bool) -> dict:
    done = m["plain"] + m["traced"]
    # a process that crashed counts as one failed verdict
    attempted = sum(r["attempted"] for r in done) + m["lost"]
    failed = sum(r["failed"] for r in done) + m["lost"]
    if not m["plain"] or (trace and not m["traced"]):
        raise SystemExit("no process finished; nothing to report")
    if trace:
        import layers

        units = layers.metric_units()
        values = {
            name: statistics.median(r["layers"][name] for r in m["traced"])
            for name in units if name != "trace.overhead_s"
        }
        values["trace.overhead_s"] = median_of(m["traced"], "run_s") - median_of(m["plain"], "run_s")
    else:
        units = {"setup_s": "s", "run_rel": "ref", "cpu_rel": "ref", "peak_rss_mb": "MB", "pass_frac": "ratio"}
        values = {
            "setup_s": median_of(m["plain"], "setup_s"),
            "run_rel": median_of(m["plain"], "run_rel"),
            "cpu_rel": median_of(m["plain"], "cpu_rel"),
            "peak_rss_mb": median_of(m["plain"], "maxrss_kb") / 1024.0,
            "pass_frac": 1.0 - failed / attempted,
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "weylkit" / "cli.py").is_file():
        print(f"no weylkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "processes": {"plain": len(m["plain"]), "traced": len(m["traced"]), "lost": m["lost"]},
        "medians": {k: median_of(m["plain"], k) for k in RAW},
        "samples": {k: [r[k] for r in m["plain"]] for k in RAW},
        **m["env"],
    }
    res = result(m, bool(args.trace))
    print("env " + json.dumps(info, sort_keys=True))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
