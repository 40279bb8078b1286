"""One benchmark process: import weylkit, build a workload's inputs, run it.

    python3 perfbench/child.py WORKLOAD SEED MODE

MODE is ``setup`` (import and build inputs, then report the environment),
``plain`` (run and check) or ``trace`` (the same with every layer span
recorded).  The last stdout line is a JSON object; its ``ready``,
``start`` and ``done`` stamps read the system-wide monotonic clock, which
the parent compares with the moment it spawned this process.  Between
``ready`` and ``start``, and again after ``done``, the process times the
reference task of ``reference.py``; its mean wall and CPU time are
reported, and its CPU time is left out of the process's.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import weylkit.cli  # noqa: F401  (the import users pay on every call)

import layers
import reference
import workloads
from tracer import Tracer

ORACLE = Path(__file__).resolve().parent / "oracle.json"


def environment() -> dict:
    import numpy
    import sympy

    try:
        import gmpy2  # noqa: F401
        gmpy2_absent = False
    except ImportError:
        gmpy2_absent = True
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "gmpy2_absent": gmpy2_absent,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    build, run, check = workloads.WORKLOADS[name]
    oracle = json.loads(ORACLE.read_text())
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install(layers.targets())
    inputs = build(seed)
    ready = time.monotonic()
    out = {"ready": ready}
    ref = []
    if mode == "setup":
        out["env"] = environment()
    else:
        ref += reference.sample()
        out["start"] = time.monotonic()
        attempted, failed = check(inputs, run(inputs), oracle)
        out.update(done=time.monotonic(), attempted=attempted, failed=failed)
        if tracer is not None:
            summary = tracer.summary(outer=(layers.GROUP_SETUP,))
            out["layers"] = layers.layer_values(summary, tracer.counts)
        ref += reference.sample()
        out["ref_s"] = sum(w for w, _ in ref) / len(ref)
        out["ref_cpu_s"] = sum(c for _, c in ref) / len(ref)
    ru = resource.getrusage(resource.RUSAGE_SELF)
    out["cpu_s"] = ru.ru_utime + ru.ru_stime - sum(c for _, c in ref)
    out["maxrss_kb"] = ru.ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
