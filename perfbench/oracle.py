"""Record the workloads' expected outputs from the current weylkit code.

    PYTHONPATH=src python3 perfbench/oracle.py

Writes perfbench/oracle.json.  It was run once on the commit that added the
benchmark, so later changes are checked against that code's verdicts.
Re-record only on purpose, when a change is meant to alter a verdict.
"""

from __future__ import annotations

import json

import workloads as w
from child import ORACLE
from weylkit import harmonic, repthy, spherical, sympoly
from weylkit.rootsys import parse_group


def record() -> dict:
    observed = w.catalog_run(w.catalog_build(0))
    if observed["rc"] != 0 or observed["text"].count('\n  "seed": 0,\n') != 1:
        raise SystemExit("catalog run at seed 0 did not agree or echo its seed once")
    modules = {}
    for gname, variants in w.MODULE_ROWS:
        g = parse_group(gname)
        for label in variants:
            row = {"dim": repthy.weyl_dim(g, label)}
            for name, h in w.module_subalgebras(g):
                row[name] = sympoly.invariant_multiplicity(g, h, label)
            modules[w.module_key(gname, label)] = row
    sampler = {}
    for key, g, h, exhausting in w.sampler_build(0)["items"]:
        sampler[key] = spherical.is_spherical_pair(g, h, seed=w.SAMPLER_SEED).status
    return {
        "catalog": {"text": observed["text"]},
        "modules": modules,
        "sampler": sampler,
        "harmonic": {"tolerance": {"su2": harmonic.ZERO_THRESHOLD, "torus": harmonic.TORUS_TOLERANCE}},
    }


if __name__ == "__main__":
    ORACLE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
