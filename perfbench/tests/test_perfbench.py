"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import copy
import functools
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bindings() -> dict:
    """Identity of every attribute of every weylkit module and class."""
    out = {}
    for mname, mod in list(sys.modules.items()):
        if mname.split(".")[0] != "weylkit":
            continue
        for key, val in list(vars(mod).items()):
            out[(mname, key)] = id(val)
            if isinstance(val, type) and val.__module__ == mname:
                for ckey, cval in list(vars(val).items()):
                    out[(mname, key, ckey)] = id(cval)
    return out


def test_restore_puts_back_every_binding():
    from weylkit import cli, linalg, repthy, rootsys, sympoly

    before = _bindings()
    originals = {
        "sympoly.build_module": sympoly.build_module,
        "repthy.rref": repthy.rref,
        "Group.bracket_table": rootsys.Group.__dict__["bracket_table"],
        "Group.exp_ad": rootsys.Group.__dict__["exp_ad"],
        "cli.main": cli.main,
    }
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        assert sympoly.build_module is repthy.build_module
        assert sympoly.build_module is not originals["sympoly.build_module"]
        assert repthy.rref is linalg.rref is not originals["repthy.rref"]
        assert rootsys.Group.__dict__["exp_ad"] is not originals["Group.exp_ad"]
        wrapped = rootsys.Group.__dict__["bracket_table"]
        assert isinstance(wrapped, functools.cached_property)
        assert wrapped is not originals["Group.bracket_table"]
        g = rootsys.parse_group("A1")
        sympoly.build_module(g, (2,))
        assert tracer.summary()["repthy.build_module"]["calls"] == 1
    finally:
        tracer.restore()
    assert _bindings() == before
    assert sympoly.build_module is originals["sympoly.build_module"]
    assert rootsys.Group.__dict__["bracket_table"] is originals["Group.bracket_table"]
    assert cli.main is originals["cli.main"]


def test_self_time_subtracts_direct_children_only():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    leaf = tracer.wrap("leaf", lambda: tick(1.0))

    def _inner():
        tick(2.0)
        leaf()
        tick(0.5)

    inner = tracer.wrap("inner", _inner)

    def _outer():
        tick(3.0)
        inner()
        inner()
        tick(4.0)

    tracer.wrap("outer", _outer)()
    s = tracer.summary(outer=("outer", "inner"))
    assert s["leaf"] == {"calls": 2, "self_s": 2.0, "outer_s": 0.0}
    assert s["inner"]["calls"] == 2 and s["inner"]["self_s"] == 5.0
    assert s["inner"]["outer_s"] == 7.0
    assert s["outer"]["self_s"] == 7.0 and s["outer"]["outer_s"] == 14.0


def test_outer_time_counts_recursion_once_and_failed_calls_close():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def _rec(n):
        now[0] += 1.0
        if n:
            rec(n - 1)

    rec = tracer.wrap("rec", _rec)

    def _boom():
        now[0] += 2.0
        raise ValueError

    boom = tracer.wrap("boom", _boom)
    rec(2)
    with pytest.raises(ValueError):
        boom()
    s = tracer.summary(outer=("rec",))
    assert s["rec"] == {"calls": 3, "self_s": 3.0, "outer_s": 3.0}
    assert s["boom"]["self_s"] == 2.0
    assert tracer._stack == []


def _modules_counts(oracle):
    rows = (("A2", ((1, 1),)), ("A1+T1", ((8, 0),)))
    items = workloads.modules_build(5, rows)
    return workloads.modules_check(items, workloads.modules_run(items), oracle)


def test_flipped_multiplicity_raises_fail_frac():
    oracle = json.loads((BENCH / "oracle.json").read_text())
    attempted, failed = _modules_counts(oracle)
    assert (attempted, failed) == (6, 0)

    corrupt = copy.deepcopy(oracle)
    corrupt["modules"]["A2|1,1"]["cartan"] += 1
    attempted, failed = _modules_counts(corrupt)
    assert (attempted, failed) == (6, 1)

    rep = {"attempted": attempted, "failed": failed, "setup_s": 0.5, "run_rel": 25.0,
           "cpu_rel": 35.0, "maxrss_kb": 65536}
    res = run.result({"plain": [rep], "traced": [], "lost": 0}, trace=False)
    assert res["correct"] is False and res["failed"] == 1
    assert res["metrics"]["pass_frac"]["value"] == pytest.approx(1 - 1 / 6)


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == layers.metric_units()
    rep = {"attempted": 1, "failed": 0, "setup_s": 0.5, "run_rel": 25.0, "cpu_rel": 35.0, "maxrss_kb": 1024}
    printed = run.result({"plain": [rep], "traced": [], "lost": 0}, trace=False)["metrics"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in printed.items()
    }
