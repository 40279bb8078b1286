"""The four benchmark workloads: inputs from a seed, the calls, the checks.

Each workload has ``build(seed)`` (inputs, made through weylkit's public
constructors; timed as set-up), ``run(inputs)`` (the calls users make) and
``check(inputs, observed, oracle)``, which returns (verdicts attempted,
verdicts failed).  A verdict that raises is recorded and counted as failed;
it never stops the run.

Per-process cost is kept near the same for every seed: seeds pick among
same-cost variants (a label or its dual, a torus charge, the order of the
builds and of the sampler's pairs, rotation seeds, polynomial
coefficients), so that the spread across seeds measures the program and
not the inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import numpy as np

from weylkit import cli, harmonic, repthy, spherical, sympoly
from weylkit.rootsys import Subalgebra, parse_group, standard_subalgebra

# ---- catalog: `weylkit catalog run --all`, the command users run to check
# the toolkit; the only workload reaching sympoly's Newton recursion,
# involution, fibration and cli, and one that reuses cached modules.


def catalog_expected_text(oracle: dict, seed: int) -> str:
    """The seed-0 document recorded at the oracle commit, with the echoed

    seed swapped in; nothing else in it depends on the seed."""
    return oracle["catalog"]["text"].replace('\n  "seed": 0,\n', f'\n  "seed": {seed},\n', 1)


def catalog_build(seed: int) -> dict:
    argv = ["catalog", "run", "--all", "--format", "structured", "--seed", str(seed)]
    return {"seed": seed, "argv": argv}


def catalog_run(inputs: dict) -> dict:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(inputs["argv"])
    except Exception as exc:  # a crash is a failed verdict, not an abort
        return {"rc": None, "text": buf.getvalue(), "error": repr(exc)}
    return {"rc": rc, "text": buf.getvalue()}


def catalog_check(inputs: dict, observed: dict, oracle: dict) -> tuple[int, int]:
    """One verdict per catalog row, plus one for exit 0 with byte-identical output."""
    expected_text = catalog_expected_text(oracle, inputs["seed"])
    expected_rows = json.loads(expected_text)["rows"]
    try:
        rows = json.loads(observed["text"])["rows"]
    except (ValueError, KeyError, TypeError):
        rows = []
    failed = sum(1 for i, row in enumerate(expected_rows) if i >= len(rows) or rows[i] != row)
    whole_ok = observed["rc"] == 0 and observed["text"] == expected_text
    return len(expected_rows) + 1, failed + (not whole_ok)


# ---- modules: cold dense-Fraction module construction in every supported
# type, then invariant multiplicities; repthy and linalg work only.

# (group, same-cost label variants); the seed picks one variant per row.
MODULE_ROWS = (
    ("A1", ((16,),)),
    ("A2", ((3, 0), (0, 3))),
    ("A2", ((1, 1),)),
    ("B2", ((2, 0),)),
    ("B2", ((0, 2),)),
    ("G2", ((0, 1),)),
    ("A1xA1", ((4, 2), (2, 4))),
    ("A1+T1", tuple((8, c) for c in (-2, -1, 0, 1, 2))),
)
MODULE_SUBALGEBRAS = ("cartan", "principal", "diagonal")


def module_key(group: str, label) -> str:
    return f"{group}|{','.join(str(x) for x in label)}"


def module_subalgebras(group) -> list[tuple[str, Subalgebra]]:
    subs = []
    for name in MODULE_SUBALGEBRAS:
        if name == "diagonal" and len(group.letters) != 2:
            continue
        subs.append((name, standard_subalgebra(group, name)))
    return subs


def modules_build(seed: int, rows=MODULE_ROWS) -> list:
    rng = random.Random(seed)
    picked = [(g, rng.choice(variants)) for g, variants in rows]
    rng.shuffle(picked)
    items = []
    for gname, label in picked:
        g = parse_group(gname)
        items.append((gname, g, label, module_subalgebras(g)))
    return items


def modules_run(items: list) -> dict:
    out = {}
    for gname, g, label, subs in items:
        row = {}
        try:
            row["dim"] = repthy.build_module(g, label).dim
            row["weyl_dim"] = repthy.weyl_dim(g, label)
            row["mult_sum"] = sum(repthy.weight_multiplicities(g, label).values())
        except Exception as exc:
            row["error"] = repr(exc)
        for name, h in subs:
            try:
                row[name] = sympoly.invariant_multiplicity(g, h, label)
            except Exception as exc:
                row[name] = repr(exc)
        out[module_key(gname, label)] = row
    return out


def modules_check(items: list, observed: dict, oracle: dict) -> tuple[int, int]:
    """Per module: dim = weyl_dim = summed multiplicities = recorded dim;

    per subalgebra: the recorded invariant multiplicity."""
    attempted = failed = 0
    for gname, _, label, subs in items:
        key = module_key(gname, label)
        want = oracle["modules"][key]
        got = observed.get(key, {})
        attempted += 1
        dims = {got.get("dim"), got.get("weyl_dim"), got.get("mult_sum")}
        failed += dims != {want["dim"]}
        for name, _ in subs:
            attempted += 1
            failed += got.get(name) != want[name]
    return attempted, failed


# ---- sampler: the sphericality sampler and witness replay; the only
# workload where rootsys.exp_ad dominates, and where work after an
# exhausted search (pairs that no sample certifies) shows.

SAMPLER_STANDARD = (
    ("A1", "cartan"), ("A1", "full"), ("A1", "nilradical"), ("A1xA1", "diagonal"),
    ("A2", "borel"), ("A2", "nilradical"), ("A2", "principal"),
    ("B2", "borel"), ("B2", "nilradical"), ("G2", "borel"), ("G2", "nilradical"),
    ("A2", "cartan"), ("G2", "cartan"),
)
# A closed Chevalley span that passes the dimension count yet has no dense
# Borel orbit, so every sample fails and the sampler runs all its trials.
# The B2 and G2 spans of this kind cost 3 s and 10 s a process: too few
# processes would fit in a run for its median to hold still.
SAMPLER_EXHAUSTING = (
    ("A1xA1", (("h", 0), ("e", (1, 0)))),
)


def sampler_pairs() -> list[tuple[str, str, object, bool]]:
    """(key, group name, subalgebra spec, exhausting)."""
    pairs = [(f"{g}|{name}", g, name, False) for g, name in SAMPLER_STANDARD]
    for g, gens in SAMPLER_EXHAUSTING:
        key = f"{g}|span:" + ";".join(f"{k}{w}" for k, w in gens).replace(" ", "")
        pairs.append((key, g, gens, True))
    return pairs


# The sampler's own seed stays fixed: the trial at which a witness turns up,
# and the size of its entries, follow that seed, and changing it moved a
# process's work by a third.  The workload seed orders the pairs instead.
SAMPLER_SEED = 0


def sampler_build(seed: int) -> dict:
    items = []
    for key, gname, spec, exhausting in sampler_pairs():
        g = parse_group(gname)
        if isinstance(spec, str):
            h = standard_subalgebra(g, spec)
        else:
            h = Subalgebra(g, [g.gen_vector(kind, which) for kind, which in spec])
        items.append((key, g, h, exhausting))
    random.Random(seed).shuffle(items)
    return {"seed": SAMPLER_SEED, "items": items}


def sampler_run(inputs: dict) -> dict:
    out = {}
    for key, g, h, _ in inputs["items"]:
        try:
            res = spherical.is_spherical_pair(g, h, seed=inputs["seed"])
            row = {"status": res.status}
            if res.status == "spherical":
                row["replays"] = spherical.verify_witness(g, h, res.certificate["witness"])
        except Exception as exc:
            row = {"status": repr(exc)}
        out[key] = row
    return out


def sampler_check(inputs: dict, observed: dict, oracle: dict) -> tuple[int, int]:
    """Recorded status, with a replaying witness when spherical; an

    exhausting pair passes with any status except spherical."""
    failed = 0
    for key, _, _, exhausting in inputs["items"]:
        got = observed.get(key, {})
        if exhausting:
            failed += got.get("status") not in ("not_spherical", "inconclusive")
            continue
        want = oracle["sampler"][key]
        ok = got.get("status") == want
        if want == "spherical":
            ok = ok and got.get("replays") is True
        failed += not ok
    return len(inputs["items"]), failed


# ---- harmonic: SU(2) projector algebra and finite isotypic series, plus
# torus Fourier series; floating point only, no Fraction.

SU2_BAND = 16
SU2_DEGREE_CAP = 8
SU2_POLYS = 8
TORUS_POLYS = ((2, 6, 6), (3, 4, 3))  # (rank, degree, how many)


def random_su2_poly(rng, degree: int):
    coeffs = {}
    for _ in range(2 * (degree + 1)):
        a = int(rng.integers(0, degree + 1))
        b = int(rng.integers(0, degree + 1 - a))
        coeffs[(a, b)] = complex(rng.standard_normal(), rng.standard_normal())
    return harmonic.su2_sample(coeffs)


def random_torus_poly(rng, rank: int, degree: int):
    coeffs = {}
    for _ in range(5 * rank):
        e = tuple(int(x) for x in rng.integers(-degree, degree + 1, size=rank))
        coeffs[e] = complex(rng.standard_normal(), rng.standard_normal())
    return harmonic.torus_sample(coeffs, rank)


def harmonic_build(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    polys = [random_su2_poly(rng, SU2_DEGREE_CAP) for _ in range(SU2_POLYS)]
    for rank, degree, count in TORUS_POLYS:
        polys += [random_torus_poly(rng, rank, degree) for _ in range(count)]
    return {"seed": seed, "q": harmonic.su2_quadrature(SU2_BAND), "polys": polys}


def expected_support(f) -> list:
    """Every monomial here lies in exactly one isotypic component: its

    total degree on C^2, its exponent on a torus."""
    if f.domain == "su2":
        return sorted({sum(k) for k, c in f.coeffs.items() if c})
    return sorted(k for k, c in f.coeffs.items() if c)


def harmonic_run(inputs: dict) -> dict:
    out = {}
    try:
        rep = harmonic.verify_projector_algebra(inputs["q"], SU2_DEGREE_CAP, seed=inputs["seed"])
        out["projector"] = (rep["within_tolerance"], rep["tolerance"])
    except Exception as exc:
        out["projector"] = repr(exc)
    series = []
    for f in inputs["polys"]:
        try:
            rep = harmonic.finite_series_check(f, inputs["q"] if f.domain == "su2" else None)
            series.append((rep.within_tolerance, rep.tolerance, rep.support))
        except Exception as exc:
            series.append(repr(exc))
    out["series"] = series
    return out


def harmonic_check(inputs: dict, observed: dict, oracle: dict) -> tuple[int, int]:
    """Within the pinned tolerances, and series support equal to the monomials' components."""
    tol = oracle["harmonic"]["tolerance"]
    failed = observed["projector"] != (True, tol["su2"])
    for f, got in zip(inputs["polys"], observed["series"]):
        failed += got != (True, tol[f.domain], expected_support(f))
    return 1 + len(inputs["polys"]), failed


WORKLOADS = {
    "catalog": (catalog_build, catalog_run, catalog_check),
    "modules": (modules_build, modules_run, modules_check),
    "sampler": (sampler_build, sampler_run, sampler_check),
    "harmonic": (harmonic_build, harmonic_run, harmonic_check),
}
