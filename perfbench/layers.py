"""Which weylkit functions the traced run wraps, and the per-layer metrics.

Each span covers one public function or method at a layer boundary.  The
counters are computed from the functions' results, so they repeat exactly
for a seed: rref cells (sum of rows x cols), module-cache misses and their
dimensions, symmetric-power dictionary sizes, sampler trials and witnesses,
and quadrature nodes.  ``rootsys.group_setup_s`` is the time to first touch
the lazy Group tables (bracket table, Killing form, invariant form, Weyl
elements), counted once however the tables nest.
"""

from __future__ import annotations

import importlib

GROUP_SETUP = "rootsys.group_setup"
GROUP_TABLES = ("bracket_table", "killing_form", "invariant_form", "weyl_elements")

# (span name, module, class or None, attribute, reported span fields)
SPANS = (
    ("linalg.rref", "linalg", None, "rref", ("calls", "self_s")),
    ("linalg.SpanBasis.add", "linalg", "SpanBasis", "add", ("self_s",)),
    ("linalg.SpanBasis.express", "linalg", "SpanBasis", "express", ("self_s",)),
    ("repthy.build_module", "repthy", None, "build_module", ("calls", "self_s")),
    ("repthy.weight_multiplicities", "repthy", None, "weight_multiplicities", ("self_s",)),
    ("repthy.decompose_character", "repthy", None, "decompose_character", ("calls", "self_s")),
    ("rootsys.exp_ad", "rootsys", "Group", "exp_ad", ("calls", "self_s")),
    ("rootsys.bracket", "rootsys", "Group", "bracket", ("calls", "self_s")),
    ("sympoly.sym_power_characters", "sympoly", None, "sym_power_characters", ("self_s",)),
    ("sympoly.invariant_multiplicity", "sympoly", None, "invariant_multiplicity", ("calls", "self_s")),
    ("spherical.is_spherical_pair", "spherical", None, "is_spherical_pair", ("calls", "self_s")),
    ("spherical.verify_witness", "spherical", None, "verify_witness", ("self_s",)),
    ("spherical.classify_torus_fibration", "spherical", None, "classify_torus_fibration", ("self_s",)),
    ("involution.is_adapted", "involution", None, "is_adapted", ("self_s",)),
    ("involution.assemble_bundle_involution", "involution", None, "assemble_bundle_involution", ("self_s",)),
    ("harmonic.su2_quadrature", "harmonic", None, "su2_quadrature", ()),
    ("harmonic.rep_blocks", "harmonic", "QuadratureScheme", "rep_blocks", ("self_s",)),
    ("harmonic.block_operator", "harmonic", "QuadratureScheme", "block_operator", ("self_s",)),
    ("harmonic.verify_projector_algebra", "harmonic", None, "verify_projector_algebra", ("self_s",)),
    ("harmonic.project_su2", "harmonic", None, "project_su2", ("self_s",)),
    ("harmonic.project_torus", "harmonic", None, "project_torus", ("calls", "self_s")),
    ("catalog.compute_check", "catalog", None, "compute_check", ("calls", "self_s")),
    ("cli.main", "cli", None, "main", ("self_s",)),
)

COUNTS = (
    "linalg.rref.cells",
    "repthy.build_module.misses",
    "repthy.build_module.dim_sum",
    "sympoly.sym_power_characters.terms",
    "spherical.trials",
    "harmonic.quadrature.nodes",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, _, _, _, fields in SPANS:
        for f in fields:
            units[f"{span}.{f}"] = "count" if f == "calls" else "s"
    units.update({name: "count" for name in COUNTS})
    units["rootsys.group_setup_s"] = "s"
    units["spherical.trial_yield"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def _rref_cells(tracer, result):
    rows, cols = result[0].shape  # the reduced matrix keeps the input's shape
    tracer.counts["linalg.rref.cells"] += rows * cols


def _module_misses():
    seen = set()

    def on_result(tracer, module):
        key = (module.group.name, module.label)
        if key not in seen:
            seen.add(key)
            tracer.counts["repthy.build_module.misses"] += 1
            tracer.counts["repthy.build_module.dim_sum"] += module.dim

    return on_result


def _sym_power_terms(tracer, chars):
    tracer.counts["sympoly.sym_power_characters.terms"] += sum(len(c) for c in chars)


def _sampler_trials(tracer, result):
    cert = result.certificate
    if "trials_used" in cert:
        tracer.counts["spherical.trials"] += cert["trials_used"]
        tracer.counts["spherical.witnesses"] += 1
    elif cert.get("reason") == "sampling_exhausted":
        tracer.counts["spherical.trials"] += cert["trials"]


def _quadrature_nodes(tracer, q):
    tracer.counts["harmonic.quadrature.nodes"] += len(q.weights)


HOOKS = {
    "linalg.rref": _rref_cells,
    "sympoly.sym_power_characters": _sym_power_terms,
    "spherical.is_spherical_pair": _sampler_trials,
    "harmonic.su2_quadrature": _quadrature_nodes,
}


def targets() -> list:
    """(span name, owner, attribute, on_result) for ``Tracer.install``."""
    out = []
    for span, mod, cls, attr, _ in SPANS:
        owner = importlib.import_module(f"weylkit.{mod}")
        if cls is not None:
            owner = getattr(owner, cls)
        hook = _module_misses() if span == "repthy.build_module" else HOOKS.get(span)
        out.append((span, owner, attr, hook))
    group = importlib.import_module("weylkit.rootsys").Group
    out += [(GROUP_SETUP, group, attr, None) for attr in GROUP_TABLES]
    return out


def layer_values(summary: dict, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced process, except trace.overhead_s."""
    values = {}
    for span, _, _, _, fields in SPANS:
        row = summary.get(span, {"calls": 0, "self_s": 0.0})
        for f in fields:
            values[f"{span}.{f}"] = row[f]
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    values["rootsys.group_setup_s"] = summary.get(GROUP_SETUP, {}).get("outer_s", 0.0)
    trials = counts.get("spherical.trials", 0)
    values["spherical.trial_yield"] = counts.get("spherical.witnesses", 0) / trials if trials else 0.0
    return values
