"""Shipped catalog of pairs, modules, and expected verdicts.

The file format is versioned JSON: human-diffable, loaded into validated
entries whose symbolic subalgebra names are expanded against the root
system.  Every expectation carries a provenance tag; loading refuses
anything tagged outside the three recognized kinds.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from importlib import resources

from .errors import (
    CatalogFormatError,
    DimensionCapError,
    ToolkitError,
    UnknownNameError,
)
from .involution import (
    assemble_bundle_involution,
    build_weyl_involution,
    fiber_character,
    fiber_restriction,
    fiber_trivial,
    is_adapted,
)
from .linalg import fr_input, fvec
from .rootsys import Group, Subalgebra, parse_group, standard_subalgebra
from .spherical import classify_torus_fibration, is_spherical_pair
from .sympoly import (
    DEFAULT_DEGREE_BOUND,
    MAX_MF_DEGREE,
    homog_coordinate_mf_crosscheck,
    is_mf_coordinate_ring,
)

SCHEMA_VERSION = 1
CHECKS = ("adapted", "fibration", "involution", "mf_truncated", "spherical")
PROVENANCES = ("trivial_dimension_count", "derived_oracle", "paper_statement")


@dataclass
class CatalogEntry:
    id: str
    group: str
    subalgebra: object = None  # symbolic name or {"span": [vector strings]}
    module: dict | None = None
    expected: dict = field(default_factory=dict)
    group_obj: Group = field(default=None, repr=False, compare=False)
    h: Subalgebra | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        out = {"id": self.id, "group": self.group}
        if self.subalgebra is not None:
            out["subalgebra"] = self.subalgebra
        if self.module is not None:
            out["module"] = self.module
        out["expected"] = self.expected
        return out


def default_catalog_path() -> str:
    env = os.environ.get("WEYLKIT_CATALOG")
    if env:
        return env
    return str(resources.files("weylkit") / "data" / "catalog.json")


def _clip(x) -> str:
    """A field from the file as an error message echoes it: at most 40
    characters of it, as ``linalg.fr_input`` does."""
    return repr(x[:40]) if isinstance(x, str) else repr(x)[:40]


def _expand_subalgebra(group: Group, spec) -> Subalgebra:
    if isinstance(spec, str):
        return standard_subalgebra(group, spec)
    if isinstance(spec, dict) and "span" in spec:
        rows = spec["span"]
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise CatalogFormatError(f"span {_clip(rows)} is not a list of vectors")
        vectors = []
        for row in rows:
            if len(row) != group.dim:
                raise CatalogFormatError(
                    f"span vector has {len(row)} entries, the algebra has dimension {group.dim}"
                )
            vectors.append(fvec([fr_input(str(x), CatalogFormatError) for x in row]))
        return Subalgebra(group, vectors, name="span")
    raise CatalogFormatError(f"subalgebra spec {_clip(spec)} is neither a name nor a span")


def _parse_summands(raw) -> list:
    return [(tuple(lab), int(mult)) for lab, mult in raw]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _validate_module(module, label: str) -> None:
    """Shape of the module fields that reach the computation as numbers:
    summand and ambient lists of [label, count] pairs with integer labels
    and positive counts, and an integer degree bound in 1..MAX_MF_DEGREE."""
    if not isinstance(module, dict):
        raise CatalogFormatError(f"entry {label}: module must be an object")
    for key in ("summands", "ambient"):
        pairs = module.get(key, [])
        if not isinstance(pairs, list):
            raise CatalogFormatError(f"entry {label}: {key} must be a list of [label, count] pairs")
        for pair in pairs:
            ok = isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], list)
            if not (ok and all(_is_int(x) for x in pair[0]) and _is_int(pair[1]) and pair[1] > 0):
                raise CatalogFormatError(
                    f"entry {label}: {key} entry {pair!r} is not [integer label, positive count]"
                )
    bound = module.get("degree_bound", DEFAULT_DEGREE_BOUND)
    if not (_is_int(bound) and 1 <= bound <= MAX_MF_DEGREE):
        raise CatalogFormatError(
            f"entry {label}: degree_bound {bound!r} is not an integer in 1..{MAX_MF_DEGREE}"
        )


def _validate_fiber(fiber, label: str) -> None:
    """A fiber is ["trivial"], ["character", [exact values]] or
    ["restriction", [integer label]].  A label past the dimension cap still
    loads; the run skips it."""
    shaped = isinstance(fiber, list) and (
        fiber == ["trivial"]
        or len(fiber) == 2 and fiber[0] in ("character", "restriction") and isinstance(fiber[1], list)
    )
    if not shaped or fiber[0] == "restriction" and not all(_is_int(x) for x in fiber[1]):
        raise CatalogFormatError(
            f'entry {label}: fiber {fiber!r} is not ["trivial"], ["character", [values]] '
            'or ["restriction", [integer label]]'
        )
    if fiber[0] == "character":
        for x in fiber[1]:
            fr_input(x, CatalogFormatError)


def _checks_applicable(entry: CatalogEntry) -> set:
    module = entry.module or {}
    out = set()
    if entry.subalgebra is not None:
        out |= {"spherical", "fibration", "adapted", "mf_truncated"}
        if "fiber" in module:
            out.add("involution")
    if "summands" in module:
        out.add("mf_truncated")
    return out


def _validate_entry(raw, position: int) -> CatalogEntry:
    if not isinstance(raw, dict):
        raise CatalogFormatError(f"entry #{position} is not an object")
    label = raw["id"][:40] if isinstance(raw.get("id"), str) else f"#{position}"
    for key, kind, name in (("id", str, "a string"), ("group", str, "a string"), ("expected", dict, "an object")):
        if key not in raw:
            raise CatalogFormatError(f"entry {label}: missing required field {key!r}")
        if not isinstance(raw[key], kind):
            raise CatalogFormatError(f"entry {label}: {key} {_clip(raw[key])} is not {name}")
    extra = set(raw) - {"id", "group", "subalgebra", "module", "expected"}
    if extra:
        raise CatalogFormatError(f"entry {label}: unknown fields {_clip(sorted(extra))}")
    entry = CatalogEntry(
        id=raw["id"],
        group=raw["group"],
        subalgebra=raw.get("subalgebra"),
        module=raw.get("module"),
        expected=raw["expected"],
    )
    try:
        entry.group_obj = parse_group(entry.group)
    except ToolkitError as exc:
        raise CatalogFormatError(f"entry {label}: bad group {_clip(entry.group)}: {exc}") from exc
    if entry.subalgebra is not None:
        # unknown symbolic names surface as their own error kind
        entry.h = _expand_subalgebra(entry.group_obj, entry.subalgebra)
    if entry.module is not None:
        _validate_module(entry.module, label)
    if "fiber" in (entry.module or {}):
        _validate_fiber(entry.module["fiber"], label)
    applicable = _checks_applicable(entry)
    for check, expectation in entry.expected.items():
        if check not in CHECKS:
            raise CatalogFormatError(f"entry {label}: unknown check {check!r}")
        if check not in applicable:
            raise CatalogFormatError(
                f"entry {label}: check {check!r} does not apply to this entry's shape"
            )
        if not isinstance(expectation, dict) or "verdict" not in expectation:
            raise CatalogFormatError(f"entry {label}: expectation for {check} needs a verdict")
        if expectation.get("provenance") not in PROVENANCES:
            raise CatalogFormatError(
                f"entry {label}: expectation for {check} carries provenance "
                f"{expectation.get('provenance')!r}, not one of {PROVENANCES}"
            )
        if "note" not in expectation:
            raise CatalogFormatError(f"entry {label}: expectation for {check} needs a note")
    return entry


def load_catalog(path: str | None = None) -> list[CatalogEntry]:
    path = path if path is not None else default_catalog_path()
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise CatalogFormatError(f"catalog file not found: {path}") from exc
    except OSError as exc:  # a directory, or a file this process may not read
        raise CatalogFormatError(f"catalog file cannot be read: {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise CatalogFormatError(
            f"catalog does not parse at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit, or bytes that are not text
        raise CatalogFormatError(f"catalog does not parse: {exc}") from exc
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != SCHEMA_VERSION:
        raise CatalogFormatError(f"expected schema_version {SCHEMA_VERSION}, got {_clip(version)}")
    raw_entries = doc.get("entries")
    if not isinstance(raw_entries, list):
        raise CatalogFormatError("catalog needs an entries list")
    entries = [_validate_entry(raw, i) for i, raw in enumerate(raw_entries)]
    seen = set()
    for e in entries:
        if e.id in seen:
            raise CatalogFormatError(f"duplicate entry id {_clip(e.id)}")
        seen.add(e.id)
    return entries


def serialize_catalog(entries: list[CatalogEntry]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "entries": [e.to_json() for e in entries],
    }


def _build_fiber(entry: CatalogEntry):
    desc = entry.module["fiber"]
    kind = desc[0]
    if kind == "trivial":
        return fiber_trivial(entry.group_obj, entry.h)
    if kind == "character":
        return fiber_character(entry.group_obj, entry.h, desc[1])
    if kind == "restriction":
        return fiber_restriction(entry.group_obj, entry.h, tuple(desc[1]))
    raise CatalogFormatError(f"entry {entry.id}: unknown fiber kind {kind!r}")


def compute_check(entry: CatalogEntry, check: str, seed: int = 0) -> str:
    """The computed verdict string for one check on one entry."""
    g = entry.group_obj
    module = entry.module or {}
    if check == "spherical":
        return is_spherical_pair(g, entry.h, seed=seed).status
    if check == "fibration":
        return classify_torus_fibration(g, entry.h).status
    if check == "adapted":
        report = is_adapted(g, entry.h, build_weyl_involution(g))
        return "adapted" if report.verdict else "not_adapted"
    if check == "mf_truncated":
        bound = module.get("degree_bound", DEFAULT_DEGREE_BOUND)
        if "summands" in module:
            return is_mf_coordinate_ring(g, _parse_summands(module["summands"]), bound).verdict
        ambient = _parse_summands(module["ambient"]) if "ambient" in module else None
        return homog_coordinate_mf_crosscheck(g, entry.h, bound, ambient=ambient).verdict
    if check == "involution":
        cert = assemble_bundle_involution(g, entry.h, _build_fiber(entry))
        return "verified" if all(cert.checks.values()) else "failed"
    raise UnknownNameError(f"unknown check {check!r}")


def run_catalog(
    entries: list[CatalogEntry],
    checks=None,
    seed: int = 0,
) -> dict:
    """Compute every selected expectation and tabulate agreement.

    Per-entry failures are recorded in the table rather than aborting the
    sweep; a dimension-cap hit is a skip with its reason, any other error
    becomes an "error:<code>" verdict that counts as a disagreement.
    Rows come out ordered by entry id, then check name.
    """
    selected = CHECKS if checks is None else tuple(checks)
    for c in selected:
        if c not in CHECKS:
            raise UnknownNameError(f"unknown check {c!r}; valid checks: {CHECKS}")
    rows = []
    for entry in sorted(entries, key=lambda e: e.id):
        for check in sorted(set(selected) & set(entry.expected)):
            expected = entry.expected[check]["verdict"]
            row = {
                "id": entry.id,
                "check": check,
                "expected": expected,
                "verdict": None,
                "agree": None,
                "skipped": False,
                "reason": None,
            }
            try:
                row["verdict"] = compute_check(entry, check, seed=seed)
                row["agree"] = row["verdict"] == expected
            except DimensionCapError as exc:
                row["skipped"] = True
                row["reason"] = str(exc)
            except ToolkitError as exc:
                row["verdict"] = f"error:{exc.code}"
                row["agree"] = row["verdict"] == expected
                row["reason"] = str(exc)
            rows.append(row)
    agreements = sum(1 for r in rows if r["agree"] is True)
    disagreements = sum(1 for r in rows if r["agree"] is False)
    skipped = sum(1 for r in rows if r["skipped"])
    errors = sum(1 for r in rows if r["verdict"] and str(r["verdict"]).startswith("error:"))
    return {
        "rows": rows,
        "summary": {
            "entries": len(entries),
            "checks_run": len(rows),
            "agreements": agreements,
            "disagreements": disagreements,
            "skipped": skipped,
            "errors": errors,
        },
    }
