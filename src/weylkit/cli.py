"""Command-line front end over the toolkit's checks.

Every verb takes --seed (default 0) and echoes it, so randomized
certificates can be replayed, and --format structured emits sorted JSON
that is byte-identical across runs with the same arguments.  Exit codes:
0 for a computed verdict (catalog: all expectations met), 1 for
disagreements or computation failures, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from .catalog import CHECKS, default_catalog_path, load_catalog, run_catalog
from .errors import DegenerateInputError, ParseError, ToolkitError
from .harmonic import (
    finite_series_check,
    su2_quadrature,
    su2_sample,
    torus_sample,
    verify_projector_algebra,
)
from .involution import (
    assemble_bundle_involution,
    fiber_character,
    fiber_restriction,
    fiber_trivial,
)
from .linalg import fr_input, fvec
from .repthy import check_label, decompose_character
from .rootsys import MAX_RANK, Group, Subalgebra, parse_group, standard_subalgebra
from .spherical import DEFAULT_TRIALS, MAX_TRIALS, classify_torus_fibration, is_spherical_pair
from .sympoly import (
    DEFAULT_DEGREE_BOUND,
    MAX_MF_DEGREE,
    homog_coordinate_mf_crosscheck,
    is_mf_coordinate_ring,
)


# ---- parsing helpers -----------------------------------------------------------


def _adjoint_summands(group: Group) -> list:
    char: dict = {}
    for r in group.posroots:
        for sgn in (1, -1):
            w = tuple(sgn * x for x in group.root_fc(r))
            char[w] = char.get(w, 0) + 1
    zero = (0,) * group.weight_len
    char[zero] = char.get(zero, 0) + group.rank + group.torus_dim
    return sorted(decompose_character(group, char).items())


def parse_module_spec(group: Group, text: str) -> list:
    """Direct sums of named modules: "defining", "adjoint", "trivial", and
    explicit weights "w[a,b|t]" (torus charges after the bar), joined by +."""
    acc: dict = {}
    for token in text.split("+"):
        token = token.strip()
        if token == "defining":
            lab = tuple(1 if i == 0 else 0 for i in range(group.weight_len))
            items = [(check_label(group, lab), 1)]
        elif token == "trivial":
            items = [((0,) * group.weight_len, 1)]
        elif token == "adjoint":
            items = _adjoint_summands(group)
        elif token.startswith("w[") and token.endswith("]"):
            body = token[2:-1].replace("|", ",")
            try:
                lab = tuple(int(p) for p in body.split(",") if p.strip() != "")
            except ValueError as exc:
                raise ParseError(f"bad weight token {token!r}") from exc
            items = [(check_label(group, lab), 1)]
        else:
            raise ParseError(f"unknown module token {token!r}")
        for lab, m in items:
            acc[lab] = acc.get(lab, 0) + m
    if not acc:
        raise ParseError("empty module spec")
    return sorted(acc.items())


def _parse_subalgebra(group: Group, text: str) -> Subalgebra:
    if text.startswith("span:"):
        vectors = []
        for chunk in text[len("span:"):].split(";"):
            entries = [fr_input(p.strip(), ParseError) for p in chunk.split(",")]
            if len(entries) != group.dim:
                raise ParseError(
                    f"span vector has {len(entries)} entries, need {group.dim}"
                )
            vectors.append(fvec(entries))
        return Subalgebra(group, vectors, name="span")
    return standard_subalgebra(group, text)


def _parse_fiber(group: Group, h: Subalgebra, text: str):
    if text == "trivial":
        return fiber_trivial(group, h)
    if text.startswith("character:"):
        values = [fr_input(p.strip(), ParseError) for p in text[len("character:"):].split(",")]
        return fiber_character(group, h, values)
    if text.startswith("restriction:"):
        summands = parse_module_spec(group, text[len("restriction:"):])
        if len(summands) != 1 or summands[0][1] != 1:
            raise ParseError("restriction fiber takes a single irreducible label")
        return fiber_restriction(group, h, summands[0][0])
    raise ParseError(f"unknown fiber spec {text!r}")


def _format_label(label, group: Group) -> str:
    simple = label[: group.rank]
    torus = label[group.rank :]
    terms = []
    for i, c in enumerate(simple):
        if c == 0:
            continue
        name = "ω" if group.rank == 1 else f"ω{i + 1}"
        terms.append(name if c == 1 else f"{c}{name}")
    body = "+".join(terms) if terms else "0"
    if any(torus):
        body += "|" + ",".join(str(c) for c in torus)
    return body


# ---- output plumbing -----------------------------------------------------------


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    return x


def _emit(args, payload: dict, table_lines: list) -> None:
    if args.format == "structured":
        print(json.dumps(_jsonable(payload), sort_keys=True, indent=2))
    else:
        print(f"seed: {args.seed}")
        for line in table_lines:
            print(line)


def _emit_error(args, exc: ToolkitError) -> int:
    if args.format == "structured":
        payload = {"seed": args.seed, "error": exc.code, "message": str(exc)}
        print(json.dumps(_jsonable(payload), sort_keys=True, indent=2))
    else:
        print(f"seed: {args.seed}")
        print(f"error {exc.code}: {exc}")
    return 1


def _usage_error(exc: ToolkitError) -> int:
    print(f"usage error ({exc.code}): {exc}", file=sys.stderr)
    return 2


# ---- verbs ---------------------------------------------------------------------


def cmd_spherical(args) -> int:
    try:
        g = parse_group(args.group)
        h = _parse_subalgebra(g, args.subalgebra)
    except ToolkitError as exc:
        return _usage_error(exc)
    try:
        # is_spherical_pair refuses a negative count itself, also before sampling
        if args.trials > MAX_TRIALS:
            raise DegenerateInputError(
                f"trial count must be at most {MAX_TRIALS}, got {args.trials}"
            )
        res = is_spherical_pair(g, h, trials=args.trials, seed=args.seed)
    except ToolkitError as exc:
        return _emit_error(args, exc)
    cert = res.certificate
    if cert.get("reason") == "dimension_obstruction":
        msg = (
            f"{res.status} (dimension obstruction "
            f"{cert['borel_dim'] + cert['subalgebra_dim']} < {cert['ambient_dim']})"
        )
    elif res.status == "spherical":
        msg = f"{res.status} (witness found after {cert['trials_used']} trial(s))"
    elif cert.get("reason") == "sampling_exhausted":
        msg = f"{res.status} (no full-rank sample in {cert['trials']} trials)"
    else:
        msg = res.status
    _emit(args, {"seed": args.seed, **res.as_dict()}, [msg])
    return 0


def cmd_fibration(args) -> int:
    try:
        g = parse_group(args.group)
        h = _parse_subalgebra(g, args.subalgebra)
    except ToolkitError as exc:
        return _usage_error(exc)
    try:
        res = classify_torus_fibration(g, h)
    except ToolkitError as exc:
        return _emit_error(args, exc)
    msg = res.status
    if res.status == "torus_bundle_over_flag":
        msg += f" (fiber dimension {res.fiber_dim})"
    _emit(args, {"seed": args.seed, **res.as_dict()}, [msg])
    return 0


def cmd_mf(args) -> int:
    try:
        g = parse_group(args.group)
        if (args.module is None) == (args.subalgebra is None):
            raise ParseError("give exactly one of --module or --subalgebra")
        summands = parse_module_spec(g, args.module) if args.module else None
        h = _parse_subalgebra(g, args.subalgebra) if args.subalgebra else None
        ambient = parse_module_spec(g, args.ambient) if args.ambient else None
        if ambient and summands:
            raise ParseError("--ambient only applies to the --subalgebra form")
    except ToolkitError as exc:
        return _usage_error(exc)
    try:
        if not 1 <= args.degree <= MAX_MF_DEGREE:
            raise DegenerateInputError(
                f"degree bound must lie in 1..{MAX_MF_DEGREE}, got {args.degree}"
            )
        if summands is not None:
            verdict = is_mf_coordinate_ring(g, summands, args.degree)
        else:
            verdict = homog_coordinate_mf_crosscheck(g, h, args.degree, ambient=ambient)
    except ToolkitError as exc:
        return _emit_error(args, exc)
    if verdict.witness:
        w = verdict.witness
        msg = (
            f"fails at degree {w['degree']}, label {_format_label(w['label'], g)}, "
            f"multiplicity {w['multiplicity']}"
        )
    else:
        msg = f"{verdict.verdict} (degree bound {verdict.degree_bound})"
    _emit(args, {"seed": args.seed, **verdict.as_dict()}, [msg])
    return 0


def cmd_involution(args) -> int:
    try:
        g = parse_group(args.group)
        h = _parse_subalgebra(g, args.subalgebra)
        fiber = _parse_fiber(g, h, args.fiber)
    except ToolkitError as exc:
        return _usage_error(exc)
    try:
        cert = assemble_bundle_involution(g, h, fiber)
    except ToolkitError as exc:
        return _emit_error(args, exc)
    d = cert.as_dict()
    lines = ["verified"]
    lines.append(f"adapted: {d['adapted']['verdict']}")
    for name, ok in d["checks"].items():
        lines.append(f"{name}: {ok}")
    for row in d["nu_matrix"]:
        lines.append("nu: [" + ", ".join(row) + "]")
    _emit(args, {"seed": args.seed, **d}, lines)
    return 0


def _random_su2_sample(rng, degree: int):
    coeffs = {}
    for _ in range(2 * (degree + 1)):
        a = int(rng.integers(0, degree + 1))
        b = int(rng.integers(0, degree + 1 - a))
        coeffs[(a, b)] = complex(rng.standard_normal(), rng.standard_normal())
    return su2_sample(coeffs)


def _random_torus_sample(rng, rank: int, degree: int):
    coeffs = {}
    for _ in range(5 * rank):
        e = tuple(int(x) for x in rng.integers(-degree, degree + 1, size=rank))
        coeffs[e] = complex(rng.standard_normal(), rng.standard_normal())
    return torus_sample(coeffs, rank)


# The SU(2) check builds su2_quadrature(2 * degree), whose node count grows
# like degree^3, and the torus check's work grows like degree^rank; at
# degree 10 either takes seconds, so larger degrees are refused before
# anything is allocated.
MAX_ISOTYPIC_DEGREE = 10


def cmd_isotypic(args) -> int:
    try:
        if args.seed < 0:
            raise DegenerateInputError(f"isotypic seed must be nonnegative, got {args.seed}")
        if not 0 <= args.degree <= MAX_ISOTYPIC_DEGREE:
            raise DegenerateInputError(
                f"isotypic degree must lie in 0..{MAX_ISOTYPIC_DEGREE}, got {args.degree}"
            )
        if args.domain == "torus" and not 1 <= args.rank <= MAX_RANK:
            raise DegenerateInputError(f"torus rank must lie in 1..{MAX_RANK}, got {args.rank}")
        rng = np.random.default_rng(args.seed)
        if args.domain == "su2":
            q = su2_quadrature(2 * args.degree)
            report = verify_projector_algebra(q, args.degree, seed=args.seed)
            sample = _random_su2_sample(rng, args.degree)
            series = finite_series_check(sample, q)
        else:
            report = None
            sample = _random_torus_sample(rng, args.rank, args.degree)
            series = finite_series_check(sample)
    except ToolkitError as exc:
        return _emit_error(args, exc)
    lines = []
    ok = series.within_tolerance
    if report is not None:
        for key in ("idempotence", "orthogonality", "commutation", "self_adjointness"):
            lines.append(f"{key}: {report[key]:.3e}")
        lines.append(f"projector algebra within tolerance: {report['within_tolerance']}")
        ok = ok and report["within_tolerance"]
    lines.append(f"series support: {series.support}")
    lines.append(f"reconstruction residual: {series.residual:.3e}")
    lines.append(f"series within tolerance: {series.within_tolerance}")
    payload = {
        "seed": args.seed,
        "domain": args.domain,
        "degree": args.degree,
        "polynomial": {str(list(k)): v for k, v in sample.coeffs.items()},
        "projector": report,
        "series": series.as_dict(),
    }
    _emit(args, payload, lines)
    return 0 if ok else 1


def cmd_catalog(args) -> int:
    path = args.catalog if args.catalog else default_catalog_path()
    try:
        entries = load_catalog(path)
    except ToolkitError as exc:
        return _emit_error(args, exc)
    if args.action == "list":
        lines = [
            f"{e.id} ({e.group}): {', '.join(sorted(e.expected))}" for e in sorted(entries, key=lambda e: e.id)
        ]
        payload = {
            "seed": args.seed,
            "entries": [
                {"id": e.id, "group": e.group, "checks": sorted(e.expected)}
                for e in sorted(entries, key=lambda e: e.id)
            ],
        }
        _emit(args, payload, lines)
        return 0
    checks = None
    if args.checks:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    try:
        res = run_catalog(entries, checks=checks, seed=args.seed)
    except ToolkitError as exc:
        return _usage_error(exc)
    lines = []
    for r in res["rows"]:
        if r["skipped"]:
            mark, detail = "skip", r["reason"]
        elif r["agree"]:
            mark, detail = "ok", r["verdict"]
        else:
            mark, detail = "MISMATCH", f"computed={r['verdict']} expected={r['expected']}"
        lines.append(f"{mark:9s} {r['id']} {r['check']}: {detail}")
    s = res["summary"]
    lines.append(
        f"checks: {s['checks_run']}  agreements: {s['agreements']}  "
        f"disagreements: {s['disagreements']}  skipped: {s['skipped']}  errors: {s['errors']}"
    )
    _emit(args, {"seed": args.seed, **res}, lines)
    return 1 if s["disagreements"] or s["errors"] else 0


# ---- argument parser -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylkit",
        description="Exact checks for spherical pairs, multiplicity-free modules, "
        "equivariant antiholomorphic involutions, and isotypic projectors.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="random seed, echoed in output")
        p.add_argument(
            "--format", choices=("table", "structured"), default="table",
            help="table for humans, structured for byte-stable JSON",
        )

    p = sub.add_parser("spherical", help="is the pair (G, H) spherical")
    p.add_argument("--group", required=True)
    p.add_argument("--subalgebra", required=True)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    common(p)
    p.set_defaults(func=cmd_spherical)

    p = sub.add_parser("fibration", help="classify G/H as a torus bundle over a flag manifold")
    p.add_argument("--group", required=True)
    p.add_argument("--subalgebra", required=True)
    common(p)
    p.set_defaults(func=cmd_fibration)

    p = sub.add_parser("mf", help="truncated multiplicity-freeness of a coordinate ring")
    p.add_argument("--group", required=True)
    p.add_argument("--module", help="module spec, e.g. defining+defining")
    p.add_argument("--subalgebra", help="orbit form: check functions on the pair (G, H)")
    p.add_argument("--ambient", help="ambient module spec for the orbit form")
    p.add_argument("--degree", type=int, default=DEFAULT_DEGREE_BOUND)
    common(p)
    p.set_defaults(func=cmd_mf)

    p = sub.add_parser("involution", help="assemble and verify the bundle involution data")
    p.add_argument("--group", required=True)
    p.add_argument("--subalgebra", required=True)
    p.add_argument(
        "--fiber", required=True,
        help="trivial | character:v1,v2,... | restriction:<module token>",
    )
    common(p)
    p.set_defaults(func=cmd_involution)

    p = sub.add_parser("isotypic", help="projector algebra and finite series on a random polynomial")
    p.add_argument("--domain", choices=("su2", "torus"), default="su2")
    p.add_argument("--degree", type=int, default=4)
    p.add_argument("--rank", type=int, default=2, help="torus rank (torus domain only)")
    common(p)
    p.set_defaults(func=cmd_isotypic)

    p = sub.add_parser("catalog", help="run or list the shipped verdict catalog")
    p.add_argument("action", choices=("run", "list"))
    p.add_argument("--all", action="store_true", help="run every check (the default)")
    p.add_argument("--checks", help=f"comma-separated subset of {', '.join(CHECKS)}")
    p.add_argument("--catalog", help="path to a catalog file (or set WEYLKIT_CATALOG)")
    common(p)
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
