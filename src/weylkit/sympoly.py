"""Truncated coordinate rings of modules and multiplicity-freeness.

Symmetric powers are computed on integer characters, as the coefficients
of the generating function sum_d S^d(V) t^d = prod_w (1 - x^w t)^(-m_w)
over the weights w of V with multiplicities m_w, one weight at a time, so
no large module is ever materialized.  Verdicts are explicitly truncated:
"multiplicity_free_up_to_D" claims nothing beyond the inspected degrees, and
a failure always carries a witness that can be recomputed from the
per-degree table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Callable

from .errors import (
    DegenerateInputError,
    DimensionCapError,
    NonReductiveError,
    ensure,
)
from .linalg import SpanBasis, int_tables, integral
from .repthy import (
    DIM_CAP,
    _add,
    build_module,
    check_dim_cap,
    check_label,
    decompose_character,
    module_character,
    weight_multiplicities,
    weyl_dim,
)
from .rootsys import Group, Subalgebra

Weight = tuple[int, ...]
Summands = list[tuple[Weight, int]]

DEFAULT_DEGREE_BOUND = 8
# Largest degree bound the multiplicity-freeness checks accept (the catalog
# also checks it at load time).  The symmetric-power characters grow with the
# degree: on one x86 core (Python 3.11) the G2 adjoint takes 0.12 s at degree
# 12 and 0.28 s at 16 in-process, three quarters of it in the symmetric powers
# and the rest in decomposition.
MAX_MF_DEGREE = 12


def _check_degree_bound(degree_bound: int) -> None:
    if not 1 <= degree_bound <= MAX_MF_DEGREE:
        raise DegenerateInputError(
            f"degree bound must lie in 1..{MAX_MF_DEGREE}, got {degree_bound}"
        )


def check_summands(group: Group, summands) -> Summands:
    """Validate a direct-sum descriptor: dominant labels, positive counts,
    every summand under the global dimension cap."""
    out: Summands = []
    for lab, mult in summands:
        lab = check_label(group, lab)
        if mult <= 0:
            raise DegenerateInputError(f"multiplicity {mult} for {lab} must be positive")
        if weyl_dim(group, lab) > DIM_CAP:
            raise DimensionCapError(
                f"summand {lab} has dimension {weyl_dim(group, lab)} > {DIM_CAP}"
            )
        out.append((lab, int(mult)))
    return out


def summands_dim(group: Group, summands: Summands) -> int:
    return sum(m * weyl_dim(group, lab) for lab, m in summands)


def dual_summands(group: Group, summands: Summands) -> Summands:
    return [(group.dual_label(lab), m) for lab, m in summands]


def sym_power_characters(group: Group, summands: Summands, d: int) -> list[dict[Weight, int]]:
    """Characters of S^0(V) .. S^d(V): H[n] is the t^n coefficient of
    prod_w (1 - x^w t)^(-m_w), built one weight w (multiplicity m) at a time
    by H[n] += sum_{j=1..min(m,n)} (-1)^(j+1) binomial(m, j) x^(j w) H[n-j]
    for n ascending, each H[n-j] already multiplied."""
    summands = check_summands(group, summands)
    if d < 0:
        raise DegenerateInputError("degree must be nonnegative")
    chi = module_character(group, summands)
    hs: list[dict[Weight, int]] = [{(0,) * group.weight_len: 1}] + [{} for _ in range(d)]
    for w, m in chi.items():
        for n in range(1, d + 1):
            h = hs[n]
            for j in range(1, min(m, n) + 1):
                coeff = (-1) ** (j + 1) * comb(m, j)
                jw = tuple(j * x for x in w)
                for v, c in hs[n - j].items():
                    u = _add(v, jw)
                    h[u] = h.get(u, 0) + coeff * c
            hs[n] = {u: c for u, c in h.items() if c}
    dim = sum(chi.values())
    for n in range(1, d + 1):
        ensure(sum(hs[n].values()) == comb(dim + n - 1, n), "a symmetric power has the wrong dimension")
    return hs


def sym_power_decompose(group: Group, summands: Summands, d: int) -> dict[Weight, int]:
    """Irreducible decomposition of the d-th symmetric power of V.

    The result conserves dimension: the multiplicities weighted by Weyl
    dimensions add up to binomial(dim V + d - 1, d).
    """
    hs = sym_power_characters(group, summands, d)
    out = decompose_character(group, hs[d])
    total = sum(m * weyl_dim(group, lab) for lab, m in out.items())
    expected = comb(summands_dim(group, check_summands(group, summands)) + d - 1, d)
    ensure(total == expected, f"dimension leak in S^{d}: {total} != {expected}")
    return out


@dataclass
class MFVerdict:
    """Truncated multiplicity-freeness report.

    table maps each inspected degree to its decomposition; witness is set
    exactly when the verdict is "fails" and names a label whose aggregate
    multiplicity over the table is at least 2, together with the degree
    contributing most to it.
    """

    verdict: str  # "multiplicity_free_up_to_D" | "fails"
    degree_bound: int
    witness: dict | None = None
    table: dict[int, dict[Weight, int]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "degree_bound": self.degree_bound,
            "witness": dict(self.witness) if self.witness else None,
            "table": {
                d: {str(list(lab)): m for lab, m in dec.items()}
                for d, dec in self.table.items()
            },
        }


def _mf_verdict(
    table: dict[int, dict[Weight, int]],
    bound: int,
    totals: dict[Weight, int],
    witness_degree: Callable[[Weight], int],
) -> MFVerdict:
    """Verdict from aggregate multiplicities: the worst offender (largest
    total, ties toward the larger label) is the witness, at the degree the
    caller's rule picks for it."""
    bad = {lab: t for lab, t in totals.items() if t >= 2}
    if not bad:
        return MFVerdict("multiplicity_free_up_to_D", bound, None, table)
    label = max(bad, key=lambda lab: (bad[lab], lab))
    witness = {"degree": witness_degree(label), "label": label, "multiplicity": totals[label]}
    return MFVerdict("fails", bound, witness, table)


def _verdict_from_table(table: dict[int, dict[Weight, int]], bound: int) -> MFVerdict:
    totals: dict[Weight, int] = {}
    for dec in table.values():
        for lab, m in dec.items():
            totals[lab] = totals.get(lab, 0) + m
    # The degree that contributes the most to the offender (ties resolved
    # toward low degree) makes the most useful witness.
    return _mf_verdict(
        table,
        bound,
        totals,
        lambda label: max((d for d in sorted(table) if label in table[d]), key=lambda d: table[d][label]),
    )


def is_mf_coordinate_ring(
    group: Group, summands: Summands, degree_bound: int = DEFAULT_DEGREE_BOUND
) -> MFVerdict:
    """Does every irreducible occur at most once in C[V] up to degree D?

    The coordinate ring is built from the dual module, and multiplicities
    are aggregated across degrees: a label showing up in two different
    degrees fails just as surely as a within-degree repeat.
    """
    _check_degree_bound(degree_bound)
    dual = dual_summands(group, check_summands(group, summands))
    hs = sym_power_characters(group, dual, degree_bound)
    table = {d: decompose_character(group, hs[d]) for d in range(degree_bound + 1)}
    return _verdict_from_table(table, degree_bound)


def check_reductive(group: Group, h: Subalgebra) -> None:
    """Nondegeneracy of the restricted invariant form, the workhorse test
    for reductivity of a subalgebra in a reductive ambient algebra.  The
    form is read from its sparse int entries (``Group.form_entries``)."""
    form, rows = group.form_entries, h.rows
    span = SpanBasis()  # the rows of the Gram matrix: row i is (b_i, b_j) over j
    for x in rows:
        span.add({j: sum(x[p] * t * y[q] for (p, q), t in form.items() if p in x and q in y) for j, y in enumerate(rows)})
    if len(span) != h.dim:
        raise NonReductiveError(
            "invariant form degenerates on the subalgebra; not reductive"
        )


def invariant_multiplicity(group: Group, h: Subalgebra, label: Weight) -> int:
    """dim of the h-annihilated subspace of the module dual to V(label).

    That subspace is the common kernel of the matrices of the basis of h,
    and it lies in the weight spaces that h's Cartan part kills (``charge``
    zero).  If every row is in the Cartan span, its dimension is read off the weight
    multiplicities and no module is built; else it is the count of basis
    vectors of charge zero minus the rank of the other rows' matrices on
    them.  Each row is assembled as a sparse {column: entry} dict straight
    from the module's column tables, scaled to int (which changes no rank),
    and fed to one SpanBasis; the rows it accepts are the rank.
    """
    dual_label = group.dual_label(check_label(group, label))
    others = [x for k, x in enumerate(h.rows) if k not in h.cartan_rows]
    if not others:
        check_dim_cap(group, dual_label)
        return sum(m for w, m in weight_multiplicities(group, dual_label).items() if not any(h.charge(w)))
    dual = build_module(group, dual_label)
    fixed = [k for k, w in enumerate(dual.weights) if not any(h.charge(w))]
    used = sorted({p for x in others for p in x})
    tables = dict(zip(used, int_tables([dual.columns[p] for p in used])[0]))
    span = SpanBasis()
    for x in others:
        rows: dict[int, dict[int, int]] = {}  # row r of the matrix of a multiple of x
        for p, c in integral(x)[0].items():
            for k in fixed:
                for r, a in tables[p][k]:
                    row = rows.setdefault(r, {})
                    row[k] = row.get(k, 0) + c * a
        for row in rows.values():
            span.add(row)
    return len(fixed) - len(span)


def homog_coordinate_mf_crosscheck(
    group: Group,
    h: Subalgebra,
    degree_bound: int = DEFAULT_DEGREE_BOUND,
    ambient: Summands | None = None,
) -> MFVerdict:
    """Multiplicity count for the orbit through the base point of a module.

    The degree windows come from the symmetric powers of the dual of the
    ambient module; within the window, each label's multiplicity is the
    exact nullspace dimension of the h-action on the dual module, counted
    once per label.  By Frobenius reciprocity this is its multiplicity in
    the function algebra of the orbit, so an entry of 2 or more refutes
    sphericality of the pair and the all-ones outcome certifies it through
    the inspected window.
    """
    _check_degree_bound(degree_bound)
    h.require_closed()
    check_reductive(group, h)
    if ambient is None:
        ambient = [(_default_ambient_label(group), 1)]
    dual = dual_summands(group, check_summands(group, ambient))
    hs = sym_power_characters(group, dual, degree_bound)
    table: dict[int, dict[Weight, int]] = {}
    seen: dict[Weight, int] = {}
    for d in range(degree_bound + 1):
        row: dict[Weight, int] = {}
        for lab in sorted(decompose_character(group, hs[d])):
            if lab not in seen:
                seen[lab] = invariant_multiplicity(group, h, lab)
            if seen[lab]:
                row[lab] = seen[lab]
        table[d] = row
    # A label often persists through several degrees (the trivial one always
    # does); its orbit multiplicity is still the single kernel dimension, so
    # repeats across degrees must not be double counted here, and the
    # witness names the first degree in which the label occurs.
    return _mf_verdict(
        table, degree_bound, seen, lambda label: min(d for d, row in table.items() if label in row)
    )


def _default_ambient_label(group: Group) -> Weight:
    # First fundamental weight (or the all-ones character for a bare
    # torus).  Callers who care about the window size pass ambient.
    if group.rank == 0:
        return (1,) * group.torus_dim
    return (1,) + (0,) * (group.weight_len - 1)

