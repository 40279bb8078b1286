"""Exact linear algebra over the rationals.

At the boundary, matrices and vectors are numpy object arrays of
``fractions.Fraction``: numpy keeps the shapes, the arithmetic stays exact.
Inside, elimination runs on sparse rows, dicts {position: Fraction} of the
nonzero entries, since the matrices reduced here are mostly zeros: ``rref``
makes one dense matrix at the end, ``SpanBasis`` and the module builder
never leave the sparse form, and ``sparse`` and ``densify`` convert.
``nullspace`` reads a kernel off one ``SpanBasis`` pass over the map's
sparse columns, so no kernel is built as a dense stack; a rank is the
length of a ``SpanBasis`` and a membership test is its ``express``, so
there is no dense solve, rank or column stack either.

Three helpers are the kernel's vocabulary for the loops the rest of the
package would otherwise write by hand (de Graaf, *Lie Algebras: Theory and
Algorithms*, 2000, ch. 1): ``combine`` forms a linear combination of
vectors or matrices (a module action, a vector from its coordinates),
``eliminate`` reduces a sparse vector by sparse echelon rows, returning the
remainder and the multiple of each row taken (the one reduction loop: rref,
membership, coordinates, quotients), and ``matmul`` forms a matrix product
from the nonzero entries of its factors (a commutator, a bracket, a series
term, a change of basis).  Because the arithmetic is exact, any
algebraically equal rewrite through them gives bit-for-bit the same numbers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

F0 = Fraction(0)
F1 = Fraction(1)


def fr(x) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction (floats are rejected:

    exactness is the point)."""
    if isinstance(x, float):
        raise TypeError("refusing to coerce float to Fraction")
    return Fraction(x)


def fr_input(x, error: type[Exception]) -> Fraction:
    """fr for a literal from outside the program: a malformed one raises
    ``error`` with a message instead of a bare TypeError/ValueError, as does
    one over 400 characters or with an exponent above 999, whose value could
    be too slow to expand or too long to print (Python prints 4300 digits)."""
    if isinstance(x, str) and (len(x) > 400 or re.search(r"[eE][-+]?[0_]*[1-9](_?[0-9]){3}", x)):
        raise error(f"literal too large: {x[:40]!r}")
    try:
        return fr(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise error(f"not an exact rational: {x!r}") from exc


def fmat(rows: Sequence[Sequence]) -> np.ndarray:
    a = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            a[i, j] = fr(x)
    return a


def fvec(entries: Iterable) -> np.ndarray:
    xs = [fr(x) for x in entries]
    a = np.empty(len(xs), dtype=object)
    for i, x in enumerate(xs):
        a[i] = x
    return a


def zeros(n: int, m: int | None = None) -> np.ndarray:
    if m is None:
        a = np.empty(n, dtype=object)
        a[:] = F0
        return a
    a = np.empty((n, m), dtype=object)
    a[:, :] = F0
    return a


def eye(n: int) -> np.ndarray:
    a = zeros(n, n)
    for i in range(n):
        a[i, i] = F1
    return a


def is_zero(a: np.ndarray) -> bool:
    return all(x == 0 for x in a.flat)


def sparse(v: Iterable) -> dict[int, Fraction]:
    """The nonzero entries of an exact vector by position, each through fr."""
    return {j: fr(x) for j, x in enumerate(v) if x}


def densify(entries: dict, shape: tuple[int, ...]) -> np.ndarray:
    """zeros(*shape) with these entries set, keyed by index or (row, col)."""
    out = zeros(*shape)
    for k, x in entries.items():
        out[k] = x
    return out


def rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices).  Gauss-Jordan
    in column order on sparse rows: the pivot row is the first at or below the
    current one that holds the column, and only the rows holding it are
    cleared.  Entries go through fr: an int becomes a Fraction, a float raises."""
    n, m = a.shape
    rows = [sparse(row) for row in a.tolist()]
    pivots: list[int] = []
    for col in range(m):
        k = len(pivots)
        piv = next((i for i in range(k, n) if col in rows[i]), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        d = rows[k][col]
        prow = rows[k] = {j: x / d for j, x in rows[k].items()}
        for i in range(n):
            if i != k and col in rows[i]:
                rows[i] = eliminate(rows[i], [prow], [col])[0]
        pivots.append(col)
        if len(pivots) == n:
            break
    return densify({(i, j): x for i, row in enumerate(rows) for j, x in row.items()}, (n, m)), pivots


def nullspace(cols: Sequence[dict]) -> list[np.ndarray]:
    """Basis of the kernel of the linear map whose column j is the sparse
    vector cols[j] ({position: entry}, any sortable positions): one vector
    per column j in the span of the columns before it, 1 at j and minus the
    coordinates of cols[j] over the earlier independent columns.  This is
    the basis read off the reduced echelon form, which is unique."""
    span, indep, basis = SpanBasis(), [], []
    for j, col in enumerate(cols):
        coords = span.express(col)
        if coords is None:
            span.add(col)
            indep.append(j)
        else:
            basis.append(densify({j: F1} | {indep[k]: -x for k, x in coords}, (len(cols),)))
    return basis


def combine(coeffs: Iterable, terms: Iterable[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """sum c * t over the nonzero c; starts from zeros(shape), so entries
    stay Fraction even when every coefficient is zero."""
    out = zeros(*shape)
    for c, t in zip(coeffs, terms):
        if c != 0:
            out = out + c * t
    return out


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for an exact matrix a and an exact matrix or vector b, driven by
    nonzero entries (Gustavson, *ACM TOMS* 4(3), 1978): each nonzero b[j, l]
    adds b[j, l] times the nonzero part of column j of a, found once per j,
    to column l of zeros(...), so every entry is a Fraction."""
    if a.shape[1] != len(b):
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    b2 = b[:, None] if b.ndim == 1 else b
    out = zeros(len(a), b2.shape[1])
    cols: dict[int, list[tuple[int, Fraction]]] = {}
    for j, l in zip(*np.nonzero(b2)):
        if j not in cols:
            cols[j] = [(i, a[i, j]) for i in np.flatnonzero(a[:, j])]
        x = b2[j, l]
        for i, c in cols[j]:
            out[i, l] += c * x
    return out.reshape(a.shape[:1] + b.shape[1:])


def eliminate(v: dict, rows: Sequence[dict], pivots: Sequence) -> tuple[dict, dict[int, Fraction]]:
    """Reduce the sparse vector v by sparse echelon rows, in order: rows[i]
    has a 1 at pivots[i] and no entry at the pivots of the rows before it.
    Returns (remainder, {i: multiple of rows[i] taken}), zero entries
    dropped: v = remainder + sum multiple[i] * rows[i], and the remainder
    has no entry at any pivot."""
    rem = {j: x for j, x in v.items() if x}
    mult: dict[int, Fraction] = {}
    for i, (row, p) in enumerate(zip(rows, pivots)):
        c = rem.get(p)
        if c:
            mult[i] = c
            for j, x in row.items():
                rem[j] = rem.get(j, F0) - c * x
                if not rem[j]:
                    del rem[j]
    return rem, mult


class SpanBasis:
    """Incremental echelon span of sparse vectors ({position: entry}, any
    sortable positions, Fraction or int entries), with expansion bookkeeping.

    ``add`` keeps, for every retained row, its expression in terms of the
    vectors that enlarged the span (the retained vectors, in the order they
    were added); ``express`` then rewrites any member of the span in those
    coordinates.  The module builder keeps one per weight space, to name the
    basis vectors of that weight by the lowering words that produced them.
    """

    def __init__(self):
        # rows[i] is retained vector i reduced by the rows before it: 1 at
        # pivots[i], no entry at the earlier pivots, as eliminate requires
        self.rows: list[dict] = []
        self.combos: list[dict[int, Fraction]] = []  # rows[i] = sum combos[i][k] * retained[k]
        self.pivots: list = []

    def __len__(self) -> int:
        return len(self.rows)

    def _expand(self, mult: dict[int, Fraction]) -> dict[int, Fraction]:
        """sum mult[i] * combos[i], zero entries dropped."""
        out: dict[int, Fraction] = {}
        for i, c in mult.items():
            for k, x in self.combos[i].items():
                out[k] = out.get(k, F0) + c * x
        return {k: x for k, x in out.items() if x}

    def add(self, v: dict) -> bool:
        """Returns True iff v enlarged the span."""
        rem, mult = eliminate(v, self.rows, self.pivots)
        if not rem:
            return False
        piv = min(rem)
        inv = F1 / rem[piv]  # a Fraction, so int entries of v scale exactly
        # rem = v - sum mult[i] * rows[i], and v is retained vector len(rows)
        self.combos.append({k: -x * inv for k, x in self._expand(mult).items()} | {len(self.rows): inv})
        self.rows.append({j: x * inv for j, x in rem.items()})
        self.pivots.append(piv)
        return True

    def contains(self, v: dict) -> bool:
        return not eliminate(v, self.rows, self.pivots)[0]

    def express(self, v: dict) -> list[tuple[int, Fraction]] | None:
        """The nonzero coordinates of v over the retained vectors, as
        ascending (index, entry) pairs, or None if v is not in the span."""
        rem, mult = eliminate(v, self.rows, self.pivots)
        if rem:
            return None
        return sorted(self._expand(mult).items())
