"""Exact linear algebra over the rationals.

At the boundary, matrices and vectors are numpy object arrays of
``fractions.Fraction``: numpy keeps the shapes, the arithmetic stays exact.
Inside, vectors are sparse rows, dicts {position: entry} of the nonzero
entries, since the matrices reduced here are mostly zeros: ``rref`` makes
one dense matrix at the end, ``SpanBasis`` and the module builder never
leave the sparse form, and ``sparse`` and ``densify`` convert.
``SpanBasis`` keeps fraction-free int rows; only its ``express`` forms Fractions.
``nullspace`` reads a kernel off one ``SpanBasis`` pass over the map's
sparse columns and returns it as sparse vectors; a rank is the length of a
``SpanBasis`` and a membership test is its ``express``, so there is no
dense solve, rank or column stack either.  ``eliminate`` reduces a sparse
vector by sparse echelon rows, returning the remainder and the multiple of
each row taken: the one reduction loop (rref, membership, coordinates,
quotients).  Matrices below the boundary are column tables (``Table``):
each column's nonzero (row, entry) pairs, rows ascending.  The table
kernel here is the one home of their arithmetic: ``apply_table`` and
``image`` apply a table to a sparse vector, ``product``, ``commutator``
and ``table_sum`` form tables, ``int_tables`` clears denominators and
``entries`` is the one way back to {(row, col): entry}.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

import numpy as np

F0 = Fraction(0)
F1 = Fraction(1)

Table = list[list[tuple[int, Fraction]]]  # one matrix: each column's nonzero (row, entry) pairs


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


def sparse(v: Iterable | dict) -> dict:
    """The nonzero entries of an exact vector, or of a sparse vector given
    as a dict, by position, each through fr."""
    return {j: fr(x) for j, x in (v.items() if isinstance(v, dict) else enumerate(v)) if x}


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


def nullspace(cols: Sequence[dict]) -> list[dict[int, Fraction]]:
    """Basis of the kernel of the linear map whose column j is the sparse
    vector cols[j] ({position: entry}, any sortable positions), as sparse
    vectors over the column indices, positions ascending: one vector per
    column j in the span of the columns before it, 1 at j and minus the
    coordinates of cols[j] over the earlier independent columns.  This is
    the basis read off the reduced echelon form, which is unique."""
    span, indep, basis = SpanBasis(), [], []
    for j, col in enumerate(cols):
        if span.add(col):
            indep.append(j)
        else:
            basis.append({indep[k]: -x for k, x in span.express(col)} | {j: F1})
    return basis


def eliminate(v: dict, rows: Sequence[dict], pivots: Sequence) -> tuple[dict, dict, int]:
    """Reduce the sparse vector v by echelon rows: rows[i] has d != 0 at
    pivots[i], none at the earlier pivots, and is int unless d is 1.  Returns
    (rem, {i: multiple of rows[i] taken}, scale), zeros dropped, with scale v
    = rem + sum multiple[i] rows[i] and no entry of rem at a pivot.  An entry
    a/b at a pivot d != 1 is cleared fraction-free (Bareiss, *Math. Comp.*
    22, 1968): g = gcd(a, d), everything so far is scaled by (d/g) b, and
    (a/g) rows[i] is subtracted, so int v stays int, and scale is 1 if d is."""
    rem = {j: x for j, x in v.items() if x}
    mult: dict = {}
    scale = 1
    for i, (row, p) in enumerate(zip(rows, pivots)):
        c = rem.get(p)
        if c:
            if (d := row[p]) != 1:
                g = gcd(c.numerator, d)
                s, c = d // g * c.denominator, c.numerator // g
                rem, mult, scale = {j: s * x for j, x in rem.items()}, {k: s * x for k, x in mult.items()}, s * scale
            mult[i] = c
            for j, x in row.items():
                rem[j] = rem.get(j, 0) - c * x
                if not rem[j]:
                    del rem[j]
    return rem, mult, scale


def integral(v: dict) -> tuple[dict, int]:
    """(d v, d) for the least d >= 1 that makes the sparse vector v int."""
    d = lcm(*(x.denominator for x in v.values()))
    return {j: x.numerator * (d // x.denominator) for j, x in v.items() if x}, d


class SpanBasis:
    """Incremental echelon span of sparse vectors ({position: entry}, any
    sortable positions, Fraction or int entries), with expansion bookkeeping.

    Vectors are cleared to int, and rows[i] is int and primitive (content
    divided out, pivot entry positive).  records[i] = (scale, content, mult),
    all int, says content rows[i] = scale u_i - sum mult[k] rows[k], for the
    retained vectors u_0, u_1, ... (those that enlarged the span, in order);
    ``express`` back-substitutes through them, and is the only place a
    Fraction is made.  The Verma walk keeps one per weight space, to
    name the basis vectors of that weight by the lowering words that made them.
    """

    def __init__(self):
        # rows[i] is u_i reduced by the rows before it: least position
        # pivots[i], no entry at the earlier pivots, as eliminate requires
        self.rows: list[dict] = []
        self.records: list[tuple[int, int, dict]] = []
        self.pivots: list = []

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, v: dict) -> bool:
        """Returns True iff v enlarged the span; if not, the span is unchanged."""
        w, d = integral(v)
        rem, mult, scale = eliminate(w, self.rows, self.pivots)
        if not rem:
            return False
        piv = min(rem)
        content = gcd(*rem.values()) * (1 if rem[piv] > 0 else -1)
        self.records.append((scale * d, content, mult))
        self.rows.append({j: x // content for j, x in rem.items()})
        self.pivots.append(piv)
        return True

    def contains(self, v: dict) -> bool:
        return not eliminate(integral(v)[0], self.rows, self.pivots)[0]

    def express(self, v: dict) -> list[tuple[int, Fraction]] | None:
        """The nonzero coordinates of v over the retained vectors, as
        ascending (index, Fraction) pairs, or None if v is not in the span."""
        w, d = integral(v)
        rem, mult, scale = eliminate(w, self.rows, self.pivots)
        if rem:
            return None
        den, out = scale * d, {}  # v = (sum mult[i] rows[i] + sum out[k] u_k) / den
        for i in range(max(mult, default=-1), -1, -1):  # records in, last row first
            if t := mult.pop(i, 0):
                s, content, earlier = self.records[i]
                if (f := content // gcd(t, content)) != 1:  # so that content divides f t
                    den, mult, out = den * f, {k: f * x for k, x in mult.items()}, {k: f * x for k, x in out.items()}
                t = t * f // content
                out[i] = t * s
                for k, x in earlier.items():
                    mult[k] = mult.get(k, 0) - t * x
        return sorted((k, Fraction(x, den)) for k, x in out.items())


# ---- column tables ----------------------------------------------------------


def apply_table(a: Table, col: Iterable[tuple[int, Fraction]], out: dict, sign: int = 1) -> None:
    """out += sign * (the matrix of table a applied to the sparse column col)."""
    for j, c in col:
        c *= sign
        for r, x in a[j]:
            out[r] = out.get(r, 0) + x * c


def image(a: Table, v: dict) -> dict:
    """The matrix of table a applied to the sparse vector v, zeros dropped."""
    out: dict = {}
    apply_table(a, v.items(), out)
    return {p: x for p, x in out.items() if x}


def identity(n: int) -> Table:
    return [[(k, 1)] for k in range(n)]


def int_tables(tables: Sequence[Table]) -> tuple[list[Table], int]:
    """([d t for each table t], d) for the least d >= 1 that makes them int."""
    d = lcm(*(x.denominator for t in tables for col in t for _, x in col))
    return [[[(r, x.numerator * (d // x.denominator)) for r, x in col] for col in t] for t in tables], d


def table_sum(terms: Iterable[tuple[Fraction, Table]], n: int) -> Table:
    """The table of sum c * t over the (c, t) pairs with c nonzero, for
    tables of n columns: rows ascending, zero entries dropped."""
    cols: list[dict] = [{} for _ in range(n)]
    for c, table in terms:
        if c:
            for col, pairs in zip(cols, table):
                for r, x in pairs:
                    col[r] = col.get(r, 0) + c * x
    return [[(r, x) for r, x in sorted(col.items()) if x] for col in cols]


def product(a: Table, b: Table) -> Table:
    """The table of the matrix product a b: rows ascending, zeros dropped."""
    out = []
    for col in b:
        acc: dict = {}
        apply_table(a, col, acc)
        out.append([(r, x) for r, x in sorted(acc.items()) if x])
    return out


def commutator(a: Table, b: Table, n: int) -> Table:
    """The table of (a b - b a) / n, from the int d a and d b: rows ascending."""
    (a, b), d = int_tables([a, b])
    out = []
    for k in range(len(a)):
        col: dict[int, int] = {}
        apply_table(a, b[k], col)
        apply_table(b, a[k], col, -1)
        out.append([(r, Fraction(x, d * d * n)) for r, x in sorted(col.items()) if x])
    return out


def entries(t: Table) -> dict[tuple[int, int], Fraction]:
    """The table's nonzero entries as {(row, col): entry}."""
    return {(r, k): x for k, col in enumerate(t) for r, x in col}
