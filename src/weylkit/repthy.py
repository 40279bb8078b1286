"""Finite-dimensional modules with exact rational matrix models.

The irreducible module L(lambda) is built from lambda alone, as the
quotient of the Verma module M(lambda) by its maximal submodule:
``rootsys.verma_walk`` writes the simple e_i and f_i (it seeds each simple
type's structure constants the same way).  A module is the column table of
its matrices (the nonzero (row, entry) pairs of every column); the table
arithmetic is ``linalg``'s, and dense matrices come only from
``Module.action``.  The h_i and t_j columns are written from the weights,
and the other root vectors' from the simple ones by
``rootsys.root_vectors``, so building a module reads no structure constant.

Dimensions come from the Weyl formula and weight multiplicities from the
Freudenthal recursion, both on integers (every inner product is a
``Group.root_pairing`` of a weight with a combination of simple roots), and
the builder checks itself against both, and its sl2 pairs, before
returning.

Module descriptors elsewhere in the package are lists of (dominant label,
count) pairs; only this file hands out actual matrices.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Sequence

import numpy as np

from .errors import DimensionCapError, NonDominantError, ParseError, ensure
from .linalg import Table, commutator, densify, entries, fr, table_sum
from .linalg import rref  # noqa: F401  (unused here; the benchmark tracer and its tests patch repthy.rref)
from .rootsys import Group, root_vectors, verma_walk

DIM_CAP = 64

Weight = tuple[int, ...]


def check_label(group: Group, label: Sequence[int]) -> Weight:
    """Validate a dominant integral label; returns it as a plain tuple."""
    if len(label) != group.weight_len:
        raise ParseError(
            f"label length {len(label)} does not match weight length {group.weight_len}"
        )
    out = []
    for x in label:
        if int(x) != x:
            raise ParseError(f"label entries must be integers, got {x!r}")
        out.append(int(x))
    lab = tuple(out)
    if not group.is_dominant(lab):
        raise NonDominantError(f"label {lab} is not dominant")
    return lab


def weyl_dim(group: Group, label: Sequence[int]) -> int:
    """prod (lam + rho, alpha) / prod (rho, alpha) over the positive roots, on
    integers through group.root_pairing."""
    lab = check_label(group, label)
    shifted = tuple(x + y for x, y in zip(lab, group.rho))
    num = den = 1
    for c in group.posroots:
        num *= group.root_pairing(shifted, c)
        den *= group.root_pairing(group.rho, c)
    ensure(num % den == 0 and num > 0, f"Weyl dimension of {lab} is {num}/{den}")
    return num // den


def _add(u: Sequence[int], v: Sequence[int]) -> Weight:
    return tuple(x + y for x, y in zip(u, v))


def _sub(u: Sequence[int], v: Sequence[int]) -> Weight:
    return tuple(x - y for x, y in zip(u, v))


def dominant_weights(group: Group, label: Weight) -> list[tuple[tuple[int, ...], Weight]]:
    """Dominant weights below label as pairs (c, lam - sum c_i alpha_i), c_i >= 0.

    The inverse Cartan matrix of each simple factor has positive entries,
    so c = A^{-1}(fc(lam) - fc(mu)) is boxed by A^{-1} fc(lam).
    """
    r = group.rank
    if r == 0:
        return [((), label)]
    A, inv = group.cartan, group.cartan_inverse
    bound = [int(sum(inv[i, j] * label[j] for j in range(r))) for i in range(r)]  # floor, >= 0
    out = []
    for cs in itertools.product(*(range(b + 1) for b in bound)):
        fc = list(label[:r])
        for j, cj in enumerate(cs):
            if cj:
                for i in range(r):
                    fc[i] -= cj * A[i][j]
        if all(x >= 0 for x in fc):
            out.append((cs, tuple(fc) + tuple(label[r:])))
    # Sort by root height sum(c), not by the fundamental-coordinate drop:
    # the two disagree whenever a Cartan column sum is nonpositive (G2), and
    # the Freudenthal recursion needs every strictly-higher weight first.
    out.sort(key=lambda pair: sum(pair[0]))
    return out


_MULT_CACHE: dict[tuple[str, Weight], dict[Weight, int]] = {}


def weight_multiplicities(group: Group, label: Sequence[int]) -> dict[Weight, int]:
    """All weights of the irreducible module with the given highest weight,

    with multiplicities, by the Freudenthal recursion over dominant weights
    followed by Weyl-orbit expansion.  Every inner product is an integer
    group.root_pairing: for mu = lam - sum c_i alpha_i the denominator
    (lam + rho)^2 - (mu + rho)^2 is (lam + mu + 2 rho, sum c_i alpha_i)."""
    lab = check_label(group, label)
    key = (group.name, lab)
    if key in _MULT_CACHE:
        return _MULT_CACHE[key]
    shift = _add(lab, tuple(2 * x for x in group.rho))
    roots = [(c, group.root_fc(c)) for c in group.posroots]
    mdom: dict[Weight, int] = {}
    for cs, mu in dominant_weights(group, lab):
        if mu == lab:
            mdom[mu] = 1
            continue
        total = 0
        for c, a in roots:
            k = 1
            while True:
                nu = _add(mu, tuple(k * x for x in a))
                m = mdom.get(group.dom_rep(nu))
                if m is None:
                    break
                total += 2 * m * group.root_pairing(nu, c)
                k += 1
        den = group.root_pairing(_add(shift, mu), cs)
        ensure(den > 0, "Freudenthal denominator is not positive")
        m, rem = divmod(total, den)
        ensure(rem == 0 and m >= 1, "Freudenthal multiplicity is not a positive integer")
        mdom[mu] = m
    full = {w: m for mu, m in mdom.items() for w in group.orbit(mu)}
    ensure(sum(full.values()) == weyl_dim(group, lab), f"multiplicities of {lab} miss weyl_dim")
    _MULT_CACHE[key] = full
    return full


class Module:
    """An irreducible module in an explicit weight basis, held only as the
    column table its builder writes.

    ``columns[i][k]`` lists the nonzero (row, entry) pairs, rows ascending,
    of column k of the matrix of the i-th Lie algebra basis element of
    ``group``; ``weights[k]`` is the weight of the k-th basis vector, and
    basis vector 0 is a highest weight vector.  Every product the library
    forms runs over this table (h_i is diagonal, e_i and f_i have about one
    entry per column); ``action(x)`` is the one place a dense matrix is made.
    """

    def __init__(self, group: Group, label: Weight, weights: list[Weight], columns: list[Table]):
        self.group = group
        self.label = label
        self.weights = weights
        self.columns = columns
        self.dim = len(weights)

    def action(self, x: np.ndarray) -> np.ndarray:
        return densify(entries(table_sum(zip(x, self.columns), self.dim)), (self.dim, self.dim))

    def __repr__(self) -> str:
        return f"Module({self.group.name}, {self.label}, dim={self.dim})"


def basis_weight(group: Group, lab: tuple[str, object]) -> Weight:
    """The weight of a Lie algebra basis element: its root for e, minus its
    root for f, zero for h and t."""
    kind, which = lab
    if kind == "e":
        return group.root_fc(which)
    if kind == "f":
        return tuple(-x for x in group.root_fc(which))
    return (0,) * group.weight_len


def _diagonal(values: Sequence[int]) -> Table:
    """The table of the diagonal matrix with these entries."""
    return [[(k, fr(x))] if x else [] for k, x in enumerate(values)]


def _verify_generators(mod: Module) -> None:
    """Spot checks at construction time: weight grading and the sl2 pairs.

    The full homomorphism property needs no check here: the h_i, t_j, e_i
    and f_i columns are those of the quotient of the Verma module M(lambda)
    by the kernel of the raising maps, its maximal submodule (Humphreys,
    *Introduction to Lie Algebras and Representation Theory*, sec. 20-21),
    which rootsys.verma_walk writes relation by relation, and every other
    column comes from those by rootsys.root_vectors, as on the seeds, so
    the module is that quotient, a representation."""
    g = mod.group
    for i in range(g.rank):
        e, f = (mod.columns[g._index[(kind, g.simple_root(i))]] for kind in "ef")
        h = mod.columns[g._index[("h", i)]]
        ensure(h == _diagonal([w[i] for w in mod.weights]), "h_i is not diagonal with the weights on the basis")
        ensure(commutator(e, f, 1) == h, "[e_i, f_i] != h_i")


_MODULE_CACHE: dict[tuple[str, Weight], Module] = {}


def check_dim_cap(group: Group, lab: Weight) -> None:
    """Refuse a module of dimension above DIM_CAP, built or not."""
    if (n := weyl_dim(group, lab)) > DIM_CAP:
        raise DimensionCapError(f"module {lab} has dimension {n} > {DIM_CAP}")


def build_module(group: Group, label: Sequence[int]) -> Module:
    """Exact matrix model of the irreducible module with this highest weight.

    Raises DimensionCapError above dimension 64 (check_dim_cap).  On a
    2-vCPU x86 host (Python 3.11) a cold 64-dimensional build takes 2.5 ms
    (A1 (63)) to 11 ms (A2 (3, 3)), and an invariant count over it at most
    2 ms.  Bundle assembly over such a fiber takes 0.01-0.3 s over the
    Cartan or the full algebra and up to 1.9 s over a principal sl2, whose
    one Cartan row keeps more of the n^2 intertwiner unknowns; over an h
    with no Cartan row all 4,096 stay, and involution.MAX_NU_ENTRIES
    refuses the system.  The cap keeps the modules every command accepts
    desk-scale.
    """
    lab = check_label(group, label)
    key = (group.name, lab)
    if key in _MODULE_CACHE:
        return _MODULE_CACHE[key]
    check_dim_cap(group, lab)
    ss = lab[: group.rank] + (0,) * group.torus_dim
    if (group.name, ss) not in _MODULE_CACHE:
        _MODULE_CACHE[(group.name, ss)] = _build_irreducible(group, ss)
    mod = _MODULE_CACHE[(group.name, ss)]
    if group.torus_dim:
        chi = lab[group.rank :]
        weights = [w[: group.rank] + chi for w in mod.weights]
        columns = list(mod.columns)
        for j, c in enumerate(chi):
            columns[group._index[("t", j)]] = _diagonal([c] * mod.dim)
        mod = Module(group, lab, weights, columns)
    _MODULE_CACHE[key] = mod
    return mod


def _build_irreducible(group: Group, lab: Weight) -> Module:
    """L(lab) for a label with zero torus part: its weights and simple e_i and
    f_i from ``rootsys.verma_walk``, stopped past weyl_dim vectors, the
    other root vectors from those by ``rootsys.root_vectors``, and h_i and
    t_j acting on each basis vector by its weight."""
    expect = weyl_dim(group, lab)
    weights, E, F = verma_walk([group.root_fc(group.simple_root(i)) for i in range(group.rank)], lab, expect)
    n = len(weights)
    ensure(n == expect, f"built {n} vectors for {lab}, expected {expect}")
    ensure(Counter(weights) == weight_multiplicities(group, lab), f"weights of {lab} miss Freudenthal's")
    e, f = root_vectors(group.posroots, E, F)
    columns: list[Table] = [_diagonal([w[a] for w in weights]) for a in range(group.weight_len)]
    columns += [e[c] for c in group.posroots] + [f[c] for c in group.posroots]
    mod = Module(group, lab, weights, columns)
    _verify_generators(mod)
    return mod


# ---- character arithmetic ---------------------------------------------------


def module_character(group: Group, summands: Sequence[tuple[Sequence[int], int]]) -> dict[Weight, int]:
    """Weight multiset of a direct sum of irreducibles, given as (label,
    count) pairs; a count scales multiplicities, so its size costs nothing."""
    char: dict[Weight, int] = {}
    for lab, count in summands:
        for w, m in weight_multiplicities(group, lab).items():
            char[w] = char.get(w, 0) + count * m
    return char


def convolve_characters(c1: dict[Weight, int], c2: dict[Weight, int]) -> dict[Weight, int]:
    out: dict[Weight, int] = {}
    for w1, m1 in c1.items():
        for w2, m2 in c2.items():
            w = _add(w1, w2)
            out[w] = out.get(w, 0) + m1 * m2
    return out


def decompose_character(group: Group, char: dict[Weight, int]) -> dict[Weight, int]:
    """Write a genuine character as a sum of irreducibles.

    By the Weyl character formula, the multiplicity of V(lam) in a
    W-invariant character chi is the alternating sum
    m_lam = sum_w sign(w) chi(lam + rho - w rho)
    (the Brauer-Klimyk / Racah-Speiser rule; Humphreys, *Introduction to Lie
    Algebras and Representation Theory*, sec. 24).  A constituent's highest
    weight is a dominant weight of chi, so one pass over those, with |W|
    lookups each, finds every m_lam.  The sum trusts chi to be a character:
    a negative m_lam or a dimension that does not add up is refused.
    """
    shifts = [(_sub(group.rho, wrho), (-1) ** len(word)) for wrho, word in group.weyl_elements]
    out: dict[Weight, int] = {}
    for lam in char:
        if group.is_dominant(lam):
            m = sum(sign * char.get(_add(lam, s), 0) for s, sign in shifts)
            ensure(m >= 0, "negative multiplicity: not a character")
            if m:
                out[lam] = m
    total, expect = sum(m * weyl_dim(group, lam) for lam, m in out.items()), sum(char.values())
    ensure(total == expect, f"constituents have dimension {total}, not {expect}")
    return out


def tensor_decompose(
    group: Group, label1: Sequence[int], label2: Sequence[int]
) -> dict[Weight, int]:
    """Multiplicities of irreducibles in V(label1) (x) V(label2)."""
    l1 = check_label(group, label1)
    l2 = check_label(group, label2)
    char = convolve_characters(
        weight_multiplicities(group, l1), weight_multiplicities(group, l2)
    )
    return decompose_character(group, char)
