"""Finite-dimensional modules with exact rational matrix models.

Irreducible modules are built by generating the cyclic submodule of a
highest weight vector inside a tensor product of two smaller modules, with
exact fraction-free elimination (de Graaf, *Lie Algebras: Theory and
Algorithms*, 2000).  That vector spans the weight-lambda vectors of the
tensor product that every simple raising operator kills, a kernel that must
be one-dimensional.  A module is the column table of its matrices (the
nonzero (row, entry) pairs of every column), written as each image is
expressed in the new basis; the table arithmetic is ``linalg``'s, and
dense matrices come only from ``Module.action``.  The tensor product's
action is applied factor by factor from those tables to sparse vectors,
never formed as matrices, one weight space at a time and only for the
simple e_i and f_i (``_extract_submodule`` says how the other columns
follow).

That work runs on int vectors: the simple e_i and f_i of both factors are
scaled by one common d, the lcm of their denominators, and the highest
weight vector is cleared to int.  Each lowering step multiplies by d, so
the retained vector of weight w is c d^t times the rational one (c fixed,
t = height(w), the depth of w below the highest weight).  Then d f_i of it
has the rational coordinates over the vectors of height t + 1, and d e_i
of it d^2 times them over those of height t - 1: the f_i columns are
``express`` as it stands and the e_i columns are ``express`` / d^2.

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
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DimensionCapError, NonDominantError, ParseError, ensure
from .linalg import F1, SpanBasis, Table, commutator, densify, entries, fr, int_tables, integral, nullspace, table_sum
from .linalg import rref  # noqa: F401  (unused here; the benchmark tracer and its tests patch repthy.rref)
from .rootsys import Group

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


def _tensor_apply(cols1: list, cols2: list, v: dict, n2: int) -> dict:
    """(x1 (x) 1 + 1 (x) x2) v for x1, x2 given by their column tables, where
    coordinate a * n2 + b of v is e_a (x) e_b; entries that cancel are dropped."""
    out: dict = {}
    for k, c in v.items():
        a, b = divmod(k, n2)
        for p, x in [(i * n2 + b, x) for i, x in cols1[a]] + [(a * n2 + j, x) for j, x in cols2[b]]:
            out[p] = out.get(p, 0) + c * x
    return {p: c for p, c in out.items() if c}


def basis_weight(group: Group, lab: tuple[str, object]) -> Weight:
    """The weight of a Lie algebra basis element: its root for e, minus its
    root for f, zero for h and t."""
    kind, which = lab
    if kind == "e":
        return group.root_fc(which)
    if kind == "f":
        return tuple(-x for x in group.root_fc(which))
    return (0,) * group.weight_len


def _extract_submodule(group: Group, m1: Module, m2: Module, label: Weight) -> Module:
    """The irreducible of highest weight label inside m1 (x) m2.

    Its highest weight vector spans the weight-label vectors of m1 (x) m2
    killed by every simple raising operator; the module is the cyclic span
    of that vector under the lowering operators.

    The span is kept one weight at a time: every vector met is a sparse
    vector of known weight (that of v plus that of x for an image x . v),
    reduced only against the retained vectors of its own weight.  Weight
    spaces are independent, so these coordinates are the coordinates over
    the whole basis.  The lowering pass holds every f_i . v, so it writes
    the simple f_i columns as it goes: a retained image is its own basis
    vector, any other is expressed at once.  The simple e_i columns are the
    only other images taken in the ambient space.  Every other column
    follows from these: h_i and t_j act on each basis vector by its weight
    (checked on both factors first), and for a root c = alpha_i + c' of
    height 2 or more, [x_alpha_i, x_c'] = N x_c (x = e or f, N from the
    structure constants) gives x_c as a commutator of columns already written
    (Humphreys, *Introduction to Lie Algebras and Representation Theory*,
    sec. 25)."""
    # the h_i and t_j columns are written from the weights, which restricts
    # the ambient action only if both factors' h_i and t_j act by theirs
    for m in (m1, m2):
        for a in range(group.weight_len):  # h_0 .. h_{r-1}, t_0 .. t_{k-1}
            diagonal = ([(k, w[a])] if w[a] else [] for k, w in enumerate(m.weights))
            ensure(all(col == want for col, want in zip(m.columns[a], diagonal)), "image left its weight space")
    eidx = [group._index[("e", group.simple_root(i))] for i in range(group.rank)]
    fidx = [group._index[("f", group.simple_root(i))] for i in range(group.rank)]
    # the ambient simple e_i and f_i of both factors, times one common d
    ints, d = int_tables([m.columns[j] for j in eidx + fidx for m in (m1, m2)])
    amb = dict(zip(eidx + fidx, zip(ints[::2], ints[1::2])))
    amb_weights = [_add(w1, w2) for w1 in m1.weights for w2 in m2.weights]
    dws = [basis_weight(group, lab) for lab in group.basis_labels]

    positions = [k for k, w in enumerate(amb_weights) if w == label]
    # column c of the raising system holds entry q of e_i . positions[c] at (i, q)
    raising = [
        {(i, q): x for i, j in enumerate(eidx) for q, x in _tensor_apply(*amb[j], {p: 1}, m2.dim).items()}
        for p in positions
    ]
    ker = nullspace(raising)
    ensure(len(ker) == 1, f"highest weight vector of {label} is not unique")
    v0 = integral({positions[c]: x for c, x in ker[0].items()})[0]

    spans: dict[Weight, SpanBasis] = {}  # over ambient positions, one per weight
    members: dict[Weight, list[int]] = {}  # the basis index of each retained vector
    basis: list[dict[int, int]] = []
    bweights: list[Weight] = []

    def act(j: int, k: int) -> tuple[dict[int, int], Weight]:
        """d times basis element j applied to basis vector k, and the weight of the image."""
        im, w = _tensor_apply(*amb[j], basis[k], m2.dim), _add(bweights[k], dws[j])
        ensure(all(amb_weights[q] == w for q in im), "image left its weight space")
        return im, w

    def column(v: dict[int, int], w: Weight) -> list[tuple[int, Fraction]]:
        """The column of an image v of weight w over the retained vectors."""
        if not v:
            return []
        coords = spans[w].express(v) if w in spans else None
        ensure(coords is not None, "action left the generated submodule")
        # members[w] ascends, so the rows of the column do too
        return [(members[w][j], c) for j, c in coords]

    def retain(v: dict[int, int], w: Weight) -> bool:
        if not v or not spans.setdefault(w, SpanBasis()).add(v):
            return False
        members.setdefault(w, []).append(len(basis))
        basis.append(v)
        bweights.append(w)
        return True

    ensure(retain(v0, label), "highest weight vector is zero")
    columns: list[Table] = [[] for _ in range(group.dim)]
    queue = [0]
    while queue:
        b = queue.pop(0)  # b runs through 0, 1, 2, ..., so columns come in order
        for j in fidx:
            im, w = act(j, b)
            if retain(im, w):
                queue.append(len(basis) - 1)
                columns[j].append([(len(basis) - 1, F1)])
            else:
                columns[j].append(column(im, w))
    n = len(basis)
    expect = weyl_dim(group, label)
    ensure(n == expect, f"built {n} vectors for {label}, expected {expect}")
    ensure(Counter(bweights) == weight_multiplicities(group, label), f"weights of {label} miss Freudenthal's")

    for a in range(group.weight_len):
        columns[a] = [[(k, fr(w[a]))] if w[a] else [] for k, w in enumerate(bweights)]
    for j in eidx:  # see the module docstring for the d^2
        columns[j] = [[(r, c / (d * d)) for r, c in column(*act(j, k))] for k in range(n)]
    posroots = set(group.posroots)
    for c in group.posroots[group.rank :]:  # height 2 and up, in height order
        alpha = next(a for a in map(group.simple_root, range(group.rank)) if _sub(c, a) in posroots)
        for kind in "ef":
            x, y, z = (group._index[(kind, root)] for root in (alpha, _sub(c, alpha), c))
            bracket = group._ad_columns[x][y]  # [x, y] = N z
            ensure(len(bracket) == 1 and bracket[0][0] == z, "bracket of two root vectors left its root space")
            columns[z] = commutator(columns[x], columns[y], bracket[0][1])
    mod = Module(group, label, bweights, columns)
    _verify_generators(mod)
    return mod


def _verify_generators(mod: Module) -> None:
    """Spot checks at construction time: weight grading and the sl2 pairs.

    The full homomorphism property needs no check here: the h_i, t_j, e_i
    and f_i columns are the restriction of a tensor product of
    representations to a subspace that _extract_submodule found invariant
    under the e_i and f_i, which generate the algebra, and every other
    column is the commutator the structure constants prescribe, so the
    module is that restriction of a representation."""
    g = mod.group
    for i in range(g.rank):
        e, f = (mod.columns[g._index[(kind, g.simple_root(i))]] for kind in "ef")
        h = mod.columns[g._index[("h", i)]]
        diagonal = [[(k, w[i])] if w[i] else [] for k, w in enumerate(mod.weights)]
        ensure(h == diagonal, "h_i is not diagonal with the weights on the basis")
        ensure(commutator(e, f, 1) == h, "[e_i, f_i] != h_i")


_MODULE_CACHE: dict[tuple[str, Weight], Module] = {}


def build_module(group: Group, label: Sequence[int]) -> Module:
    """Exact matrix model of the irreducible module with this highest weight.

    Raises DimensionCapError above dimension 64.  The builder,
    sympoly.invariant_multiplicity and involution's fibers read the column
    tables and eliminate on sparse rows, but the intertwiner system has n^2
    unknowns for a module of dimension n.  The cap keeps its worst cases
    desk-scale.
    """
    lab = check_label(group, label)
    key = (group.name, lab)
    if key in _MODULE_CACHE:
        return _MODULE_CACHE[key]
    if weyl_dim(group, lab) > DIM_CAP:
        raise DimensionCapError(
            f"module {lab} has dimension {weyl_dim(group, lab)} > {DIM_CAP}"
        )
    ss = lab[: group.rank] + (0,) * group.torus_dim
    mod = _build_ss(group, ss)
    if group.torus_dim:
        chi = lab[group.rank :]
        weights = [w[: group.rank] + chi for w in mod.weights]
        columns = list(mod.columns)
        for j, c in enumerate(chi):
            columns[group._index[("t", j)]] = [[(k, fr(c))] if c else [] for k in range(mod.dim)]
        mod = Module(group, lab, weights, columns)
    _MODULE_CACHE[key] = mod
    return mod


def _build_ss(group: Group, lab: Weight) -> Module:
    """The module of a label with zero torus part.  At height 1 it is the
    seed module of its factor or lies in that seed's tensor square; above,
    it lies in V(omega_i0) (x) V(lab - omega_i0), i0 its first nonzero entry."""
    key = (group.name, lab)
    if key in _MODULE_CACHE:
        return _MODULE_CACHE[key]
    height = sum(lab[: group.rank])
    if height == 0:
        mod = Module(group, lab, [lab], [[[]] for _ in range(group.dim)])
    else:
        i0 = next(i for i in range(group.rank) if lab[i] > 0)
        if height == 1:
            m1 = m2 = _seed_module(group, next(s for s in group.factor_seeds if ("h", i0) in s))
        else:
            mu = tuple(1 if i == i0 else 0 for i in range(group.rank)) + (0,) * group.torus_dim
            m1 = _build_ss(group, mu)
            m2 = _build_ss(group, _sub(lab, mu))
        mod = m1 if m1.label == lab else _extract_submodule(group, m1, m2, lab)
    _MODULE_CACHE[key] = mod
    return mod


def _seed_module(group: Group, seeds: dict) -> Module:
    """The seed fundamental of one factor (an entry of group.factor_seeds),
    zero on the other factors; its weights are the diagonals of the h_i.
    Each of its basis vectors is moved by some e_c or f_c, as in any
    irreducible module of dimension above 1, so the seeds' entries span it."""
    n = 1 + max(max(p) for m in seeds.values() for p in m)
    mats = [seeds.get(lab, {}) for lab in group.basis_labels]
    weights = [tuple(h.get((a, a), 0) for h in mats[: group.rank]) + (0,) * group.torus_dim for a in range(n)]
    columns = [[[(i, fr(x)) for (i, k), x in sorted(m.items()) if k == col] for col in range(n)] for m in mats]
    return Module(group, weights[0], weights, columns)


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
