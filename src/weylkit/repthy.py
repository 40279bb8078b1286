"""Finite-dimensional modules with exact rational matrix models.

Irreducible modules are built by generating the cyclic submodule of a
highest weight vector inside a tensor product of two smaller modules, with
all elimination done over the rationals (de Graaf, *Lie Algebras: Theory
and Algorithms*, 2000).  There is one rule for that vector: it spans the
vectors of weight lambda in the tensor product that every simple raising
operator kills, a kernel that must be one-dimensional.  The tensor product
is never formed as matrices; its action is applied factor by factor.
Dimensions come from the Weyl formula and weight multiplicities from the
Freudenthal recursion, and the builder cross-checks itself against both
before returning.

Module descriptors elsewhere in the package are plain lists of dominant
labels (repetition encodes multiplicity); only this file hands out actual
matrices.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .errors import DimensionCapError, InternalInvariantError, NonDominantError, ParseError
from .linalg import F0, F1, SpanBasis, column_stack, combine, eye, fr, fvec, is_zero
from .linalg import nullspace, zeros
from .linalg import rref  # noqa: F401  (unused here; the benchmark tracer and its tests patch repthy.rref)
from .rootsys import Group

DIM_CAP = 64

Weight = tuple[int, ...]


def _check(ok: bool, what: str) -> None:
    """A check that a verdict rests on; unlike assert, kept under python -O."""
    if not ok:
        raise InternalInvariantError(what)


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
    lab = check_label(group, label)
    num = F1
    den = F1
    for c in group.posroots:
        a = group.root_fc(c)
        num *= group.wform(_add(lab, group.rho), a)
        den *= group.wform(group.rho, a)
    d = num / den
    _check(d.denominator == 1 and d > 0, f"Weyl dimension of {lab} is {d}")
    return int(d)


def _add(u: Sequence[int], v: Sequence[int]) -> Weight:
    return tuple(x + y for x, y in zip(u, v))


def _sub(u: Sequence[int], v: Sequence[int]) -> Weight:
    return tuple(x - y for x, y in zip(u, v))


def dominant_weights(group: Group, label: Weight) -> list[Weight]:
    """Dominant weights below label: lam - sum c_i alpha_i with c_i >= 0.

    The inverse Cartan matrix of each simple factor has positive entries,
    so c = A^{-1}(fc(lam) - fc(mu)) is boxed by A^{-1} fc(lam).
    """
    r = group.rank
    if r == 0:
        return [label]
    A = group.cartan_matrix
    bound = [int(x) for x in group.cartan_inverse @ fvec(label[:r])]  # floor; entries are >= 0
    out = []
    for cs in itertools.product(*(range(b + 1) for b in bound)):
        fc = list(label[:r])
        for j, cj in enumerate(cs):
            if cj:
                for i in range(r):
                    fc[i] -= cj * int(A[i, j])
        if all(x >= 0 for x in fc):
            out.append((sum(cs), tuple(fc) + tuple(label[r:])))
    # Sort by root height sum(cs), not by the fundamental-coordinate drop:
    # the two disagree whenever a Cartan column sum is nonpositive (G2), and
    # the Freudenthal recursion needs every strictly-higher weight first.
    out.sort(key=lambda pair: pair[0])
    return [mu for _, mu in out]


_MULT_CACHE: dict[tuple[str, Weight], dict[Weight, int]] = {}


def weight_multiplicities(group: Group, label: Sequence[int]) -> dict[Weight, int]:
    """All weights of the irreducible module with the given highest weight,

    with multiplicities, by the Freudenthal recursion over dominant weights
    followed by Weyl-orbit expansion."""
    lab = check_label(group, label)
    key = (group.name, lab)
    if key in _MULT_CACHE:
        return _MULT_CACHE[key]
    doms = dominant_weights(group, lab)
    rho = group.rho
    lam_norm = group.wform(_add(lab, rho), _add(lab, rho))
    mdom: dict[Weight, int] = {}
    for mu in doms:
        if mu == lab:
            mdom[mu] = 1
            continue
        total = F0
        for c in group.posroots:
            a = group.root_fc(c)
            k = 1
            while True:
                nu = _add(mu, tuple(k * x for x in a))
                m = mdom.get(group.dom_rep(nu))
                if m is None:
                    break
                total += 2 * m * group.wform(nu, a)
                k += 1
        den = lam_norm - group.wform(_add(mu, rho), _add(mu, rho))
        _check(den > 0, f"Freudenthal denominator at {mu} is {den}")
        m = total / den
        _check(m.denominator == 1 and m >= 1, f"Freudenthal multiplicity at {mu} is {m}")
        mdom[mu] = int(m)
    full: dict[Weight, int] = {}
    for mu, m in mdom.items():
        for w in group.weyl_elements:
            full[group.apply_weyl(w, mu)] = m
    _check(sum(full.values()) == weyl_dim(group, lab), f"multiplicities of {lab} miss weyl_dim")
    _MULT_CACHE[key] = full
    return full


class Module:
    """An irreducible module in an explicit weight basis.

    ``act[i]`` is the matrix of the i-th Lie algebra basis element of
    ``group``; ``weights[k]`` is the weight of the k-th basis vector, and
    basis vector 0 is a highest weight vector.
    """

    def __init__(self, group: Group, label: Weight, weights: list[Weight], act: list[np.ndarray]):
        self.group = group
        self.label = label
        self.weights = weights
        self.act = act
        self.dim = len(weights)

    def action(self, x: np.ndarray) -> np.ndarray:
        return combine(x, self.act, (self.dim, self.dim))

    def __repr__(self) -> str:
        return f"Module({self.group.name}, {self.label}, dim={self.dim})"


def _tensor_apply(x1: np.ndarray, x2: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(x1 (x) 1 + 1 (x) x2) v, without forming either Kronecker product.

    Coordinate a * n2 + b of v is e_a (x) e_b.  Only nonzero coordinates of
    v and nonzero entries of x1 and x2 are visited: module vectors and
    matrices are supported on few of theirs."""
    n1, n2 = len(x1), len(x2)
    out = zeros(n1, n2)
    for k in np.flatnonzero(v):
        a, b = divmod(k, n2)
        i = np.flatnonzero(x1[:, a])
        out[i, b] += v[k] * x1[i, a]
        j = np.flatnonzero(x2[:, b])
        out[a, j] += v[k] * x2[j, b]
    return out.reshape(-1)


def _extract_submodule(group: Group, m1: Module, m2: Module, label: Weight) -> Module:
    """The irreducible of highest weight label inside m1 (x) m2.

    Its highest weight vector spans the weight-label vectors of m1 (x) m2
    killed by every simple raising operator; the module is the cyclic span
    of that vector under the lowering operators, with the action of every
    basis element restricted to it and rewritten in the new basis."""
    amb = list(zip(m1.act, m2.act))  # the ambient action, in basis order
    amb_weights = [_add(w1, w2) for w1 in m1.weights for w2 in m2.weights]
    adim = len(amb_weights)
    es = [amb[group._index[("e", group.simple_root(i))]] for i in range(group.rank)]
    fs = [amb[group._index[("f", group.simple_root(i))]] for i in range(group.rank)]

    positions = [k for k, w in enumerate(amb_weights) if w == label]
    cols = []
    for p in positions:
        unit = zeros(adim)
        unit[p] = F1
        cols.append(np.concatenate([_tensor_apply(*e, unit) for e in es]))
    raising = column_stack(cols)
    ker = nullspace(raising[[not is_zero(row) for row in raising]])
    _check(len(ker) == 1, f"highest weight vector of {label} is not unique")
    v0 = zeros(adim)
    v0[positions] = ker[0]

    span = SpanBasis(adim)
    _check(span.add(v0), "highest weight vector is zero")
    basis = [v0]
    bweights = [label]
    queue = [0]
    alphas = [group.root_fc(group.simple_root(i)) for i in range(group.rank)]
    while queue:
        b = queue.pop(0)
        for i in range(group.rank):
            w = _tensor_apply(*fs[i], basis[b])
            if not is_zero(w) and span.add(w):
                basis.append(w)
                bweights.append(_sub(bweights[b], alphas[i]))
                queue.append(len(basis) - 1)
    n = len(basis)
    expect = weyl_dim(group, label)
    _check(n == expect, f"built {n} vectors for {label}, expected {expect}")
    mults: dict[Weight, int] = {}
    for w in bweights:
        mults[w] = mults.get(w, 0) + 1
    _check(mults == weight_multiplicities(group, label), f"weights of {label} miss Freudenthal's")

    act = []
    for x in amb:
        mat = zeros(n, n)
        for k in range(n):
            coords = span.express(_tensor_apply(*x, basis[k]))
            _check(coords is not None, "action left the generated submodule")
            mat[:, k] = coords
        act.append(mat)
    mod = Module(group, label, bweights, act)
    _verify_generators(mod)
    return mod


def _verify_generators(mod: Module) -> None:
    """Spot checks at construction time: weight grading and the sl2 pairs.

    The full homomorphism property needs no check here: every matrix is the
    restriction of a tensor product of representations to a subspace that
    _extract_submodule found invariant under every basis element, and a
    restriction of a representation to an invariant subspace is one.
    Column k of [e_i, f_i] is e_i (f_i col k) - f_i (e_i col k), two sparse
    matvecs taken as combine(col, m.T)."""
    g = mod.group
    n = mod.dim
    for i in range(g.rank):
        e = mod.act[g._index[("e", g.simple_root(i))]]
        f = mod.act[g._index[("f", g.simple_root(i))]]
        h = mod.act[g._index[("h", i)]]
        for k, w in enumerate(mod.weights):
            col = h[:, k]
            _check(
                col[k] == w[i] and all(col[a] == 0 for a in range(n) if a != k),
                f"h_{i} is not diagonal with the weights on the basis",
            )
            ef = combine(f[:, k], e.T, (n,)) - combine(e[:, k], f.T, (n,))
            _check(is_zero(ef - col), f"[e_{i}, f_{i}] != h_{i}")


_MODULE_CACHE: dict[tuple[str, Weight], Module] = {}


def build_module(group: Group, label: Sequence[int]) -> Module:
    """Exact matrix model of the irreducible module with this highest weight.

    Raises DimensionCapError above dimension 64: everything downstream does
    dense rational elimination, and the cap keeps worst cases desk-scale.
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
        act = list(mod.act)
        for j in range(group.torus_dim):
            act[group._index[("t", j)]] = fr(chi[j]) * eye(mod.dim)
        mod = Module(group, lab, weights, act)
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
        act = [zeros(1, 1) for _ in range(group.dim)]
        mod = Module(group, lab, [lab], act)
    else:
        i0 = next(i for i in range(group.rank) if lab[i] > 0)
        if height == 1:
            fi = next(
                k for k, o in enumerate(group._offsets)
                if o <= i0 < o + group.factors[k]["rank"]
            )
            m1 = m2 = _seed_module(group, fi)
        else:
            mu = tuple(1 if i == i0 else 0 for i in range(group.rank)) + (0,) * group.torus_dim
            m1 = _build_ss(group, mu)
            m2 = _build_ss(group, _sub(lab, mu))
        mod = m1 if m1.label == lab else _extract_submodule(group, m1, m2, lab)
    _MODULE_CACHE[key] = mod
    return mod


def _seed_module(group: Group, fi: int) -> Module:
    """The seed fundamental of factor fi, embedded in the product algebra;
    its weights are the diagonals of its Cartan matrices."""
    f = group.factors[fi]
    o = group._offsets[fi]
    n = f["n"]
    act: dict[tuple[str, object], np.ndarray] = {}
    for lab in group.basis_labels:
        act[lab] = zeros(n, n)
    for i in range(f["rank"]):
        act[("h", o + i)] = f["h"][i]
    for c in f["posroots"]:
        full = [0] * group.rank
        full[o : o + f["rank"]] = c
        act[("e", tuple(full))] = f["e"][c]
        act[("f", tuple(full))] = f["f"][c]
    weights = []
    for a in range(n):
        full = [0] * group.weight_len
        full[o : o + f["rank"]] = [int(h[a, a]) for h in f["h"]]
        weights.append(tuple(full))
    return Module(group, weights[0], weights, [act[lab] for lab in group.basis_labels])


# ---- character arithmetic ---------------------------------------------------


def module_character(group: Group, labels: Sequence[Sequence[int]]) -> dict[Weight, int]:
    """Weight multiset of a direct sum of irreducibles."""
    char: dict[Weight, int] = {}
    for lab in labels:
        for w, m in weight_multiplicities(group, lab).items():
            char[w] = char.get(w, 0) + m
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

    Strips from the top: among remaining dominant weights, any one with
    maximal (mu+rho, mu+rho) must be a highest weight of a constituent.
    """
    work = {w: m for w, m in char.items() if m}
    out: dict[Weight, int] = {}
    rho = group.rho
    while work:
        doms = [w for w in work if group.is_dominant(w)]
        _check(bool(doms), "character has no dominant weight left")
        top = max(doms, key=lambda w: (group.wform(_add(w, rho), _add(w, rho)), w))
        mult = work[top]
        _check(mult > 0, f"negative multiplicity at {top}: not a character")
        out[top] = out.get(top, 0) + mult
        for w, m in weight_multiplicities(group, top).items():
            rem = work.get(w, 0) - mult * m
            _check(rem >= 0, "character stripping went negative")
            if rem:
                work[w] = rem
            else:
                work.pop(w, None)
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
