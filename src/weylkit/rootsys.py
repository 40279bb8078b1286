"""Root data, Chevalley bases, and Weyl groups for reductive types of rank <= 3.

Supported descriptors: products of A1, A2, B2, G2 joined by "x", with an
optional central torus suffix "+Tk"; total rank (simple ranks plus k) at
most 3.  Weights and root-space labels use fundamental-weight coordinates
for the semisimple part followed by k integer torus coordinates.

The Weyl group is held on integers only: one breadth-first closure under
the simple reflections gives the roots of each simple type (the orbit of its
simple roots), the orbit of any weight, and W itself as the orbit of rho,
each element w as w(rho) and a reduced word; w0 is the last element that
closure reaches.  A simple type is its Cartan matrix: structure constants
come from its seed module, one fundamental L(omega_s) built by
``verma_walk``, the breadth-first Verma-quotient walk that builds every
irreducible module (the defining modules for A1/A2, the 4-dimensional
spinor for B2, the 7-dimensional module for G2).  Root vectors for
non-simple roots are generated by the extraspecial-pair recursion, which
pins every sign.  Each seed commutator is expressed within its weight
space, and one table of the nonzero constants, exact over the rationals,
drives ad, the bracket and exp(ad x).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import lcm, prod
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateInputError,
    NonNilpotentDirectionError,
    NotSubalgebraError,
    ParseError,
    UnknownNameError,
    UnsupportedTypeError,
    ensure,
)
from .linalg import F0, F1, SpanBasis, Table, apply_table, commutator, densify, eliminate, entries, eye, fr, image, rref, sparse, table_sum, zeros

# Cartan matrices use the convention A[i][j] = <alpha_j, alpha_i^vee>, so
# column j holds the fundamental-weight coordinates of alpha_j.  d[i] is the
# half squared length of alpha_i (short roots normalized to length^2 = 2).
# A simple type is (A, d, s): its seed module is L(omega_s), built by
# verma_walk from A alone.  A Chevalley basis and its structure constants
# are fixed by A and the signs on extraspecial pairs (Humphreys, sec. 25;
# Carter, *Simple Groups of Lie Type*, sec. 4.2), so any faithful seed gives
# the same constants.
_SEED_DATA = {
    "A1": ([[2]], [1], 0),
    "A2": ([[2, -1], [-1, 2]], [1, 1], 0),
    "B2": ([[2, -1], [-2, 2]], [2, 1], 1),  # alpha_1 long; the 4-dimensional spinor module
    "G2": ([[2, -3], [-1, 2]], [1, 3], 0),  # alpha_1 short; the 7-dimensional module
}
# A seed walk stops past this many vectors: one of finite type closes far
# below it, and a Cartan matrix of any other type never closes.
_SEED_LIMIT = 64

MAX_RANK = 3  # simple ranks plus torus dimension

Weight = tuple[int, ...]


def _commutator(a: dict, b: dict) -> dict[tuple[int, int], int]:
    """ab - ba for sparse int matrices {(row, col): nonzero entry}, as one."""
    out: dict[tuple[int, int], int] = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for ((i, j), s), ((k, l), t) in product(x.items(), y.items()):
            if j == k:
                out[i, l] = out.get((i, l), 0) + sign * s * t
    return {p: v for p, v in out.items() if v != 0}


def _unit(r: int, i: int) -> tuple[int, ...]:
    return tuple(1 if k == i else 0 for k in range(r))


def _closure(seeds: Iterable[Weight], reflect, rank: int) -> dict[Weight, tuple[int, ...]]:
    """Breadth-first closure of seeds under the simple reflections.

    Maps each point reached to a word (i_1, ..., i_k) with s_i1 ... s_ik
    taking a seed to it, in the order reached; reflect(point, i) is s_i.
    Each level prepends one letter, so a word is as short as any other
    word reaching that point from the seeds."""
    seen = {p: () for p in seeds}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for i in range(rank):
                img = reflect(p, i)
                if img not in seen:
                    seen[img] = (i,) + seen[p]
                    nxt.append(img)
        frontier = nxt
    return seen


def _positive_roots(A: list[list[int]]) -> list[tuple[int, ...]]:
    """Positive roots in simple coordinates, in (height, lex) order.

    Every root is W-conjugate to a simple root (Humphreys, *Introduction to
    Lie Algebras and Representation Theory*, sec. 10.3), so the roots are the
    closure of the simple roots under s_i(c) = c - (Ac)_i alpha_i."""
    r = len(A)

    def reflect(c: tuple[int, ...], i: int) -> tuple[int, ...]:
        pairing = sum(A[i][k] * c[k] for k in range(r))
        return tuple(x - pairing if k == i else x for k, x in enumerate(c))

    roots = _closure([_unit(r, i) for i in range(r)], reflect, r)
    return sorted((c for c in roots if min(c) >= 0), key=lambda c: (sum(c), c))


def verma_walk(alphas: Sequence[Weight], label: Weight, limit: int) -> tuple[list[Weight], list[Table], list[Table]]:
    """The irreducible module L(label) as (weights, E, F): the weight of each
    basis vector and the column tables of the simple e_i and f_i, alphas[i]
    being alpha_i in the coordinates of label.  The walk stops once it
    holds more than limit vectors, so one that never closes (a Cartan
    matrix not of finite type, or a limit below the dimension) ends, and
    the caller checks the count.

    L(label) is the quotient of the Verma module M(label) by its maximal
    submodule (Humphreys, sec. 20-21; de Graaf, *Lie Algebras: Theory and
    Algorithms*, 2000).  A vector of weight below label is zero in it iff
    every simple e_i kills it, so a set of such vectors is dependent iff
    their images under all the e_i are.  Basis vector 0 is the highest
    weight vector, and vectors are numbered in the order they are kept.
    Popping them in that order pops every vector of height t (depth below
    label) before any of height t + 1, so when u_b is popped the e_i
    columns of u_b, which land at height t - 1, and the f_j columns of
    those vectors are written.  For each f_j, the candidate f_j u_b has the
    e_i-images ("signature") f_j e_i u_b + delta_ij <wt_b, alpha_i^vee> u_b,
    {(i, row): entry}.  An empty signature means f_j u_b = 0; otherwise one
    ``SpanBasis`` per weight over the signatures keeps the candidate as a new
    basis vector (its e_i columns are its signature) or expresses it over
    those already kept (its f_j column)."""
    r = len(alphas)
    E: list[Table] = [[[]] for _ in range(r)]  # E[i][k]: column k of e_i
    F: list[Table] = [[] for _ in range(r)]
    weights = [label]
    spans: dict[Weight, SpanBasis] = {}  # over the signatures, one per weight
    members: dict[Weight, list[int]] = {}  # the basis index of each kept vector
    b = 0
    while b < len(weights) <= limit:
        wb = weights[b]
        for j in range(r):
            parts = []
            for i in range(r):
                col: dict = {}
                apply_table(F[j], E[i][b], col)
                if i == j and wb[i]:  # [e_i, f_i] = h_i
                    col[b] = col.get(b, F0) + wb[i]
                parts.append([(row, x) for row, x in sorted(col.items()) if x])
            sig = {(i, row): x for i, part in enumerate(parts) for row, x in part}
            if not sig:
                F[j].append([])
                continue
            w = tuple(x - y for x, y in zip(wb, alphas[j]))
            span = spans.setdefault(w, SpanBasis())
            if span.add(sig):
                members.setdefault(w, []).append(len(weights))
                F[j].append([(len(weights), F1)])
                for i in range(r):
                    E[i].append(parts[i])
                weights.append(w)
            else:  # members[w] ascends, so the rows of the column do too
                F[j].append([(members[w][k], x) for k, x in span.express(sig)])
        b += 1
    return weights, E, F


@lru_cache(maxsize=None)
def _factor(letter: str) -> dict:
    """Chevalley generator matrices for one simple type on its seed module
    L(omega_s), every positive root, each an exact sparse matrix
    {(row, col): nonzero entry}."""
    A, d, s = _SEED_DATA[letter]
    r = len(A)
    alphas = [tuple(row[j] for row in A) for j in range(r)]
    weights, E, F = verma_walk(alphas, _unit(r, s), _SEED_LIMIT)
    ensure(len(weights) <= _SEED_LIMIT, f"seed walk of {letter} passed {_SEED_LIMIT} vectors")
    posroots = _positive_roots(A)
    allroots = set(posroots) | {tuple(-x for x in c) for c in posroots}
    e = {_unit(r, i): E[i] for i in range(r)}
    f = {_unit(r, i): F[i] for i in range(r)}

    # Extraspecial pairs: for gamma of height >= 2 take the decomposition
    # gamma = xi + eta with xi minimal in (height, lex) order; then
    # [e_xi, e_eta] = (p+1) e_gamma fixes e_gamma with a positive constant,
    # p being the depth of the xi-string below eta, and f_gamma takes the
    # opposite sign.  Lower heights come first, so e_eta is already set.
    for gamma in posroots[r:]:
        xi = next(
            c for c in posroots
            if tuple(g - x for g, x in zip(gamma, c)) in allroots and c != gamma
        )
        eta = tuple(g - x for g, x in zip(gamma, xi))
        p = 0
        while tuple(y - (p + 1) * x for y, x in zip(eta, xi)) in allroots:
            p += 1
        e[gamma] = commutator(e[xi], e[eta], p + 1)
        f[gamma] = commutator(f[eta], f[xi], p + 1)

    return {
        "rank": r,
        "A": A,
        "d": list(d),
        "posroots": posroots,
        "h": [{(a, a): w[i] for a, w in enumerate(weights) if w[i]} for i in range(r)],
        "e": {c: entries(t) for c, t in e.items()},
        "f": {c: entries(t) for c, t in f.items()},
    }


class Group:
    """A connected reductive group descriptor with exact Chevalley data.

    Instances are interned by ``parse_group``; identity comparison is fine.
    Lie algebra basis order: coroots h_0..h_{r-1}, central torus directions
    t_0..t_{k-1}, then e_gamma over positive roots in (height, lex) order,
    then f_gamma in the same root order.
    """

    def __init__(self, letters: tuple[str, ...], torus_dim: int, name: str):
        self.letters = letters
        self.torus_dim = torus_dim
        self.name = name
        self.factors = [_factor(s) for s in letters]
        self.rank = sum(f["rank"] for f in self.factors)
        self.weight_len = self.rank + torus_dim

    def __repr__(self) -> str:
        return f"Group({self.name!r})"

    # ---- root bookkeeping -------------------------------------------------

    @cached_property
    def factor_seeds(self) -> list[dict[tuple[str, object], dict[tuple[int, int], Fraction]]]:
        """The one embedding of each simple factor into the product algebra:
        per factor, its exact sparse seed matrices {(row, col): entry} keyed by
        product basis label, h_i first and then e_c, f_c for each root c of
        the factor, padded to full rank."""
        out = []
        o = 0
        for f in self.factors:
            r = f["rank"]
            seeds = {("h", o + i): m for i, m in enumerate(f["h"])}
            for c in f["posroots"]:
                full = (0,) * o + c + (0,) * (self.rank - o - r)
                seeds[("e", full)] = f["e"][c]
                seeds[("f", full)] = f["f"][c]
            out.append(seeds)
            o += r
        return out

    @cached_property
    def posroots(self) -> list[tuple[int, ...]]:
        out = [c for seeds in self.factor_seeds for kind, c in seeds if kind == "e"]
        return sorted(out, key=lambda c: (sum(c), c))

    @cached_property
    def cartan(self) -> tuple[tuple[int, ...], ...]:
        """The Cartan matrix as int rows, block-diagonal over the factors."""
        rows: list[tuple[int, ...]] = []
        for f in self.factors:
            o, r = len(rows), f["rank"]
            rows += [(0,) * o + tuple(row) + (0,) * (self.rank - o - r) for row in f["A"]]
        return tuple(rows)

    @cached_property
    def cartan_matrix(self) -> np.ndarray:
        """The Cartan matrix as an exact dense array."""
        return densify({(i, j): fr(x) for i, row in enumerate(self.cartan) for j, x in enumerate(row)}, (self.rank,) * 2)

    @cached_property
    def dvec(self) -> list[int]:
        out: list[int] = []
        for f in self.factors:
            out.extend(f["d"])
        return out

    def root_fc(self, c: tuple[int, ...]) -> tuple[int, ...]:
        """Simple-root coordinates -> fundamental coordinates (fc = A c),

        padded with zero torus coordinates."""
        return tuple(sum(a * x for a, x in zip(row, c)) for row in self.cartan) + (0,) * self.torus_dim

    @cached_property
    def rho(self) -> tuple[int, ...]:
        return (1,) * self.rank + (0,) * self.torus_dim

    @cached_property
    def cartan_inverse(self) -> np.ndarray:
        """A^{-1}, exact: the one elimination every weight computation shares."""
        r = self.rank
        aug = zeros(r, 2 * r)
        aug[:, :r] = self.cartan_matrix
        aug[:, r:] = eye(r)
        red, piv = rref(aug)
        ensure(piv == list(range(r)), "Cartan matrix is singular")
        return red[:, r:]

    @cached_property
    def fundamental_weights(self) -> list[np.ndarray]:
        """omega_i in simple-root coordinates: the columns of A^{-1}."""
        return [self.cartan_inverse[:, i].copy() for i in range(self.rank)]

    # ---- Lie algebra basis ------------------------------------------------

    @cached_property
    def dim(self) -> int:
        return self.rank + self.torus_dim + 2 * len(self.posroots)

    @cached_property
    def basis_labels(self) -> list[tuple[str, object]]:
        labels: list[tuple[str, object]] = []
        labels += [("h", i) for i in range(self.rank)]
        labels += [("t", j) for j in range(self.torus_dim)]
        labels += [("e", c) for c in self.posroots]
        labels += [("f", c) for c in self.posroots]
        return labels

    @cached_property
    def _index(self) -> dict[tuple[str, object], int]:
        return {lab: i for i, lab in enumerate(self.basis_labels)}

    def gen_vector(self, kind: str, which) -> np.ndarray:
        """Coordinate vector of a basis element: ("h", i), ("t", j),

        ("e", root) or ("f", root) with the root in simple coordinates."""
        v = zeros(self.dim)
        v[self._index[(kind, which)]] = F1
        return v

    def simple_root(self, i: int) -> tuple[int, ...]:
        return _unit(self.rank, i)

    @cached_property
    def _ad_columns(self) -> list[Table]:
        """The nonzero structure constants: table[k] is the column table of
        ad(b_k), so table[k][j] lists the (i, c) with [b_k, b_j] = sum c b_i,
        i ascending.  Seeds of two weights (h -> 0, e_c -> c, f_c -> -c)
        occupy disjoint positions, and a commutator lies on, and is
        expressed over, the seeds of its weight.  Each factor's seeds are
        scaled by the lcm D of their denominators, so the commutators run on
        int entries and each coordinate is divided by D.  The constants of a
        Chevalley basis (Humphreys, sec. 25.2) are integers, each checked to
        be one, so the table is int."""
        table: list[Table] = [[[] for _ in range(self.dim)] for _ in range(self.dim)]
        for seeds in self.factor_seeds:
            D = lcm(*(x.denominator for m in seeds.values() for x in m.values()))
            spaces: dict = {}  # weight -> [(basis index, nonzero {(row, col): D entry})]
            for (kind, c), m in seeds.items():
                wt = (0,) * self.rank if kind == "h" else tuple(-x for x in c) if kind == "f" else c
                spaces.setdefault(wt, []).append((self._index[(kind, c)], {p: int(x * D) for p, x in m.items()}))
            local = [(ik, wt, ents) for wt, members in spaces.items() for ik, ents in members]
            for wt, members in spaces.items():
                span = SpanBasis()
                for _, ents in members:
                    ensure(span.add(ents), "seed representation not faithful")
                spaces[wt] = ([ik for ik, _ in members], set().union(*(ents for _, ents in members)), span)
            pos = [p for _, ps, _ in spaces.values() for p in ps]
            ensure(len(pos) == len(set(pos)), "seeds of two weights overlap")
            for (ia, wa, ea), (ib, wb, eb) in combinations(local, 2):
                br = _commutator(ea, eb)
                if not br:
                    continue
                members, pos, span = spaces.get(tuple(map(sum, zip(wa, wb))), ([], set(), None))
                ensure(br.keys() <= pos, "bracket left its weight space")
                coords = span.express(br)
                ensure(coords is not None, "bracket left the algebra span")
                coords = [(k, c / D) for k, c in coords]
                ensure(all(c.denominator == 1 for _, c in coords), "structure constant is not an integer")
                table[ia][ib] = [(members[k], int(c)) for k, c in coords]
                table[ib][ia] = [(ik, -c) for ik, c in table[ia][ib]]
        return table

    @cached_property
    def bracket_table(self) -> list[list[np.ndarray]]:
        """[b_i, b_j] as a dense coordinate vector, for every pair i, j."""
        basis = eye(self.dim)
        return [[self.bracket(x, y) for y in basis] for x in basis]

    def sparse_bracket(self, x: dict, y: dict) -> dict:
        """[x, y] for sparse vectors {position: entry}, zero entries dropped:
        the one loop over the structure constants.  The constants are int,
        so integer x and y give an integer bracket."""
        out: dict = {}
        for k, a in x.items():
            table = self._ad_columns[k]
            for j, b in y.items():
                for i, c in table[j]:
                    out[i] = out.get(i, 0) + c * a * b
        return {i: v for i, v in out.items() if v}

    def _ad_sparse(self, x: dict) -> Table:
        """The column table of ad x, for sparse x."""
        return table_sum(((a, self._ad_columns[k]) for k, a in x.items()), self.dim)

    def ad(self, x: np.ndarray) -> np.ndarray:
        return densify(entries(self._ad_sparse(sparse(x))), (self.dim, self.dim))

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return densify(self.sparse_bracket(sparse(x), sparse(y)), (self.dim,))

    def _exp_ad_int(self, x: dict, cols: Iterable[dict], den: int = 1) -> list[tuple[dict, int]]:
        """exp(ad x / den) on sparse integer columns, for an integer x: one
        (a, s) per column u, with exp(ad x / den) u = a / s and s > 0.  With
        A = ad x, built once, the terms A^k u run until A^(n+1) u = 0, and
        a = sum_k (n!/k!) den^(n-k) A^k u, s = n! den^n.  ad x must be
        nilpotent there, or NonNilpotentDirectionError after dim + 1 terms."""
        A = self._ad_sparse(x)
        out = []
        for u in cols:
            acc = term = u
            s = 1
            for k in range(1, self.dim + 2):
                term = image(A, term)
                if not term:
                    break
                acc = {i: acc.get(i, 0) * k * den + term.get(i, 0) for i in acc.keys() | term.keys()}
                s *= k * den
            else:
                raise NonNilpotentDirectionError("direction is not ad-nilpotent")
            out.append(({i: a for i, a in acc.items() if a}, s))
        return out

    def exp_ad(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """exp(ad x) v on v or each of its columns, exactly: ad x must be
        nilpotent there, or NonNilpotentDirectionError after dim + 1 terms.
        With x = X / D and v = V / E, X and V integer, the integer series of
        X runs on the columns of V and each sum is divided by its scale times E."""
        D = lcm(*(a.denominator for a in x if a))
        E = lcm(*(a.denominator for a in v.flat))
        out = v.astype(object)
        cols = out.reshape(len(v), -1).T
        ints = [{i: int(a * E) for i, a in enumerate(col) if a} for col in cols]
        for col, (acc, s) in zip(cols, self._exp_ad_int({k: int(a * D) for k, a in enumerate(x) if a}, ints, D)):
            col[:] = [Fraction(acc.get(i, 0), s * E) for i in range(len(v))]
        return out

    @cached_property
    def _torus_exponents(self) -> tuple[list, list]:
        """(shifted, m): basis position p, of weight wt_p (0 on the Cartan and
        central torus), has shifted[p][i] = <wt_p, alpha_i^vee> + m_i >= 0,
        where m_i is the largest |<c, alpha_i^vee>| over the roots c."""
        fcs = [self.root_fc(c)[: self.rank] for c in self.posroots]
        m = [max(abs(e[i]) for e in fcs) for i in range(self.rank)]
        wts = [(0,) * self.rank] * (self.rank + self.torus_dim) + fcs + [[-x for x in e] for e in fcs]
        return [[x + k for x, k in zip(e, m)] for e in wts], m

    def _torus_scales(self, s: Sequence) -> tuple[list, object]:
        """(w, n) with w[p] / n = prod s_i^<wt_p, alpha_i^vee>, the factor by
        which the torus point with coroot parameters s acts on basis position
        p, and n = prod s_i^m_i (see _torus_exponents): w[p] =
        prod s_i^shifted[p][i], so integer s give integer w.  An int
        parameter stays int; any other goes through fr."""
        if len(s) != self.rank:
            raise DegenerateInputError("torus point needs one parameter per simple root")
        vals = [x if type(x) is int else fr(x) for x in s]
        if any(v == 0 for v in vals):
            raise DegenerateInputError("torus parameters must be nonzero")
        shifted, m = self._torus_exponents
        n = prod(v**k for v, k in zip(vals, m))
        return [prod(v**e for v, e in zip(vals, exps)) for exps in shifted], n

    def torus_ad(self, s: Sequence[Fraction]) -> np.ndarray:
        """Adjoint action of the torus point with coroot parameters s.

        Acts by prod s_i^{<gamma, alpha_i^vee>} on the gamma root space and
        trivially on the Cartan; central torus coordinates do not appear
        because they act trivially in the adjoint representation.
        """
        w, n = self._torus_scales(s)
        return densify({(p, p): Fraction(x, n) for p, x in enumerate(w)}, (self.dim, self.dim))

    @cached_property
    def killing_form(self) -> np.ndarray:
        """tr(ad b_k ad b_l) = sum of (ad b_k)[i, j] (ad b_l)[j, i] over the
        nonzero structure constants, on integers."""
        ads = [entries(table) for table in self._ad_columns]
        traces = {
            (k, m): sum(c * b.get((j, i), 0) for (i, j), c in a.items())
            for (k, a), (m, b) in product(enumerate(ads), repeat=2)
        }
        return densify({p: fr(t) for p, t in traces.items() if t}, (self.dim, self.dim))

    @cached_property
    def invariant_form(self) -> np.ndarray:
        """Killing form extended by the identity on central torus coordinates

        (the honest Killing form vanishes there, which would misreport every
        subalgebra meeting the center as non-reductive)."""
        k = self.killing_form.copy()
        for j in range(self.torus_dim):
            idx = self._index[("t", j)]
            k[idx, idx] = k[idx, idx] + F1
        return k

    # ---- weights and the Weyl group ----------------------------------------

    def root_pairing(self, mu: Sequence[int], c: Sequence[int]) -> int:
        """(mu, sum_j c_j alpha_j) = sum_j c_j d_j mu_j on integers, since
        (omega_i, alpha_j) = d_j delta_ij (short roots of squared length 2)."""
        return sum(cj * dj * mj for cj, dj, mj in zip(c, self.dvec, mu))

    def reflect(self, weight: Sequence[int], i: int) -> tuple[int, ...]:
        fi = weight[i]
        return tuple(w - fi * row[i] for w, row in zip(weight, self.cartan)) + tuple(weight[self.rank :])

    def is_dominant(self, weight: Sequence[int]) -> bool:
        return all(weight[i] >= 0 for i in range(self.rank))

    def dom_rep(self, weight: Sequence[int]) -> tuple[int, ...]:
        w = tuple(weight)
        while True:
            i = next((i for i in range(self.rank) if w[i] < 0), None)
            if i is None:
                return w
            w = self.reflect(w, i)

    @cached_property
    def weyl_elements(self) -> list[tuple[Weight, tuple[int, ...]]]:
        """The Weyl group W as the orbit of rho: each element w as (w(rho), a
        reduced word for w), in breadth-first order.

        rho is regular, so w -> w(rho) is a bijection of W onto the orbit;
        the sign of w is (-1) ** len(word), and the last element reached is
        the longest one, w0, with w0(rho) = -rho."""
        return list(_closure([self.rho], self.reflect, self.rank).items())

    def orbit(self, weight: Sequence[int]) -> list[Weight]:
        """The Weyl orbit of a weight, in breadth-first order from it."""
        return list(_closure([tuple(weight)], self.reflect, self.rank))

    def dual_label(self, label: Sequence[int]) -> tuple[int, ...]:
        """Highest weight of the dual module, -w0(label) with the torus part
        negated: the one dominant weight in the Weyl orbit of -label."""
        return self.dom_rep(tuple(-int(x) for x in label))


_GROUP_CACHE: dict[str, Group] = {}


def _torus_dim(digits: str) -> int:
    """The torus dimension a T suffix names.  One with more significant
    digits than MAX_RANK exceeds the rank bound, so it is refused before
    int() meets a string too long to convert."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_RANK)):
        raise UnsupportedTypeError(f"a {len(digits)}-digit torus dimension exceeds total rank {MAX_RANK}")
    return int(digits)


def parse_group(name: str) -> Group:
    """Parse a descriptor like "A2", "A1xA1", "B2+T1", "T2"."""
    s = name.strip()
    if not s:
        raise ParseError("empty group descriptor")
    parts = [p.strip() for p in s.split("+")]
    if len(parts) > 2:
        raise ParseError(f"too many '+' blocks in {name[:40]!r}")
    base = parts[0]
    torus = 0
    if len(parts) == 2:
        m = re.fullmatch(r"T([0-9]+)", parts[1])
        if not m:
            raise ParseError(f"torus suffix must look like T1, got {parts[1][:40]!r}")
        torus = _torus_dim(m.group(1))
    letters: list[str] = []
    m = re.fullmatch(r"T([0-9]+)", base)
    if m:
        if len(parts) == 2:
            raise ParseError(f"two torus blocks in {name[:40]!r}")
        torus = _torus_dim(m.group(1))
    else:
        for tok in base.split("x"):
            tok = tok.strip()
            if tok in _SEED_DATA:
                letters.append(tok)
            elif re.fullmatch(r"[A-Za-z][0-9]+", tok):
                raise UnsupportedTypeError(f"simple type {tok[:40]!r} is not supported")
            else:
                raise ParseError(f"cannot parse factor {tok[:40]!r}")
    rank = sum(_factor(s)["rank"] for s in letters)
    if rank + torus == 0:
        raise ParseError("group has rank zero")
    if rank + torus > MAX_RANK:
        raise UnsupportedTypeError(f"total rank {rank + torus} exceeds {MAX_RANK}")
    canonical = "x".join(letters)
    if torus:
        canonical = f"{canonical}+T{torus}" if canonical else f"T{torus}"
    if canonical not in _GROUP_CACHE:
        _GROUP_CACHE[canonical] = Group(tuple(letters), torus, canonical)
    return _GROUP_CACHE[canonical]


class Subalgebra:
    """A linear subspace of the Lie algebra, stored as an echelonized basis.

    Closure under the bracket is checked on demand, not at construction:
    several ops accept arbitrary subspaces and report their own errors.
    Every entry point takes a vector as a dense array or as a sparse dict.
    """

    def __init__(self, group: Group, vectors: Iterable[np.ndarray | dict], name: str | None = None):
        self.group = group
        # rows[i] (basis[i] densified) is 1 at pivots[i], its least position, and
        # 0 at the pivots before it: each vector reduced by the rows kept so far
        self.rows: list[dict[int, Fraction]] = []
        self.basis: list[np.ndarray] = []
        self.pivots: list[int] = []
        for v in vectors:
            rem = eliminate(sparse(v), self.rows, self.pivots)[0]
            if rem:
                piv = min(rem)
                self.rows.append({j: x / rem[piv] for j, x in rem.items()})
                self.basis.append(densify(self.rows[-1], (group.dim,)))
                self.pivots.append(piv)
        self.name = name

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def cartan_rows(self) -> list[int]:
        """The indices of the rows in the Cartan span (support in the h_i and
        t_j positions, the first weight_len).  Such a row z acts on a vector
        of weight w by the scalar sum_p z_p w_p (``charge``)."""
        return [k for k, z in enumerate(self.rows) if max(z) < self.group.weight_len]

    def charge(self, w: Sequence[int]) -> tuple:
        """The scalars by which the Cartan rows act on a vector of weight w."""
        return tuple(sum(c * w[p] for p, c in self.rows[k].items()) for k in self.cartan_rows)

    def contains(self, v: np.ndarray | dict) -> bool:
        return not eliminate(sparse(v), self.rows, self.pivots)[0]

    def reduce(self, v: np.ndarray | dict) -> np.ndarray:
        """v modulo this subspace: the representative vanishing at every pivot."""
        return densify(eliminate(sparse(v), self.rows, self.pivots)[0], (self.group.dim,))

    def coords(self, v: np.ndarray | dict) -> np.ndarray | None:
        """Coordinates of v over self.basis, or None if v lies outside."""
        rem, mult, _ = eliminate(sparse(v), self.rows, self.pivots)
        return None if rem else densify(mult, (self.dim,))

    def is_closed(self) -> bool:
        """Each bracket of two rows, reduced by the rows, leaves nothing."""
        g = self.group
        return not any(
            eliminate(g.sparse_bracket(x, y), self.rows, self.pivots)[0]
            for i, x in enumerate(self.rows)
            for y in self.rows[i + 1 :]
        )

    def require_closed(self) -> None:
        """The guard of every op that needs a subalgebra, not just a span."""
        if not self.is_closed():
            raise NotSubalgebraError("span is not closed under the bracket")

    def __repr__(self) -> str:
        tag = self.name or "span"
        return f"Subalgebra({self.group.name}, {tag}, dim={self.dim})"


_STANDARD_NAMES = ("full", "zero", "cartan", "borel", "nilradical", "diagonal", "principal")


def standard_subalgebra(group: Group, name: str) -> Subalgebra:
    """Named subalgebras: full, zero, cartan, borel, nilradical, diagonal
    (two equal simple factors, no torus), principal (a principal sl2 of the
    semisimple part).

    The borel is the span of the Cartan and the negative root vectors, and
    the nilradical is its derived algebra (the negative root vectors alone).
    Sphericality of a pair is insensitive to the choice of side, but the
    side is fixed so that certificates and fibration reports are stable.
    """
    if name not in _STANDARD_NAMES:
        raise UnknownNameError(f"no standard subalgebra named {name!r}")
    g = group
    if name == "full":
        return Subalgebra(g, [g.gen_vector(*lab) for lab in g.basis_labels], name)
    if name == "zero":
        return Subalgebra(g, [], name)
    cartan = [g.gen_vector("h", i) for i in range(g.rank)]
    cartan += [g.gen_vector("t", j) for j in range(g.torus_dim)]
    if name == "cartan":
        return Subalgebra(g, cartan, name)
    if name == "borel":
        downs = [g.gen_vector("f", c) for c in g.posroots]
        return Subalgebra(g, cartan + downs, name)
    if name == "nilradical":
        return Subalgebra(g, [g.gen_vector("f", c) for c in g.posroots], name)
    if name == "diagonal":
        if g.torus_dim or len(g.letters) != 2 or g.letters[0] != g.letters[1]:
            raise DegenerateInputError(
                "diagonal needs exactly two equal simple factors and no torus"
            )
        vecs = [g.gen_vector(*a) + g.gen_vector(*b) for a, b in zip(*g.factor_seeds)]
        return Subalgebra(g, vecs, name)
    # principal: e = sum of simple e_i, h with alpha_i(h) = 2 for all i,
    # hence h = sum c_j h_j with A^T c = 2*ones, and f = sum c_i f_i.
    if g.rank == 0:
        raise DegenerateInputError("principal needs a semisimple part")
    inv, idx = g.cartan_inverse, g._index
    c = [2 * sum(inv[j, i] for j in range(g.rank)) for i in range(g.rank)]
    e = {idx[("e", g.simple_root(i))]: F1 for i in range(g.rank)}
    f = {idx[("f", g.simple_root(i))]: x for i, x in enumerate(c)}
    h = {idx[("h", i)]: x for i, x in enumerate(c)}
    return Subalgebra(g, [e, h, f], "principal")
