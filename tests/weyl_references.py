"""Test-side references for the Weyl group, character decomposition, the
tensor product action and the structure constants.

The library holds the Weyl group on integers only (the orbit of rho),
decomposes characters by the Weyl alternation, applies a tensor product's
action to sparse vectors from tables of nonzero entries, expresses each
seed commutator within its weight space and sums exp(ad x) on integers.
The models they replaced are kept here as independent references: the
group as exact reflection matrices on fundamental coordinates,
decomposition by stripping irreducible characters from the top, the action
on dense vectors, the tables as a scan of every entry, the bracket table
through one span of all of a factor's flattened seed matrices, and
exp(ad x) as a dense series.
"""

from functools import lru_cache

import numpy as np

from weylkit.errors import NonNilpotentDirectionError, ensure
from weylkit.linalg import SpanBasis, column_stack, combine, eye, fr, fvec, is_zero, matmul, zeros
from weylkit.repthy import _add, weight_multiplicities


def reflection_matrices(g):
    """s_i as a Fraction matrix on fundamental coordinates, from the Cartan
    matrix: s_i(mu) = mu - mu_i * (column i of A)."""
    gens = []
    for i in range(g.rank):
        s = eye(g.rank)
        for k in range(g.rank):
            s[k, i] = s[k, i] - g.cartan_matrix[k, i]
        gens.append(s)
    return gens


def word_matrix(g, word):
    """The matrix of s_i1 ... s_ik for the word (i1, ..., ik)."""
    gens = reflection_matrices(g)
    m = eye(g.rank)
    for i in word:
        m = m @ gens[i]
    return m


def weyl_matrices(g):
    """The whole Weyl group as matrices, closed breadth-first under the
    reflection matrices: a dict from the matrix entries to (word, matrix)."""
    gens = reflection_matrices(g)
    ident = eye(g.rank)
    seen = {tuple(ident.reshape(-1)): ((), ident)}
    frontier = [((), ident)]
    while frontier:
        nxt = []
        for word, w in frontier:
            for i, s in enumerate(gens):
                prod = s @ w
                key = tuple(prod.reshape(-1))
                if key not in seen:
                    seen[key] = ((i,) + word, prod)
                    nxt.append(seen[key])
        frontier = nxt
    return seen


def apply_matrix(g, w, weight):
    """w(weight) for a Weyl matrix w; torus coordinates are fixed."""
    r = g.rank
    out = [sum(w[i, j] * weight[j] for j in range(r)) for i in range(r)]
    assert all(x.denominator == 1 for x in out)
    return tuple(int(x) for x in out) + tuple(weight[r:])


def apply_word(g, word, weight):
    """w(weight) for the word of w, by the library's integer reflections."""
    for i in reversed(word):
        weight = g.reflect(weight, i)
    return tuple(weight)


def strip_decompose(group, char):
    """Decompose a genuine character by stripping from the top: among the
    remaining dominant weights, one with maximal (mu+rho, mu+rho) is the
    highest weight of a constituent, whose character is subtracted."""
    work = {w: m for w, m in char.items() if m}
    out = {}
    rho = group.rho
    while work:
        doms = [w for w in work if group.is_dominant(w)]
        ensure(bool(doms), "character has no dominant weight left")
        top = max(doms, key=lambda w: (group.wform(_add(w, rho), _add(w, rho)), w))
        mult = work[top]
        ensure(mult > 0, "negative multiplicity: not a character")
        out[top] = out.get(top, 0) + mult
        for w, m in weight_multiplicities(group, top).items():
            rem = work.get(w, 0) - mult * m
            ensure(rem >= 0, "character stripping went negative")
            if rem:
                work[w] = rem
            else:
                work.pop(w, None)
    return out


def nonzero_columns(a):
    """The nonzero (row, entry) pairs of each column of a square matrix, by
    a scan of every entry: the reference for ``Module.columns``."""
    n = len(a)
    return [[(i, a[i, k]) for i in range(n) if a[i, k] != 0] for k in range(n)]


def dense_matrices(mod):
    """The dense matrix of every Lie algebra basis element on mod, each read
    through ``mod.action`` of a unit vector."""
    dim = mod.group.dim
    return [mod.action(fvec([1 if j == k else 0 for j in range(dim)])) for k in range(dim)]


def dense_tensor_apply(x1, x2, v):
    """(x1 (x) 1 + 1 (x) x2) v on dense vectors, without forming either
    Kronecker product.

    Coordinate a * n2 + b of v is e_a (x) e_b.  Only nonzero coordinates of
    v and nonzero entries of x1 and x2 are visited."""
    n1, n2 = len(x1), len(x2)
    out = zeros(n1, n2)
    for k in np.flatnonzero(v):
        a, b = divmod(k, n2)
        i = np.flatnonzero(x1[:, a])
        out[i, b] += v[k] * x1[i, a]
        j = np.flatnonzero(x2[:, b])
        out[a, j] += v[k] * x2[j, b]
    return out.reshape(-1)


@lru_cache(maxsize=None)
def flat_span_bracket_table(g):
    """[b_i, b_j] for every pair, each seed commutator formed densely and
    expressed through one SpanBasis over all of its factor's flattened seed
    matrices."""
    dim = g.dim
    table = [[zeros(dim) for _ in range(dim)] for _ in range(dim)]
    index = {lab: i for i, lab in enumerate(g.basis_labels)}
    for seeds in g.factor_seeds:
        local = [(index[lab], m) for lab, m in seeds.items()]
        span = SpanBasis(local[0][1].size)
        for _, m in local:
            ensure(span.add(m.reshape(-1)), "seed representation not faithful")
        for a, (ia, ma) in enumerate(local):
            for ib, mb in local[a + 1 :]:
                br = matmul(ma, mb) - matmul(mb, ma)
                coords = span.express(br.reshape(-1))
                ensure(coords is not None, "bracket left the algebra span")
                v = zeros(dim)
                v[[ik for ik, _ in local]] = coords
                table[ia][ib] = v
                table[ib][ia] = -v
    return table


def dense_ad_basis(g):
    """ad(b_i) as dense matrices: column j is [b_i, b_j]."""
    return [column_stack(row) for row in flat_span_bracket_table(g)]


def dense_exp_ad(g, x, v):
    """exp(ad x) v as a dense series: term k is ad x times term k - 1,
    divided by k, over every entry, until a term vanishes."""
    ad = combine(x, dense_ad_basis(g), (g.dim, g.dim))
    out = term = v
    for k in range(1, g.dim + 2):
        term = matmul(ad, term) / fr(k)
        if is_zero(term):
            return out
        out = out + term
    raise NonNilpotentDirectionError("direction is not ad-nilpotent")
