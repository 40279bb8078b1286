"""Test-side references for the Weyl group, character decomposition, the
tensor product action, the structure constants, the weight form, weight
multiplicities and symmetric powers.

The library holds the Weyl group on integers only (the orbit of rho),
decomposes characters by the Weyl alternation, applies a tensor product's
action to sparse vectors from tables of nonzero entries, expresses each
seed commutator within its weight space and sums exp(ad x) on integers.
The models they replaced are kept here as independent references: the
group as exact reflection matrices on fundamental coordinates,
decomposition by stripping irreducible characters from the top, the action
on dense vectors, the tables as a scan of every entry, the bracket table
through one span of all of a factor's flattened seed matrices, and
exp(ad x) as a dense series.  The library pairs weights with roots on
integers (``Group.root_pairing``) and builds symmetric powers one weight at
a time; here are the scalar ``Fraction`` weight form, the Freudenthal
recursion run on it, and the Newton/Adams recursion for symmetric powers.
"""

from functools import lru_cache

import numpy as np

from weylkit.errors import DegenerateInputError, NonNilpotentDirectionError, ensure
from weylkit.linalg import F0, SpanBasis, column_stack, combine, eye, fr, fvec, is_zero, matmul, zeros
from weylkit.repthy import (
    _add,
    check_label,
    convolve_characters,
    dominant_weights,
    module_character,
    weight_multiplicities,
    weyl_dim,
)
from weylkit.sympoly import check_summands


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


@lru_cache(maxsize=None)
def wform_matrix(g):
    # (omega_i, omega_j) = d_i (A^{-1})_{ij}; symmetric since DA is.
    return fvec(g.dvec)[:, None] * g.cartan_inverse


def wform(g, mu, nu):
    """Weyl-invariant inner product on weights, normalized so short roots

    of each factor have squared length 2; torus coordinates pair by the
    standard dot product."""
    m = wform_matrix(g)
    r = g.rank
    total = F0
    for i in range(r):
        for j in range(r):
            if mu[i] and nu[j]:
                total += fr(mu[i]) * m[i, j] * fr(nu[j])
    for j in range(g.torus_dim):
        total += fr(mu[r + j]) * fr(nu[r + j])
    return total


def fraction_weight_multiplicities(group, label):
    """All weights of the irreducible module with the given highest weight,

    with multiplicities, by the Freudenthal recursion over dominant weights
    followed by Weyl-orbit expansion, on the scalar Fraction form wform."""
    lab = check_label(group, label)
    doms = [mu for _, mu in dominant_weights(group, lab)]
    rho = group.rho
    lam_norm = wform(group, _add(lab, rho), _add(lab, rho))
    mdom = {}
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
                total += 2 * m * wform(group, nu, a)
                k += 1
        den = lam_norm - wform(group, _add(mu, rho), _add(mu, rho))
        ensure(den > 0, "Freudenthal denominator is not positive")
        m = total / den
        ensure(m.denominator == 1 and m >= 1, "Freudenthal multiplicity is not a positive integer")
        mdom[mu] = int(m)
    full = {w: m for mu, m in mdom.items() for w in group.orbit(mu)}
    ensure(sum(full.values()) == weyl_dim(group, lab), f"multiplicities of {lab} miss weyl_dim")
    return full


def _adams(char, k):
    out = {}
    for w, m in char.items():
        kw = tuple(k * x for x in w)
        out[kw] = out.get(kw, 0) + m
    return out


def newton_sym_power_characters(group, summands, d):
    """Characters of S^0(V) .. S^d(V) by the Newton/Adams recursion."""
    summands = check_summands(group, summands)
    if d < 0:
        raise DegenerateInputError("degree must be nonnegative")
    chi = module_character(group, summands)
    powers = [_adams(chi, k) for k in range(d + 1)]  # powers[0] unused
    zero = (0,) * group.weight_len
    hs = [{zero: 1}]
    for n in range(1, d + 1):
        acc = {}
        for k in range(1, n + 1):
            for w, m in convolve_characters(powers[k], hs[n - k]).items():
                acc[w] = acc.get(w, 0) + m
        h = {}
        for w, m in acc.items():
            q, r = divmod(m, n)
            ensure(r == 0, "Newton recursion produced a non-integer multiplicity")
            if q:
                h[w] = q
        hs.append(h)
    return hs


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
        top = max(doms, key=lambda w: (wform(group, _add(w, rho), _add(w, rho)), w))
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
