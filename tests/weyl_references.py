"""Test-side references for the Weyl group, character decomposition, the
tensor product action, the structure constants, the weight form, weight
multiplicities and symmetric powers.

The library holds the Weyl group on integers only (the orbit of rho),
decomposes characters by the Weyl alternation, expresses each seed
commutator within its weight space and sums exp(ad x) on integers.  The
models they replaced are kept here as independent references: the group
as exact reflection matrices on fundamental coordinates, decomposition by
stripping irreducible characters from the top, the tables as a scan of
every entry, the bracket table through one span of all of a factor's
flattened seed matrices, and exp(ad x) as a dense series.  The library pairs weights with roots on
integers (``Group.root_pairing``) and builds symmetric powers one weight at
a time; here are the scalar ``Fraction`` weight form, the Freudenthal
recursion run on it, and the Newton/Adams recursion for symmetric powers.
The library eliminates on sparse rows; here are the dense object-array
``rref``, ``eliminate`` and ``SpanBasis`` it used before.  It builds each
irreducible module from its highest weight alone, as a Verma quotient;
here is the chain it used before (``module_by_tensor_chain``), which built
V(lambda) inside V(omega_i) (x) V(lambda - omega_i) through every module on
the way down, with a tensor product's action applied to sparse vectors
from column tables (``tensor_apply``) and on dense vectors, and the
extraction's column loop that applies every generator in the ambient
space (``columns_by_tensor_apply``).  It counts h-invariants as the rank
of sparse rows read from the column tables; here is the dense kernel of the
stacked ``Module.action`` matrices.  It takes every exact kernel from
sparse columns in one span; here is the kernel read off the dense reduced
echelon form.  It checks closure of a span by
bracketing sparse rows on integer structure constants; here is the test on
dense vectors, through the dense ad basis and a dense span.  It holds a
fiber as column tables and decides whether the identity solves the
intertwiner system by comparing rho(x) with rho(sigma x); here is the dense
matrix of a table and the intertwiner solve that tested the identity's
membership in the span of the kernel by dense elimination.  Below the dense
boundary the library holds every matrix as a column table and every vector
as a sparse dict, with seed matrices as sparse int dicts; here are the
dense helpers it used before for them: ``fmat`` builds an exact matrix,
``combine`` forms a linear combination of vectors or matrices, ``matmul``
a product from the nonzero entries of its factors, and ``is_zero`` tests
an exact array for zero, with ``seed_matrices`` for the dense seeds and
the standard subalgebras built from dense vectors.  It forms each seed
commutator on int entries indexed by row, expresses it over a root space's
one seed by a division, and sums the Killing traces over pairs of opposite
weight only; here is the all-pairs derivation it used before
(``all_pairs_ad_columns``): every pair of seed entries multiplied, each
commutator expressed through its weight space's ``SpanBasis``, and the
trace of every one of the dim^2 products ad b_k ad b_l.
"""

import itertools
from functools import cache, lru_cache
from math import isqrt, lcm

import numpy as np

from weylkit.errors import (
    DegenerateInputError,
    NoIntertwinerError,
    NonNilpotentDirectionError,
    NuSquareObstructionError,
    ensure,
)
from weylkit.involution import _nu_kernel
from weylkit.linalg import F0, F1, SpanBasis, entries, eye, fr, fvec, rref, zeros
from weylkit.repthy import (
    Module,
    _add,
    basis_weight,
    _sub,
    _verify_generators,
    build_module,
    check_label,
    convolve_characters,
    dominant_weights,
    module_character,
    weight_multiplicities,
    weyl_dim,
)
from weylkit.rootsys import Subalgebra, parse_group
from weylkit.sympoly import check_summands


def fmat(rows):
    """The exact matrix with these rows, each entry through fr."""
    a = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            a[i, j] = fr(x)
    return a


def is_zero(a):
    return all(x == 0 for x in a.flat)


def combine(coeffs, terms, shape):
    """sum c * t over the nonzero c; starts from zeros(shape), so entries
    stay Fraction even when every coefficient is zero."""
    out = zeros(*shape)
    for c, t in zip(coeffs, terms):
        if c != 0:
            out = out + c * t
    return out


def matmul(a, b):
    """a @ b for an exact matrix a and an exact matrix or vector b, driven by
    nonzero entries (Gustavson, *ACM TOMS* 4(3), 1978): each nonzero b[j, l]
    adds b[j, l] times the nonzero part of column j of a, found once per j,
    to column l of zeros(...), so every entry is a Fraction."""
    if a.shape[1] != len(b):
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    b2 = b[:, None] if b.ndim == 1 else b
    out = zeros(len(a), b2.shape[1])
    cols = {}
    for j, l in zip(*np.nonzero(b2)):
        if j not in cols:
            cols[j] = [(i, a[i, j]) for i in np.flatnonzero(a[:, j])]
        x = b2[j, l]
        for i, c in cols[j]:
            out[i, l] += c * x
    return out.reshape(a.shape[:1] + b.shape[1:])


def seed_module(group, seeds):
    """The seed module of one factor (an entry of ``Group.factor_seeds``),
    zero on the other factors; its weights are the diagonals of the h_i.
    Each of its basis vectors is moved by some e_c or f_c, as in any
    irreducible module of dimension above 1, so the seeds' entries span it."""
    n = 1 + max(max(p) for m in seeds.values() for p in m)
    mats = [seeds.get(lab, {}) for lab in group.basis_labels]
    weights = [tuple(h.get((a, a), 0) for h in mats[: group.rank]) + (0,) * group.torus_dim for a in range(n)]
    columns = [[[(i, fr(x)) for (i, k), x in sorted(m.items()) if k == col] for col in range(n)] for m in mats]
    return Module(group, weights[0], weights, columns)


def seed_matrices(seeds):
    """The dense Fraction matrices of one factor's sparse exact seeds (an
    entry of ``Group.factor_seeds``), all of the seed module's size."""
    n = 1 + max(max(p) for m in seeds.values() for p in m)
    out = {}
    for lab, m in seeds.items():
        out[lab] = zeros(n, n)
        for p, x in m.items():
            out[lab][p] = fr(x)
    return out


def supported_names():
    """Every canonical descriptor parse_group accepts: simple factors in any
    order and a central torus, simple ranks plus torus dimension at most 3."""
    ranks = {"A1": 1, "A2": 2, "B2": 2, "G2": 2}
    names = []
    for count in range(4):
        for letters in itertools.product(ranks, repeat=count):
            r = sum(ranks[x] for x in letters)
            for k in range(max(1 - r, 0), 4 - r):
                base = "x".join(letters)
                names.append(f"{base}+T{k}" if base and k else base or f"T{k}")
    return names


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


@cache
def labels_up_to_dim(name, cap=64):
    """Every dominant label of group name with dimension at most cap, torus
    entries in -2..2.  The dimension grows with each semisimple entry, so an
    entry is raised only while the label with zeros after it stays under
    the cap."""
    g = parse_group(name)
    out = []

    def extend(prefix):
        if len(prefix) == g.rank:
            out.extend(prefix + t for t in itertools.product(range(-2, 3), repeat=g.torus_dim))
            return
        k = 0
        while weyl_dim(g, prefix + (k,) + (0,) * (g.weight_len - len(prefix) - 1)) <= cap:
            extend(prefix + (k,))
            k += 1

    extend(())
    return out


def dense_invariant_multiplicity(group, h, label):
    """The reference for ``sympoly.invariant_multiplicity``: the dimension of
    the nullspace of the stacked dense ``Module.action`` matrices of the
    basis of h on the dual module."""
    dual = build_module(group, group.dual_label(label))
    if h.dim == 0:
        return dual.dim
    return len(dense_nullspace(np.vstack([dual.action(x) for x in h.basis])))


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
    expressed through one DenseSpanBasis over all of its factor's flattened seed
    matrices."""
    dim = g.dim
    table = [[zeros(dim) for _ in range(dim)] for _ in range(dim)]
    index = {lab: i for i, lab in enumerate(g.basis_labels)}
    for seeds in g.factor_seeds:
        local = [(index[lab], m) for lab, m in seed_matrices(seeds).items()]
        span = DenseSpanBasis(local[0][1].size)
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


def _all_pairs_commutator(a, b):
    """ab - ba for sparse int matrices {(row, col): entry}: every pair of
    entries is visited, and those whose indices meet are multiplied."""
    out = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for ((i, j), s), ((k, l), t) in itertools.product(x.items(), y.items()):
            if j == k:
                out[i, l] = out.get((i, l), 0) + sign * s * t
    return {p: v for p, v in out.items() if v != 0}


@lru_cache(maxsize=None)
def all_pairs_ad_columns(g):
    """``Group._ad_columns`` as the all-pairs derivation made it: each
    factor's seeds scaled to ints by the lcm D of their denominators, each
    commutator of two seeds by ``_all_pairs_commutator`` and expressed
    through one SpanBasis per weight space, each coordinate divided by D."""
    dim = g.dim
    index = {lab: i for i, lab in enumerate(g.basis_labels)}
    table = [[[] for _ in range(dim)] for _ in range(dim)]
    for seeds in g.factor_seeds:
        D = lcm(*(x.denominator for m in seeds.values() for x in m.values()))
        spaces, local = {}, []
        for (kind, c), m in seeds.items():
            wt = (0,) * g.rank if kind == "h" else tuple(-x for x in c) if kind == "f" else c
            local.append((index[(kind, c)], wt, {p: int(x * D) for p, x in m.items()}))
            spaces.setdefault(wt, []).append(local[-1])
        for wt, members in spaces.items():
            span = SpanBasis()
            for _, _, ents in members:
                ensure(span.add(ents), "seed representation not faithful")
            spaces[wt] = ([ik for ik, _, _ in members], span)
        for (ia, wa, ea), (ib, wb, eb) in itertools.combinations(local, 2):
            br = _all_pairs_commutator(ea, eb)
            if not br:
                continue
            members, span = spaces[tuple(map(sum, zip(wa, wb)))]
            coords = [(k, c / D) for k, c in span.express(br)]
            ensure(all(c.denominator == 1 for _, c in coords), "structure constant is not an integer")
            table[ia][ib] = [(members[k], int(c)) for k, c in coords]
            table[ib][ia] = [(ik, -c) for ik, c in table[ia][ib]]
    return table


def all_pairs_killing_form(g):
    """tr(ad b_k ad b_l) for every one of the dim^2 pairs k, l, from
    ``all_pairs_ad_columns``, as an exact dense array."""
    ads = [entries(t) for t in all_pairs_ad_columns(g)]
    out = zeros(g.dim, g.dim)
    for (k, a), (m, b) in itertools.product(enumerate(ads), repeat=2):
        out[k, m] = fr(sum(c * b.get((j, i), 0) for (i, j), c in a.items()))
    return out


def all_pairs_invariant_form(g):
    """``all_pairs_killing_form`` plus the identity on the central torus."""
    out = all_pairs_killing_form(g)
    for j in range(g.torus_dim):
        out[g.rank + j, g.rank + j] += F1
    return out


def dense_standard_subalgebra(g, name):
    """The standard subalgebra of this name built from dense vectors, as
    ``rootsys.standard_subalgebra`` built it before: units, sums of units,
    and the principal sl2 through a dense product with the transposed
    inverse Cartan matrix."""
    labels = {
        "full": g.basis_labels,
        "zero": [],
        "cartan": [lab for lab in g.basis_labels if lab[0] in "ht"],
        "borel": [lab for lab in g.basis_labels if lab[0] in "htf"],
        "nilradical": [lab for lab in g.basis_labels if lab[0] == "f"],
    }
    if name in labels:
        return Subalgebra(g, [g.gen_vector(*lab) for lab in labels[name]], name)
    if name == "diagonal":
        if g.torus_dim or len(g.letters) != 2 or g.letters[0] != g.letters[1]:
            raise DegenerateInputError("diagonal needs two equal simple factors and no torus")
        return Subalgebra(g, [g.gen_vector(*a) + g.gen_vector(*b) for a, b in zip(*g.factor_seeds)], name)
    if g.rank == 0:
        raise DegenerateInputError("principal needs a semisimple part")
    c = matmul(g.cartan_inverse.T, fvec([2] * g.rank))
    simple = [g.simple_root(i) for i in range(g.rank)]
    e = combine([F1] * g.rank, [g.gen_vector("e", root) for root in simple], (g.dim,))
    f = combine(c, [g.gen_vector("f", root) for root in simple], (g.dim,))
    h = combine(c, [g.gen_vector("h", i) for i in range(g.rank)], (g.dim,))
    return Subalgebra(g, [e, h, f], name)


def dense_ad_basis(g):
    """ad(b_i) as dense matrices: column j is [b_i, b_j]."""
    return [np.column_stack(row) for row in flat_span_bracket_table(g)]


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


def dense_is_closed(g, vectors):
    """Is the span of vectors closed under the bracket?  Each bracket of two
    of the vectors is ad x, the dense combination of the ad(b_k), times y,
    and must lie in a DenseSpanBasis of the vectors."""
    span = DenseSpanBasis(g.dim)
    for v in vectors:
        span.add(v)
    ads = dense_ad_basis(g)
    return all(
        span.contains(matmul(combine(x, ads, (g.dim, g.dim)), y))
        for i, x in enumerate(vectors)
        for y in vectors[i + 1 :]
    )


# ---- the dense exact kernel ---------------------------------------------------


def dense_rref(a):
    """Reduced row echelon form; returns (R, pivot column indices)."""
    r = a.copy()
    n, m = r.shape
    pivots: list[int] = []
    row = 0
    for col in range(m):
        piv = next((i for i in range(row, n) if r[i, col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        r[row] = r[row] / r[row, col]
        for i in range(n):
            if i != row and r[i, col] != 0:
                r[i] = r[i] - r[i, col] * r[row]
        pivots.append(col)
        row += 1
        if row == n:
            break
    return r, pivots


def dense_nullspace(a):
    """Basis of {x : a @ x = 0} for a dense matrix a, one vector per free
    column of rref(a): 1 there and minus that column of R at the pivots.
    The reference for ``linalg.nullspace``, which reads the same basis off
    the sparse columns of a."""
    m = a.shape[1]
    r, pivots = rref(a)
    free = [j for j in range(m) if j not in pivots]
    basis = []
    for j in free:
        v = zeros(m)
        v[j] = F1
        for i, p in enumerate(pivots):
            v[p] = -r[i, j]
        basis.append(v)
    return basis


def dense_eliminate(v, rows, pivots):
    """Reduce v by echelon rows, in order: rows[i] has a 1 at pivots[i] and
    zeros at the pivots of the rows before it.

    Returns (remainder, multiple of each row taken); the remainder is zero
    at every pivot, and v = remainder + sum multiple[i] * rows[i].
    """
    rem = v.copy()
    mult = zeros(len(rows))
    for i, (row, p) in enumerate(zip(rows, pivots)):
        if rem[p] != 0:
            mult[i] = rem[p]
            rem = rem - rem[p] * row
    return rem, mult


class DenseSpanBasis:
    """Incremental echelon span with expansion bookkeeping.

    ``add`` keeps, for every retained row, its expression in terms of the
    vectors that enlarged the span (the retained vectors, in the order they
    were added); ``express`` then rewrites any member of the span in those
    coordinates.
    """

    def __init__(self, dim: int):
        self.dim = dim
        # rows[i] is retained vector i reduced by the rows before it: 1 at
        # pivots[i], 0 at the earlier pivots, as dense_eliminate requires
        self.rows: list[np.ndarray] = []
        self.combos: list[np.ndarray] = []        # rows[i] = sum combos[i][k] * retained[k]
        self.pivots: list[int] = []

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, v: np.ndarray) -> bool:
        """Returns True iff v enlarged the span."""
        v2, mult = dense_eliminate(v, self.rows, self.pivots)
        piv = next((j for j in range(self.dim) if v2[j] != 0), None)
        if piv is None:
            return False
        k = len(self.rows)
        # v2 = v - sum mult[i] * rows[i], and v is retained vector k
        c2 = np.append(-combine(mult, self.combos, (k,)), F1)
        self.combos = [np.append(c, F0) for c in self.combos]
        self.rows.append(v2 / v2[piv])
        self.combos.append(c2 / v2[piv])
        self.pivots.append(piv)
        return True

    def contains(self, v: np.ndarray) -> bool:
        return is_zero(dense_eliminate(v, self.rows, self.pivots)[0])

    def express(self, v: np.ndarray) -> np.ndarray | None:
        """Coordinates of v over the retained vectors, or None if v is not
        in the span."""
        rem, mult = dense_eliminate(v, self.rows, self.pivots)
        if not is_zero(rem):
            return None
        return combine(mult, self.combos, (len(self.rows),))


def tensor_apply(cols1, cols2, v, n2):
    """(x1 (x) 1 + 1 (x) x2) v for x1, x2 given by their column tables, where
    coordinate a * n2 + b of v is e_a (x) e_b; entries that cancel are dropped."""
    out = {}
    for k, c in v.items():
        a, b = divmod(k, n2)
        for p, x in [(i * n2 + b, x) for i, x in cols1[a]] + [(a * n2 + j, x) for j, x in cols2[b]]:
            out[p] = out.get(p, 0) + c * x
    return {p: c for p, c in out.items() if c}


_CHAIN = {}  # (group name, extract, label with zero torus part) -> module


def module_by_tensor_chain(group, label, extract):
    """The module of label as the library built it before it built L(label)
    as a Verma quotient: the seed module of a factor is taken as it is;
    every other label with zero torus part is extract(group, m1, m2, label),
    the irreducible of that highest weight inside m1 (x) m2.  At height 1,
    m1 = m2 is the seed of its factor; above, m1 = V(omega_i0) and m2 =
    V(label - omega_i0), i0 the first nonzero entry, each built by the same
    chain and kept for later calls.  The torus part of the label is then
    written onto the t_j."""
    r = group.rank

    def build(lab):
        key = (group.name, extract, lab)
        if key in _CHAIN:
            return _CHAIN[key]
        height = sum(lab[:r])
        if height == 0:
            mod = Module(group, lab, [lab], [[[]] for _ in range(group.dim)])
        else:
            i0 = next(i for i in range(r) if lab[i] > 0)
            if height == 1:
                m1 = m2 = seed_module(group, next(s for s in group.factor_seeds if ("h", i0) in s))
            else:
                mu = tuple(1 if i == i0 else 0 for i in range(r)) + (0,) * group.torus_dim
                m1, m2 = build(mu), build(_sub(lab, mu))
            mod = m1 if m1.label == lab else extract(group, m1, m2, lab)
        _CHAIN[key] = mod
        return mod

    lab = check_label(group, label)
    mod = build(lab[:r] + (0,) * group.torus_dim)
    if not group.torus_dim:
        return mod
    chi = lab[r:]
    columns = list(mod.columns)
    for j, c in enumerate(chi):
        columns[group._index[("t", j)]] = [[(k, fr(c))] if c else [] for k in range(mod.dim)]
    return Module(group, lab, [w[:r] + chi for w in mod.weights], columns)


def columns_by_tensor_apply(group, m1, m2, label):
    """The irreducible of highest weight label inside m1 (x) m2 as the
    builder made it before it wrote the f_i columns during the lowering
    pass: the cyclic span per weight in a DenseSpanBasis over that weight's
    positions, then one column loop over every basis element, f_i included,
    each image formed by tensor_apply and expressed in the new basis."""
    amb = list(zip(m1.columns, m2.columns))
    amb_weights = [_add(w1, w2) for w1 in m1.weights for w2 in m2.weights]
    where = {}
    for k, w in enumerate(amb_weights):
        where.setdefault(w, []).append(k)
    slot = {k: j for ps in where.values() for j, k in enumerate(ps)}
    es = [amb[group._index[("e", group.simple_root(i))]] for i in range(group.rank)]
    fs = [amb[group._index[("f", group.simple_root(i))]] for i in range(group.rank)]

    positions = where[label]
    images = [[tensor_apply(*e, {p: F1}, m2.dim) for p in positions] for e in es]
    rows = sorted({(i, q) for i, col in enumerate(images) for im in col for q in im})
    raising = np.array([[im.get(q, F0) for im in images[i]] for i, q in rows], dtype=object)
    r, pivots = dense_rref(raising.reshape(len(rows), len(positions)))
    (free,) = [j for j in range(len(positions)) if j not in pivots]
    ker = {free: F1} | {p: -r[i, free] for i, p in enumerate(pivots)}
    v0 = {positions[j]: c for j, c in ker.items() if c}

    def part(v, w):
        ensure(all(amb_weights[k] == w for k in v), "image left its weight space")
        vw = zeros(len(where.get(w, ())))
        for k, c in v.items():
            vw[slot[k]] = c
        return vw if v else None

    spans, members, basis, bweights = {}, {}, [], []

    def retain(v, w):
        vw = part(v, w)
        if vw is None or not spans.setdefault(w, DenseSpanBasis(len(vw))).add(vw):
            return False
        members.setdefault(w, []).append(len(basis))
        basis.append(v)
        bweights.append(w)
        return True

    ensure(retain(v0, label), "highest weight vector is zero")
    queue = [0]
    alphas = [group.root_fc(group.simple_root(i)) for i in range(group.rank)]
    while queue:
        b = queue.pop(0)
        for i in range(group.rank):
            if retain(tensor_apply(*fs[i], basis[b], m2.dim), _sub(bweights[b], alphas[i])):
                queue.append(len(basis) - 1)
    n = len(basis)
    columns = []
    for x, lab in zip(amb, group.basis_labels):
        dx = basis_weight(group, lab)
        cols = [[] for _ in range(n)]
        for k in range(n):
            w = _add(bweights[k], dx)
            vw = part(tensor_apply(*x, basis[k], m2.dim), w)
            if vw is None:
                continue
            coords = spans[w].express(vw) if w in spans else None
            ensure(coords is not None, "action left the generated submodule")
            cols[k] = [(members[w][j], c) for j, c in enumerate(coords) if c]
        columns.append(cols)
    mod = Module(group, label, bweights, columns)
    _verify_generators(mod)
    return mod


# ---- the bundle layer ---------------------------------------------------------


def dense_table(table):
    """The dense matrix of a column table: the inverse of ``nonzero_columns``."""
    n = len(table)
    out = zeros(n, n)
    for k, col in enumerate(table):
        for i, x in col:
            out[i, k] = x
    return out


def dense_solve_nu(module, theta):
    """The reference for ``involution.solve_nu``, on the library's kernel:
    the first kernel vector with a nonzero scalar square, else (for a kernel
    of two or more) the identity if appending it to the stacked kernel adds
    no pivot, normalized to square to the identity with a positive leading
    entry."""
    kernel = [dense_table(t) for t in _nu_kernel(module, theta)]
    if not kernel:
        raise NoIntertwinerError("no intertwiner")
    n = module.dim
    a0 = scale2 = None
    for cand in kernel:
        sq = matmul(cand, cand)
        if is_zero(sq - sq[0, 0] * eye(n)) and sq[0, 0] != 0:
            a0, scale2 = cand, sq[0, 0]
            break
    if a0 is None and len(kernel) > 1:
        stack = np.column_stack([c.reshape(-1) for c in kernel] + [eye(n).reshape(-1)])
        if len(kernel) not in dense_rref(stack)[1]:
            a0, scale2 = eye(n), F1
    if a0 is None:
        raise DegenerateInputError("no solution with scalar square")
    if scale2 < 0:
        raise NuSquareObstructionError("negative square")
    num, den = isqrt(scale2.numerator), isqrt(scale2.denominator)
    if num * num != scale2.numerator or den * den != scale2.denominator:
        raise DegenerateInputError("scale is not a rational square")
    a = a0 * fr(den) / fr(num)
    return -a if next(x for x in a.flat if x != 0) < 0 else a
