"""Test-side references for the Weyl group and for character decomposition.

The library holds the Weyl group on integers only (the orbit of rho) and
decomposes characters by the Weyl alternation.  The models they replaced
are kept here as independent references: the group as exact reflection
matrices on fundamental coordinates, and decomposition by stripping
irreducible characters from the top.
"""

from weylkit.errors import ensure
from weylkit.linalg import eye
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
