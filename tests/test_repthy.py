import functools
import itertools
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylkit import repthy
from weylkit.errors import DimensionCapError, InternalInvariantError, NonDominantError, ParseError
from weylkit.linalg import F1, densify, nullspace, sparse, zeros
from weylkit.repthy import (
    build_module,
    convolve_characters,
    decompose_character,
    module_character,
    tensor_decompose,
    weight_multiplicities,
    weyl_dim,
)
from weylkit.rootsys import Group, parse_group, standard_subalgebra
from weylkit.sympoly import invariant_multiplicity
from weyl_references import (
    DenseSpanBasis,
    columns_by_tensor_apply,
    combine,
    dense_matrices,
    dense_tensor_apply,
    fraction_weight_multiplicities,
    fvec,
    is_zero,
    labels_up_to_dim,
    matmul,
    module_by_tensor_chain,
    nonzero_columns,
    seed_module,
    strip_decompose,
    wform,
)


# ---- Weyl dimension formula (frozen values) ---------------------------------

WEYL_DIMS = [
    ("A1", (0,), 1),
    ("A1", (1,), 2),
    ("A1", (7,), 8),
    ("A2", (1, 0), 3),
    ("A2", (1, 1), 8),
    ("A2", (2, 0), 6),
    ("A2", (0, 8), 45),
    ("B2", (1, 0), 5),
    ("B2", (0, 1), 4),
    ("B2", (0, 2), 10),
    ("B2", (2, 0), 14),
    ("B2", (1, 1), 16),
    ("G2", (1, 0), 7),
    ("G2", (0, 1), 14),
    ("G2", (2, 0), 27),
    ("G2", (1, 1), 64),
    ("A1xA1", (1, 2), 6),
    ("A2+T1", (1, 1, 9), 8),
    ("T2", (3, -4), 1),
]


@pytest.mark.parametrize("name,label,dim", WEYL_DIMS)
def test_weyl_dim(name, label, dim):
    assert weyl_dim(parse_group(name), label) == dim


def test_label_validation():
    g = parse_group("A2")
    with pytest.raises(NonDominantError):
        weyl_dim(g, (-1, 0))
    with pytest.raises(ParseError):
        weyl_dim(g, (1, 0, 0))


def _wform_weyl_dim(g, lab):
    """The Weyl dimension formula as products of wform values, over Fraction."""
    num = den = Fraction(1)
    for c in g.posroots:
        a = g.root_fc(c)
        num *= wform(g, repthy._add(lab, g.rho), a)
        den *= wform(g, g.rho, a)
    return num / den


@pytest.mark.parametrize(
    "name", ["A1", "A2", "B2", "G2", "A1xA1", "A1xA2", "A1xB2", "A1xG2", "A1+T1", "B2+T1", "T1"]
)
def test_integer_weyl_dim_equals_wform_product(name):
    g = parse_group(name)
    assert all(type(d) is int for d in g.dvec)
    for simple in itertools.product(range(7), repeat=g.rank):
        for torus in itertools.product((-2, 0, 5), repeat=g.torus_dim):
            lab = simple + torus
            got = weyl_dim(g, lab)
            assert type(got) is int and got == _wform_weyl_dim(g, lab)


# ---- Freudenthal multiplicities (frozen) -------------------------------------


def test_adjoint_weight_multiplicities():
    # zero weight of the adjoint has multiplicity = rank; roots have 1
    for name, adj in [("A2", (1, 1)), ("B2", (0, 2)), ("G2", (0, 1))]:
        g = parse_group(name)
        mult = weight_multiplicities(g, adj)
        zero = (0,) * g.rank
        assert mult[zero] == g.rank
        for c in g.posroots:
            assert mult[g.root_fc(c)] == 1
        assert sum(mult.values()) == g.dim


def test_g2_seven_dim_weights():
    g = parse_group("G2")
    mult = weight_multiplicities(g, (1, 0))
    assert mult[(0, 0)] == 1
    assert len(mult) == 7 and set(mult.values()) == {1}


def test_b2_sixteen():
    g = parse_group("B2")
    mult = weight_multiplicities(g, (1, 1))
    assert sum(mult.values()) == 16
    assert mult[(1, 1)] == 1
    # (1,1) - alpha2 = (2,-1); its multiplicity is 1; the weight (0,1) is
    # (1,1) - alpha1 - alpha2 and has multiplicity 2
    assert mult[(2, -1)] == 1
    assert mult[(0, 1)] == 2


def test_a1_string():
    mult = weight_multiplicities(parse_group("A1"), (3,))
    assert mult == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}


def test_torus_coords_ride_along():
    g = parse_group("A1+T1")
    mult = weight_multiplicities(g, (2, 5))
    assert mult == {(2, 5): 1, (0, 5): 1, (-2, 5): 1}


# ---- exact module construction -----------------------------------------------


def _is_homomorphism(mod):
    """[x_i, x_j] = sum_k c_ijk x_k on the module for every bracket pair.

    Checked column by column: column l of a @ b is a applied to column l of
    b, the sparse matvec combine(b[:, l], a.T)."""
    g = mod.group
    n = mod.dim
    act = dense_matrices(mod)
    cols = [[m[:, l] for m in act] for l in range(n)]
    for i in range(g.dim):
        a = act[i]
        for j in range(i + 1, g.dim):
            b = act[j]
            v = g.bracket_table[i][j]
            for l in range(n):
                lhs = combine(b[:, l], a.T, (n,)) - combine(a[:, l], b.T, (n,))
                if not is_zero(lhs - combine(v, cols[l], (n,))):
                    return False
    return True


def _with_matrix(mod, k, m):
    """mod with the matrix of basis element k replaced by the dense m."""
    columns = list(mod.columns)
    columns[k] = nonzero_columns(m)
    return repthy.Module(mod.group, mod.label, mod.weights, columns)


def test_is_homomorphism_catches_one_flipped_entry():
    g = parse_group("B2")
    mod = build_module(g, (1, 0))
    assert _is_homomorphism(mod)
    # negate one nonzero entry of the highest root's raising matrix
    k = g._index[("e", g.posroots[-1])]
    m = dense_matrices(mod)[k]
    r, c = next((r, c) for r in range(mod.dim) for c in range(mod.dim) if m[r, c] != 0)
    m[r, c] = -m[r, c]
    assert not _is_homomorphism(_with_matrix(mod, k, m))


@pytest.mark.parametrize(
    "kind,message",
    [("e", r"\[e_i, f_i\] != h_i"), ("h", "h_i is not diagonal")],
)
def test_generator_check_catches_one_changed_entry(kind, message):
    g = parse_group("A2")
    mod = build_module(g, (1, 1))
    repthy._verify_generators(mod)
    # double one nonzero entry of the second simple e, or put one
    # off-diagonal entry into the second coroot
    k = g._index[(kind, g.simple_root(1) if kind == "e" else 1)]
    m = dense_matrices(mod)[k]
    if kind == "e":
        r, c = next((r, c) for r in range(mod.dim) for c in range(mod.dim) if m[r, c] != 0)
        m[r, c] = 2 * m[r, c]
    else:
        m[0, 1] = m[0, 1] + 1
    with pytest.raises(InternalInvariantError, match=message):
        repthy._verify_generators(_with_matrix(mod, k, m))


@pytest.mark.parametrize("kind,message", [("f", r"\[e_i, f_i\] != h_i"), ("h", "h_i is not diagonal")])
def test_generator_check_catches_changed_f_entry_and_h_diagonal(kind, message):
    g = parse_group("A2")
    mod = build_module(g, (1, 1))
    # add one to a nonzero entry of the first simple f, or to a diagonal
    # entry of the first coroot
    k = g._index[(kind, g.simple_root(0) if kind == "f" else 0)]
    m = dense_matrices(mod)[k]
    r, c = next((r, c) for r in range(mod.dim) for c in range(mod.dim) if m[r, c] != 0)
    if kind == "h":
        c = r
    m[r, c] = m[r, c] + 1
    with pytest.raises(InternalInvariantError, match=message):
        repthy._verify_generators(_with_matrix(mod, k, m))


@pytest.mark.parametrize(
    "name,label",
    [
        ("A1", (3,)),
        ("A2", (0, 1)),
        ("A2", (1, 1)),
        ("B2", (1, 0)),
        ("B2", (1, 1)),
        ("G2", (1, 0)),
        ("A1xA1", (1, 1)),
        ("A1+T1", (2, 3)),
        ("B2", (2, 0)),
        ("G2", (2, 0)),
    ],
)
def test_build_module_is_representation(name, label):
    g = parse_group(name)
    mod = build_module(g, label)
    assert mod.dim == weyl_dim(g, label)
    assert _is_homomorphism(mod)
    # highest weight vector sits at index 0 and is killed by raising ops
    assert mod.weights[0] == tuple(label)
    act = dense_matrices(mod)
    for i in range(g.rank):
        e = act[g._index[("e", g.simple_root(i))]]
        assert all(e[k, 0] == 0 for k in range(mod.dim))


def test_g2_adjoint_build_matches_ad():
    g = parse_group("G2")
    mod = build_module(g, (0, 1))
    assert mod.dim == 14
    assert _is_homomorphism(mod)


def test_dimension_cap(monkeypatch):
    # the cap is checked before any build, so a stub builder shows that the
    # bound itself is admitted without building the 64-dimensional module
    built = []
    monkeypatch.setattr(repthy, "_MODULE_CACHE", {})
    monkeypatch.setattr(repthy, "_build_irreducible", lambda group, lab: built.append(lab) or "built")
    g = parse_group("A1")
    assert (weyl_dim(g, (63,)), weyl_dim(g, (64,))) == (64, 65)
    with pytest.raises(DimensionCapError):
        build_module(g, (64,))
    assert built == []
    assert build_module(g, (63,)) == "built"
    assert built == [(63,)]


def _flip_top_multiplicity(true):
    """weight_multiplicities with the top multiplicity raised by one: a wrong
    character, which the builder must refuse."""

    def flipped(group, label):
        mult = dict(true(group, label))
        mult[tuple(label)] += 1
        return mult

    return flipped


def test_wrong_multiplicities_raise_internal_invariant(monkeypatch):
    monkeypatch.setattr(repthy, "_MODULE_CACHE", {})
    monkeypatch.setattr(
        repthy, "weight_multiplicities", _flip_top_multiplicity(repthy.weight_multiplicities)
    )
    with pytest.raises(InternalInvariantError) as info:
        build_module(parse_group("A2"), (1, 1))
    assert info.value.code == "internal_invariant"


def test_invariant_checks_survive_python_O():
    # three faults, each caught by its own guard: a wrong character of the
    # module built, a virtual character (a negative multiplicity) whose symmetric
    # powers miss binomial(dim + n - 1, n), and root pairings off by one, so
    # that a Freudenthal quotient is not an integer
    src = str(Path(repthy.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    code = (
        f"import sys; sys.path[:0] = [{src!r}, {tests!r}]\n"
        "from test_repthy import _flip_top_multiplicity\n"
        "from weylkit import repthy, sympoly\n"
        "from weylkit.errors import InternalInvariantError\n"
        "from weylkit.rootsys import parse_group\n"
        "a1, a2 = parse_group('A1'), parse_group('A2')\n"
        "true = repthy.weight_multiplicities\n"
        "repthy.weight_multiplicities = _flip_top_multiplicity(true)\n"
        "sympoly.module_character = lambda group, summands: {(1,): 1, (-1,): 1, (0,): -1}\n"
        "pairing = a1.root_pairing\n"
        "faults = [\n"
        "    lambda: repthy.build_module(a2, (1, 1)),\n"
        "    lambda: sympoly.sym_power_characters(a1, [((1,), 1)], 3),\n"
        "    lambda: (setattr(a1, 'root_pairing', lambda mu, c: pairing(mu, c) + 1), true(a1, (2,))),\n"
        "]\n"
        "for fault in faults:\n"
        "    try:\n"
        "        fault()\n"
        "    except InternalInvariantError as exc:\n"
        "        print(__debug__, exc.code, exc)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == [
        "False internal_invariant weights of (1, 1) miss Freudenthal's",
        "False internal_invariant a symmetric power has the wrong dimension",
        "False internal_invariant Freudenthal multiplicity is not a positive integer",
    ]


def _ambient_wide_extract(group, m1, m2, label):
    """The irreducible of highest weight label inside m1 (x) m2, as the
    cyclic span of its highest weight vector kept in one span over the whole
    ambient space: an extraction step for ``module_by_tensor_chain``."""
    amb = list(zip(dense_matrices(m1), dense_matrices(m2)))
    amb_weights = [repthy._add(w1, w2) for w1 in m1.weights for w2 in m2.weights]
    adim = len(amb_weights)
    es = [amb[group._index[("e", group.simple_root(i))]] for i in range(group.rank)]
    fs = [amb[group._index[("f", group.simple_root(i))]] for i in range(group.rank)]
    positions = [k for k, w in enumerate(amb_weights) if w == label]
    cols = []
    for p in positions:
        unit = zeros(adim)
        unit[p] = F1
        cols.append(np.concatenate([dense_tensor_apply(*e, unit) for e in es]))
    (ker,) = nullspace([sparse(c) for c in cols])
    v0 = zeros(adim)
    v0[positions] = densify(ker, (len(positions),))
    span = DenseSpanBasis(adim)
    assert span.add(v0)
    basis, bweights, queue = [v0], [label], [0]
    alphas = [group.root_fc(group.simple_root(i)) for i in range(group.rank)]
    while queue:
        b = queue.pop(0)
        for i in range(group.rank):
            w = dense_tensor_apply(*fs[i], basis[b])
            if not is_zero(w) and span.add(w):
                basis.append(w)
                bweights.append(repthy._sub(bweights[b], alphas[i]))
                queue.append(len(basis) - 1)
    n = len(basis)
    act = []
    for x in amb:
        mat = zeros(n, n)
        for k in range(n):
            coords = span.express(dense_tensor_apply(*x, basis[k]))
            assert coords is not None
            mat[:, k] = coords
        act.append(mat)
    return repthy.Module(group, label, bweights, [nonzero_columns(a) for a in act])


def _assert_same_typed_tables(got, want):
    """got and want have equal labels, weights and column tables, entry
    types included."""
    assert (got.label, got.weights) == (want.label, want.weights)
    assert all(type(c) is int for w in got.weights for c in w)
    assert len(got.columns) == got.group.dim and all(len(m) == got.dim for m in got.columns)
    typed = [[[(i, type(x), x) for i, x in col] for col in m] for m in want.columns]
    assert [[[(i, type(x), x) for i, x in col] for col in m] for m in got.columns] == typed


@pytest.mark.parametrize(
    "name,label",
    [
        ("A1", (16,)),
        ("B2", (1, 2)),
        ("G2", (2, 0)),
        ("A2+T1", (1, 1, 3)),
        ("A1xA2", (1, 1, 1)),
        # tables with denominators: A2 (3, 0), B2 (2, 0) and G2 (0, 1) have
        # simple e_i and f_i tables of common denominator 6, which their
        # commutators and sl2 check scale away
        ("A2", (3, 0)),
        ("B2", (2, 0)),
        ("G2", (0, 1)),
    ],
)
def test_span_per_weight_matches_ambient_wide_reference(monkeypatch, name, label):
    # the Verma quotient equals the chain of tensor-product extractions, each
    # kept in one span over its whole ambient space
    g = parse_group(name)
    monkeypatch.setattr(repthy, "_MODULE_CACHE", {})
    _assert_same_typed_tables(build_module(g, label), module_by_tensor_chain(g, label, _ambient_wide_extract))


HOMOMORPHISM_GROUPS = ("A1", "A2", "B2", "G2", "A1xA1", "A1xA2", "A1xA1xA1", "A1+T1", "A2+T1", "B2+T1", "G2+T1")


def _labels_of(groups, cap=64):
    """(group name, label) over the dominant labels of dimension at most cap."""
    return st.sampled_from(groups).flatmap(
        lambda name: st.tuples(st.just(name), st.sampled_from(labels_up_to_dim(name, cap)))
    )


@settings(max_examples=10, deadline=None)
@given(_labels_of(HOMOMORPHISM_GROUPS))
def test_build_module_equals_the_ambient_wide_chain(case):
    name, label = case
    g = parse_group(name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repthy, "_MODULE_CACHE", {})
        got = build_module(g, label)
    _assert_same_typed_tables(got, module_by_tensor_chain(g, label, _ambient_wide_extract))


@settings(max_examples=20, deadline=None)
@given(_labels_of(HOMOMORPHISM_GROUPS))
@example(("A1", (63,)))
@example(("B2", (1, 3)))
@example(("G2", (1, 1)))
@example(("A1xA1", (7, 7)))
@example(("A2+T1", (3, 3, -2)))
@example(("G2+T1", (0, 1, 2)))
@example(("A1xA2", (1, 1, 1)))
def test_f_columns_from_the_lowering_pass_equal_the_tensor_apply_loop(case):
    # the Verma quotient equals the chain of tensor-product extractions whose
    # column loop applies every generator in the ambient space
    name, label = case
    g = parse_group(name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(repthy, "_MODULE_CACHE", {})
        got = build_module(g, label)
    _assert_same_typed_tables(got, module_by_tensor_chain(g, label, columns_by_tensor_apply))


@pytest.mark.parametrize("name", HOMOMORPHISM_GROUPS)
def test_seed_labels_return_the_seed_module(monkeypatch, name):
    # each factor's seed and the module built for its label come from the
    # one walk, so they agree entry for entry, in the same basis, h_i and
    # every root vector included
    g = parse_group(name)
    monkeypatch.setattr(repthy, "_MODULE_CACHE", {})
    for seeds in g.factor_seeds:
        seed = seed_module(g, seeds)
        _assert_same_typed_tables(build_module(g, seed.label), seed)


BUILDER_FAULTS = """
from weylkit import repthy
from weylkit.errors import InternalInvariantError
from weylkit.rootsys import parse_group
a1, a2 = parse_group('A1'), parse_group('A2')
dim, module = repthy.weyl_dim, repthy.Module


class DoubledE(module):
    # every entry of the first simple e doubled as the builder hands its tables over
    def __init__(self, group, label, weights, columns):
        columns = list(columns)
        k = group._index[('e', group.simple_root(0))]
        columns[k] = [[(r, 2 * x) for r, x in col] for col in columns[k]]
        super().__init__(group, label, weights, columns)


def off_by(k):
    repthy.weyl_dim = lambda group, label: dim(group, label) + k


faults = [
    (lambda: off_by(1), a2, (1, 1)),
    (lambda: off_by(-1), a1, (3,)),
    (lambda: setattr(repthy, 'Module', DoubledE), a2, (2, 0)),
]
for fault, group, label in faults:
    repthy.weyl_dim, repthy.Module, repthy._MODULE_CACHE = dim, module, {}
    fault()
    try:
        repthy.build_module(group, label)
    except InternalInvariantError as exc:
        print(__debug__, exc.code, exc)
"""


def test_builder_guards_survive_python_O():
    # three faults in what the builder reads, each caught by its own guard: a
    # Weyl dimension one too high (too few vectors), one too low (the walk
    # stops at one vector more) and a simple e doubled (the sl2 check)
    src = str(Path(repthy.__file__).resolve().parents[1])
    code = f"import sys; sys.path[:0] = [{src!r}]\n" + BUILDER_FAULTS
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == [
        "False internal_invariant built 8 vectors for (1, 1), expected 9",
        "False internal_invariant built 4 vectors for (3,), expected 3",
        "False internal_invariant [e_i, f_i] != h_i",
    ]




@settings(max_examples=25, deadline=None)
@given(_labels_of(HOMOMORPHISM_GROUPS, 16))
@example(("G2", (0, 1)))
@example(("B2+T1", (1, 1, -1)))
def test_action_is_a_lie_homomorphism(case):
    # the builder writes the columns of each non-simple root vector by the
    # extraspecial recursion (rootsys.root_vectors) from the module's own
    # simple e_i and f_i, never reading the structure constants;
    # action([x, y]) = [action(x), action(y)] on every pair of basis
    # elements ties that recursion to bracket_table, whose constants the
    # same recursion fixed on the seeds
    name, label = case
    g = parse_group(name)
    mod = build_module(g, label)
    act = dense_matrices(mod)
    for i, j in itertools.combinations(range(g.dim), 2):
        want = matmul(act[i], act[j]) - matmul(act[j], act[i])
        assert np.array_equal(mod.action(g.bracket_table[i][j]), want)


def test_module_cache():
    g = parse_group("A2")
    assert build_module(g, (1, 0)) is build_module(g, (1, 0))


@pytest.mark.parametrize("letter, label", [("A2", (1, 1)), ("B2", (1, 1)), ("G2", (1, 0))])
def test_modules_are_built_without_the_structure_constants(monkeypatch, letter, label):
    # building a module and counting its invariants need only the Cartan
    # data: a fresh group never fills its structure-constant table
    monkeypatch.setattr(repthy, "_MODULE_CACHE", {})
    g = Group((letter,), 0, letter)
    build_module(g, label)
    for name in ("cartan", "principal"):
        invariant_multiplicity(g, standard_subalgebra(g, name), label)
    assert "_ad_columns" not in g.__dict__


def test_torus_action_is_scalar():
    g = parse_group("A1+T1")
    mod = build_module(g, (1, 7))
    t = dense_matrices(mod)[g._index[("t", 0)]]
    assert all(t[k, k] == 7 for k in range(mod.dim))
    assert set(mod.weights) == {(1, 7), (-1, 7)}


# ---- tensor decomposition (frozen Clebsch-Gordan data) ------------------------


TENSORS = [
    ("A1", (2,), (2,), {(4,): 1, (2,): 1, (0,): 1}),
    ("A1", (1,), (3,), {(4,): 1, (2,): 1}),
    ("A2", (1, 0), (0, 1), {(1, 1): 1, (0, 0): 1}),
    ("A2", (1, 0), (1, 0), {(2, 0): 1, (0, 1): 1}),
    ("A2", (1, 1), (1, 0), {(2, 1): 1, (0, 2): 1, (1, 0): 1}),
    ("B2", (0, 1), (0, 1), {(0, 2): 1, (1, 0): 1, (0, 0): 1}),
    ("G2", (1, 0), (1, 0), {(2, 0): 1, (0, 1): 1, (1, 0): 1, (0, 0): 1}),
    ("A1xA1", (1, 0), (0, 1), {(1, 1): 1}),
]


@pytest.mark.parametrize("name,l1,l2,expect", TENSORS)
def test_tensor_decompose(name, l1, l2, expect):
    assert tensor_decompose(parse_group(name), l1, l2) == expect


def test_decompose_character_roundtrip():
    g = parse_group("B2")
    char = module_character(g, [((1, 0), 1), ((0, 1), 2)])
    assert decompose_character(g, char) == {(1, 0): 1, (0, 1): 2}


# A1 characters that are no characters: (0,) is not a weight of the first, so
# its one dominant weight (2,) gives V(2), of dimension 3 instead of 2; the
# second has odd dimension 1 for V(1); the third is 2 V(2) - V(0).
NON_CHARACTERS = [
    ({(2,): 1, (-2,): 1}, "constituents have dimension 3, not 2"),
    ({(1,): 1}, "constituents have dimension 2, not 1"),
    ({(2,): 2, (0,): 1, (-2,): 2}, "negative multiplicity: not a character"),
]


@pytest.mark.parametrize("char,message", NON_CHARACTERS)
def test_non_character_is_refused(char, message):
    with pytest.raises(InternalInvariantError, match=message):
        decompose_character(parse_group("A1"), char)


def test_decomposition_guards_survive_python_O():
    src = str(Path(repthy.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path[:0] = [{src!r}]\n"
        "from weylkit.repthy import decompose_character\n"
        "from weylkit.errors import InternalInvariantError\n"
        "from weylkit.rootsys import parse_group\n"
        f"for char in {[char for char, _ in NON_CHARACTERS]!r}:\n"
        "    try:\n"
        "        decompose_character(parse_group('A1'), char)\n"
        "    except InternalInvariantError as exc:\n"
        "        print(__debug__, exc.code)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == ["False internal_invariant"] * len(NON_CHARACTERS)


# ---- character arithmetic properties -------------------------------------------

PROPERTY_GROUPS = ("A1", "A2", "B2", "G2", "A1xA1", "A2+T1", "T1")


@functools.cache
def _small_labels(name):
    """Dominant labels of dimension at most 27, entries boxed."""
    g = parse_group(name)
    box = itertools.product(*([range(4)] * g.rank + [range(-2, 3)] * g.torus_dim))
    return [lab for lab in box if weyl_dim(g, lab) <= 27]


def _draw_labels(data, count):
    name = data.draw(st.sampled_from(PROPERTY_GROUPS))
    labels = st.sampled_from(_small_labels(name))
    return parse_group(name), [data.draw(labels) for _ in range(count)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_alternation_equals_stripping_on_sums_of_irreducibles(data):
    g, labels = _draw_labels(data, data.draw(st.integers(1, 4)))
    mults = [data.draw(st.integers(1, 3)) for _ in labels]
    char, expect = {}, {}
    for lab, mult in zip(labels, mults):
        expect[lab] = expect.get(lab, 0) + mult
        for w, m in weight_multiplicities(g, lab).items():
            char[w] = char.get(w, 0) + mult * m
    assert decompose_character(g, char) == strip_decompose(g, char) == expect


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tensor_decompose_commutes_and_conserves_dimension(data):
    g, (l1, l2) = _draw_labels(data, 2)
    out = tensor_decompose(g, l1, l2)
    assert out == tensor_decompose(g, l2, l1)
    assert sum(m * weyl_dim(g, lab) for lab, m in out.items()) == weyl_dim(g, l1) * weyl_dim(g, l2)
    char = convolve_characters(weight_multiplicities(g, l1), weight_multiplicities(g, l2))
    assert out == strip_decompose(g, char)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PROPERTY_GROUPS), st.lists(st.integers(-6, 6), min_size=3, max_size=3))
def test_dual_label_is_an_involution(name, entries):
    g = parse_group(name)
    lab = tuple(abs(x) for x in entries[: g.rank]) + tuple(entries[g.rank : g.weight_len])
    assert g.dual_label(g.dual_label(lab)) == lab


@functools.cache
def _labels_to_64(name):
    """Dominant labels of dimension at most 64, entries boxed."""
    g = parse_group(name)
    top = 64 if g.rank == 1 else 16
    box = itertools.product(*([range(top)] * g.rank + [range(-3, 4)] * g.torus_dim))
    return [lab for lab in box if weyl_dim(g, lab) <= 64]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_integer_freudenthal_equals_the_fraction_recursion(data):
    name = data.draw(st.sampled_from(["A1", "A2", "B2", "G2", "A1xA1", "A2+T1"]))
    g = parse_group(name)
    lab = data.draw(st.sampled_from(_labels_to_64(name)))
    got = weight_multiplicities(g, lab)
    assert got == fraction_weight_multiplicities(g, lab)
    assert all(type(m) is int for m in got.values())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_weyl_dim_is_the_sum_of_weight_multiplicities(data):
    g, (lab,) = _draw_labels(data, 1)
    assert sum(weight_multiplicities(g, lab).values()) == weyl_dim(g, lab)


ACTION_MODULES = [
    ("A1", (3,)),
    ("A2", (1, 1)),
    ("B2", (1, 0)),
    ("G2", (1, 0)),
    ("A1xA1", (1, 2)),
    ("A1+T1", (2, 3)),
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ACTION_MODULES), st.data())
def test_action_equals_dense_combination(module, data):
    name, label = module
    g = parse_group(name)
    mod = build_module(g, label)
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    x = fvec(data.draw(st.lists(st.one_of(st.just(0), rationals), min_size=g.dim, max_size=g.dim)))
    got = mod.action(x)
    want = combine(x, dense_matrices(mod), (mod.dim, mod.dim))
    assert got.shape == want.shape
    assert all(type(a) is Fraction and a == b for a, b in zip(got.flat, want.flat))
