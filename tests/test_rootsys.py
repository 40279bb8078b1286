import itertools
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit.errors import (
    DegenerateInputError,
    InternalInvariantError,
    NonNilpotentDirectionError,
    NotSubalgebraError,
    ParseError,
    UnknownNameError,
    UnsupportedTypeError,
)
from pathlib import Path

from weylkit import rootsys
from weylkit.linalg import F0, F1, eye, fr, fvec, zeros
from weylkit.rootsys import Group, Subalgebra, parse_group, standard_subalgebra
from weyl_references import (
    all_pairs_ad_columns,
    all_pairs_invariant_form,
    all_pairs_killing_form,
    apply_matrix,
    apply_word,
    dense_ad_basis,
    flat_span_bracket_table,
    is_zero,
    matmul,
    supported_names,
    weyl_matrices,
    word_matrix,
    wform,
)


# ---- parsing ---------------------------------------------------------------


def test_parse_canonical_names():
    assert parse_group("A1").name == "A1"
    assert parse_group(" A1xA2 ").name == "A1xA2"
    assert parse_group("B2+T1").name == "B2+T1"
    assert parse_group("T2").name == "T2"
    assert parse_group("A1+T0").name == "A1"


def test_parse_interns_groups():
    assert parse_group("G2") is parse_group("G2")


def test_parse_rejects_unsupported_types():
    with pytest.raises(UnsupportedTypeError):
        parse_group("C2")
    with pytest.raises(UnsupportedTypeError):
        parse_group("A3")
    with pytest.raises(UnsupportedTypeError):
        parse_group("A1xA1xA2")  # rank 4


def test_parse_rejects_garbage():
    for bad in ["", "foo", "A1xx", "T2+T1", "A1+X1", "T0"]:
        with pytest.raises(ParseError):
            parse_group(bad)


# ---- root data (frozen oracles) ---------------------------------------------


POSROOTS = {
    "A1": [(1,)],
    "A2": [(0, 1), (1, 0), (1, 1)],
    "B2": [(0, 1), (1, 0), (1, 1), (1, 2)],
    "G2": [(0, 1), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2)],
    "A1xA2": [(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1)],
    "A1xA1+T1": [(0, 1), (1, 0)],
}


@pytest.mark.parametrize("name", list(POSROOTS))
def test_positive_roots(name):
    assert parse_group(name).posroots == POSROOTS[name]


def test_product_roots_and_dim():
    g = parse_group("A1xA2")
    assert len(g.posroots) == 4
    assert g.dim == 3 + 2 * 4  # h's + e's + f's
    assert g.weight_len == 3
    gt = parse_group("A1xA1+T1")
    assert gt.dim == 2 + 1 + 2 * 2
    assert gt.weight_len == 3


DIMS = {"A1": 3, "A2": 8, "B2": 10, "G2": 14}


@pytest.mark.parametrize("name,dim", DIMS.items())
def test_algebra_dimensions(name, dim):
    assert parse_group(name).dim == dim


def test_root_fc():
    g = parse_group("B2")
    assert g.root_fc((1, 0)) == (2, -2)
    assert g.root_fc((0, 1)) == (-1, 2)
    assert g.root_fc((1, 2)) == (0, 2)


# ---- weight form (frozen rational values) -----------------------------------


def test_wform_a2():
    g = parse_group("A2")
    assert wform(g, (1, 0), (1, 0)) == Fraction(2, 3)
    assert wform(g, (1, 0), (0, 1)) == Fraction(1, 3)
    a1 = g.root_fc((1, 0))
    assert wform(g, a1, a1) == 2


def test_wform_lengths_b2_g2():
    b2 = parse_group("B2")
    assert wform(b2, b2.root_fc((1, 0)), b2.root_fc((1, 0))) == 4  # long
    assert wform(b2, b2.root_fc((0, 1)), b2.root_fc((0, 1))) == 2  # short
    g2 = parse_group("G2")
    assert wform(g2, g2.root_fc((1, 0)), g2.root_fc((1, 0))) == 2
    assert wform(g2, g2.root_fc((0, 1)), g2.root_fc((0, 1))) == 6


def test_wform_torus_block():
    g = parse_group("A1+T1")
    assert wform(g, (0, 3), (0, 2)) == 6
    assert wform(g, (1, 0), (0, 5)) == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_root_pairing_is_wform_with_a_root_combination(data):
    g = parse_group(data.draw(st.sampled_from(["A1", "A2", "B2", "G2", "A1xA1", "A2+T1", "A1xB2", "G2+T1"])))
    mu = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=g.weight_len, max_size=g.weight_len)))
    c = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=g.rank, max_size=g.rank)))
    got = g.root_pairing(mu, c)
    assert type(got) is int and got == wform(g, mu, g.root_fc(c))


# ---- bracket table ----------------------------------------------------------


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A1xA1+T1"])
def test_simple_generator_relations(name):
    g = parse_group(name)
    for i in range(g.rank):
        ei = g.gen_vector("e", g.simple_root(i))
        for j in range(g.rank):
            fj = g.gen_vector("f", g.simple_root(j))
            br = g.bracket(ei, fj)
            if i == j:
                assert is_zero(br - g.gen_vector("h", i))
            else:
                assert is_zero(br)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_cartan_acts_by_roots(name):
    g = parse_group(name)
    for i in range(g.rank):
        h = g.gen_vector("h", i)
        for c in g.posroots:
            fc = g.root_fc(c)
            e = g.gen_vector("e", c)
            f = g.gen_vector("f", c)
            assert is_zero(g.bracket(h, e) - fc[i] * e)
            assert is_zero(g.bracket(h, f) + fc[i] * f)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_coroot_pairings(name):
    # [e_g, f_g] acts on e_d with eigenvalue 2(d,g)/(g,g)
    g = parse_group(name)
    for c in g.posroots:
        hg = g.bracket(g.gen_vector("e", c), g.gen_vector("f", c))
        gfc = g.root_fc(c)
        for d in g.posroots:
            dfc = g.root_fc(d)
            expect = 2 * wform(g, dfc, gfc) / wform(g, gfc, gfc)
            ed = g.gen_vector("e", d)
            assert is_zero(g.bracket(hg, ed) - expect * ed)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A1xA1+T1"])
def test_jacobi_exhaustive(name):
    g = parse_group(name)
    t = g.bracket_table
    n = g.dim

    def br(vec, k):
        out = zeros(n)
        for l in range(n):
            if vec[l] != 0:
                out = out + vec[l] * t[l][k]
        return -out  # [vec, b_k] = -[b_k, vec]

    for i in range(n):
        for j in range(i + 1, n):
            vij = t[i][j]
            for k in range(j + 1, n):
                total = br(t[j][k], i) * -1 + zeros(n)
                # [b_i,[b_j,b_k]] + [b_j,[b_k,b_i]] + [b_k,[b_i,b_j]] = 0
                s = zeros(n)
                for l in range(n):
                    x = t[j][k][l]
                    if x != 0:
                        s = s + x * t[i][l]
                    y = t[k][i][l]
                    if y != 0:
                        s = s + y * t[j][l]
                    z = vij[l]
                    if z != 0:
                        s = s + z * t[k][l]
                assert is_zero(s), (name, i, j, k)


def test_chevalley_involution_is_automorphism():
    # h -> -h, t -> -t, e -> -f, f -> -e must preserve brackets
    for name in ["A2", "B2", "G2"]:
        g = parse_group(name)
        theta = zeros(g.dim, g.dim)
        for idx, (kind, which) in enumerate(g.basis_labels):
            if kind in ("h", "t"):
                theta[idx, idx] = Fraction(-1)
            elif kind == "e":
                theta[g._index[("f", which)], idx] = Fraction(-1)
            else:
                theta[g._index[("e", which)], idx] = Fraction(-1)
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                lhs = theta @ g.bracket_table[i][j]
                rhs = g.bracket(theta[:, i], theta[:, j])
                assert is_zero(lhs - rhs), (name, i, j)


# ---- Weyl group ----------------------------------------------------------


WEYL_ORDERS = {"A1": 2, "A2": 6, "B2": 8, "G2": 12, "A1xA1": 4, "A2+T1": 6}


@pytest.mark.parametrize("name,order", WEYL_ORDERS.items())
def test_weyl_group_order(name, order):
    g = parse_group(name)
    assert len(g.weyl_elements) == order == len(weyl_matrices(g))


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A1xA1", "A1xA2", "A2+T1", "A1xA1xA1"])
def test_weyl_elements_match_reflection_matrices(name):
    # each entry's w(rho) is its word's matrix product applied to rho, the
    # entries are the whole matrix group once each, and each word is as
    # short as the reference's for the same element: it is reduced
    g = parse_group(name)
    ref = weyl_matrices(g)
    keys = set()
    for wrho, word in g.weyl_elements:
        m = word_matrix(g, word)
        assert apply_matrix(g, m, g.rho) == wrho == apply_word(g, word, g.rho)
        key = tuple(m.reshape(-1))
        assert len(word) == len(ref[key][0])
        keys.add(key)
    assert keys == set(ref)


def test_torus_only_weyl_group_is_trivial():
    for name in ("T1", "T3"):
        g = parse_group(name)
        assert g.weyl_elements == [(g.rho, ())]


@pytest.mark.parametrize(
    "name", ["A1", "A2", "B2", "G2", "A1xA1", "A1xA2", "A2+T1", "A1xA1xA1"]
)
def test_longest_element_negates_positive_roots(name):
    # w0 is the last Weyl element reached; check what defines it
    g = parse_group(name)
    w0rho, word = g.weyl_elements[-1]
    w0 = word_matrix(g, word)
    negatives = {tuple(-x for x in g.root_fc(c)) for c in g.posroots}
    assert all(apply_matrix(g, w0, g.root_fc(c)) in negatives for c in g.posroots)
    assert w0rho == tuple(-x for x in g.rho[: g.rank]) + g.rho[g.rank :]
    assert len(word) == len(g.posroots)
    if name in ("A1", "B2", "G2"):  # there w0 = -1
        assert is_zero(w0 + eye(g.rank))


def test_dual_labels():
    a2 = parse_group("A2")
    assert a2.dual_label((1, 0)) == (0, 1)
    assert a2.dual_label((1, 1)) == (1, 1)
    b2 = parse_group("B2")
    assert b2.dual_label((2, 1)) == (2, 1)
    t = parse_group("A2+T1")
    assert t.dual_label((1, 0, 5)) == ((0, 1, -5))


@pytest.mark.parametrize("name", supported_names())
def test_dual_label_is_minus_w0_of_label(name):
    g = parse_group(name)
    w0 = word_matrix(g, g.weyl_elements[-1][1])
    labels = [
        lab
        for lab in itertools.product(range(-6, 7), repeat=g.weight_len)
        if sum(map(abs, lab)) <= 6 and g.is_dominant(lab)
    ]
    for lab in labels:
        # the formula dual_label replaced: -w0(label), torus part negated
        img = apply_matrix(g, w0, lab)
        assert g.dual_label(lab) == tuple(-x for x in img)


def test_longest_word_lengths():
    # reduced length equals the number of positive roots
    for name, length in (("A1", 1), ("A2", 3), ("B2", 4), ("G2", 6)):
        assert len(parse_group(name).weyl_elements[-1][1]) == length


def test_longest_word_matches_matrix():
    # the reference w0: the one matrix taking every positive root negative
    for name in ["A2", "B2", "A1xA1"]:
        g = parse_group(name)
        negatives = {tuple(-x for x in g.root_fc(c)) for c in g.posroots}
        (w0,) = [
            m for _, m in weyl_matrices(g).values()
            if all(apply_matrix(g, m, g.root_fc(c)) in negatives for c in g.posroots)
        ]
        assert is_zero(word_matrix(g, g.weyl_elements[-1][1]) - w0)


def test_fundamental_weights_pair_to_delta():
    for name in ["A2", "B2", "G2"]:
        g = parse_group(name)
        for i, om in enumerate(g.fundamental_weights):
            # om is in simple-root coordinates; apply A to read off the
            # fundamental-weight coordinates, which must be e_i
            fc = g.cartan_matrix @ om
            assert [x for x in fc] == [F1 if j == i else F0 for j in range(g.rank)]


def test_dom_rep():
    g = parse_group("A2")
    assert g.dom_rep((-1, 1)) == (1, 0)
    assert g.dom_rep((0, 0)) == (0, 0)
    orbit = {apply_matrix(g, w, (1, 0)) for _, w in weyl_matrices(g).values()}
    assert set(g.orbit((1, 0))) == orbit
    assert all(g.dom_rep(w) == (1, 0) for w in orbit)


TABLE_GROUPS = ["A1", "A2", "B2", "G2", "A1xA1", "A1xA2", "A1xA1xA1", "A2+T1", "A1+T2", "T1"]


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_bracket_table_equals_flat_span_reference(name):
    # per weight space, against one span of all flattened seed matrices
    g = parse_group(name)
    ref = flat_span_bracket_table(g)
    for row, ref_row in zip(g.bracket_table, ref):
        for v, w in zip(row, ref_row):
            assert all(a == b and type(a) is Fraction for a, b in zip(v, w))


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_killing_form_equals_trace_of_dense_products(name):
    g = parse_group(name)
    # tr(ad_a ad_b) = vec(ad_a) . vec(ad_b^T): one product of stacked rows
    ads = dense_ad_basis(g)
    rows = np.array([a.reshape(-1) for a in ads])
    cols = np.array([a.T.reshape(-1) for a in ads])
    want = matmul(rows, cols.T)
    assert all(a == b and type(a) is Fraction for a, b in zip(g.killing_form.flat, want.flat))


REFERENCE_GROUPS = [
    "A1", "A2", "B2", "G2", "A1xA1", "A1xA2", "A1xB2", "A1xG2", "A1xA1xA1",
    "A1+T1", "A2+T1", "B2+T1", "G2+T1", "A1xA1+T1", "T1", "T2", "T3",
]


@pytest.mark.parametrize("name", REFERENCE_GROUPS)
def test_tables_equal_the_all_pairs_reference(name):
    # weight-matched int loops give the all-pairs derivation's tables, values
    # and types alike: int structure constants, dense Fraction forms
    g = parse_group(name)
    got, want = g._ad_columns, all_pairs_ad_columns(g)
    assert got == want
    assert [[[type(c) for _, c in col] for col in t] for t in got] == [[[int] * len(col) for col in t] for t in want]
    for form, ref in ((g.killing_form, all_pairs_killing_form(g)), (g.invariant_form, all_pairs_invariant_form(g))):
        assert form.shape == ref.shape == (g.dim, g.dim)
        assert all(a == b and type(a) is type(b) is Fraction for a, b in zip(form.flat, ref.flat))
    assert g.form_entries == {(k, m): int(x) for (k, m), x in np.ndenumerate(g.invariant_form) if x}
    assert all(type(x) is int for x in g.form_entries.values())


@pytest.mark.parametrize("letter", sorted(rootsys._SEED_DATA))
def test_seed_data_is_a_symmetrizable_cartan_matrix(letter):
    # (A, d, s): A_ii = 2, d_i A_ij = d_j A_ji, and s names a fundamental weight
    A, d, s = rootsys._SEED_DATA[letter]
    r = len(A)
    assert all(len(row) == r and A[i][i] == 2 for i, row in enumerate(A))
    assert all(d[i] * A[i][j] == d[j] * A[j][i] for i in range(r) for j in range(r))
    assert len(d) == r and s in range(r)


def _ad_columns_seeded_by(monkeypatch, letter, s):
    """The structure constants of one simple type with L(omega_s) as its seed."""
    A, d, _ = rootsys._SEED_DATA[letter]
    with monkeypatch.context() as mp:
        mp.setitem(rootsys._SEED_DATA, letter, (A, d, s))
        factor = rootsys._factor.__wrapped__(letter)  # past the cache
    g = Group((letter,), 0, letter)
    g.factors = [factor]
    return g._ad_columns


@pytest.mark.parametrize("letter", ["A2", "B2", "G2"])
def test_structure_constants_do_not_depend_on_the_seed(monkeypatch, letter):
    # A and the extraspecial signs fix the constants (Carter, *Simple Groups of
    # Lie Type*, sec. 4.2): every fundamental seeds the same int table, G2's
    # omega_2 being its 14-dimensional adjoint module
    want = parse_group(letter)._ad_columns
    for s in range(len(rootsys._SEED_DATA[letter][0])):
        got = _ad_columns_seeded_by(monkeypatch, letter, s)
        assert got == want
        assert all(type(c) is int for t in got for col in t for _, c in col)


RUNAWAY_SEED = """
from weylkit import rootsys
from weylkit.errors import InternalInvariantError
# symmetrizable (d = (5, 1)) but hyperbolic: L(omega_1) has no end
rootsys._SEED_DATA['H2'] = ([[2, -1], [-5, 2]], [5, 1], 0)
try:
    rootsys._factor('H2')
except InternalInvariantError as exc:
    print(__debug__, exc.code, exc)
"""


def test_a_seed_walk_that_never_closes_is_refused_under_python_O():
    # the seed's walk stops at its limit, before the closure of the roots
    # (which has no end either) is reached
    src = str(Path(rootsys.__file__).resolve().parents[1])
    code = f"import sys; sys.path[:0] = [{src!r}]\n" + RUNAWAY_SEED
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out.splitlines() == ["False internal_invariant seed walk of H2 passed 64 vectors"]


# G2's seed module leaves (0, 6) and the diagonal entry of weight 0 unused;
# (0, 2) is held by the seed of root (0, 1)
@pytest.mark.parametrize(
    "label, position, message",
    [
        (("h", 0), (0, 6), "bracket left its weight space"),
        (("e", (1, 0)), (0, 6), "bracket left the algebra span"),
        (("e", (1, 0)), (0, 2), "seeds of two weights overlap"),
    ],
)
def test_corrupted_seed_is_refused(label, position, message):
    seeds = {lab: m.copy() for lab, m in parse_group("G2").factor_seeds[0].items()}
    seeds[label][position] = seeds[label].get(position, 0) + 1
    g = Group(("G2",), 0, "G2")
    g.__dict__["factor_seeds"] = [seeds]
    with pytest.raises(InternalInvariantError, match=message):
        g.bracket_table


def test_dependent_seeds_of_one_weight_are_not_faithful():
    seeds = {lab: m.copy() for lab, m in parse_group("A2").factor_seeds[0].items()}
    seeds[("h", 1)] = {p: 2 * x for p, x in seeds[("h", 0)].items()}
    g = Group(("A2",), 0, "A2")
    g.__dict__["factor_seeds"] = [seeds]
    with pytest.raises(InternalInvariantError, match="seed representation not faithful"):
        g.bracket_table


@pytest.mark.parametrize("name, root", [("A1", (1,)), ("A2", (0, 1)), ("G2", (1, 1))])
def test_a_halved_seed_gives_a_constant_that_is_not_an_integer(name, root):
    # the first half-integral constant is met over A1's one Cartan seed and
    # G2's root space (1, 0), by the division, and for A2, whose halved
    # e_(0,1) meets f_(0,1) first, in the Cartan span, through its SpanBasis
    seeds = {lab: dict(m) for lab, m in parse_group(name).factor_seeds[0].items()}
    seeds[("e", root)] = {p: x / 2 for p, x in seeds[("e", root)].items()}
    g = Group((name,), 0, name)
    g.__dict__["factor_seeds"] = [seeds]
    with pytest.raises(InternalInvariantError, match="structure constant is not an integer"):
        g.bracket_table


# ---- Killing form, torus action, exponentials -------------------------------


def test_killing_values_sl2():
    g = parse_group("A1")
    h = g.gen_vector("h", 0)
    e = g.gen_vector("e", (1,))
    f = g.gen_vector("f", (1,))
    k = g.killing_form
    assert (h @ k @ h) == 8
    assert (e @ k @ f) == 4
    assert (e @ k @ e) == 0


def test_invariant_form_on_torus():
    g = parse_group("A1+T1")
    k = g.killing_form
    inv = g.invariant_form
    t = g.gen_vector("t", 0)
    assert (t @ k @ t) == 0  # honest Killing vanishes on the center
    assert (t @ inv @ t) == 1


def test_torus_ad_scales_root_spaces():
    g = parse_group("A1")
    m = g.torus_ad([Fraction(3)])
    e = g.gen_vector("e", (1,))
    f = g.gen_vector("f", (1,))
    assert is_zero(m @ e - 9 * e)  # fc(alpha) = 2
    assert is_zero(m @ f - Fraction(1, 9) * f)
    with pytest.raises(DegenerateInputError):
        g.torus_ad([Fraction(0)])


def test_exp_ad_nilpotent_sl2():
    g = parse_group("A1")
    e = g.gen_vector("e", (1,))
    f = g.gen_vector("f", (1,))
    h = g.gen_vector("h", 0)
    m = g.exp_ad(e, eye(g.dim))
    # exp(ad e) f = f + h - e
    assert is_zero(m @ f - (f + h - e))
    assert is_zero(g.exp_ad(e, f) - (f + h - e))
    with pytest.raises(NonNilpotentDirectionError):
        g.exp_ad(h, eye(g.dim))


def test_adjoint_words_preserve_invariant_form():
    # exp(ad x) for nilpotent x and torus scalings are isometries of the
    # invariant form, so any sampled big-cell word must be one too
    for name in ["A2", "B2", "A1+T1"]:
        g = parse_group(name)
        k = g.invariant_form
        m = eye(g.dim)
        for c in g.posroots:
            m = m @ g.exp_ad(fr(2) * g.gen_vector("e", c), eye(g.dim))
        if g.rank:
            m = m @ g.torus_ad([Fraction(3, 2)] * g.rank)
        for c in g.posroots:
            m = m @ g.exp_ad(fr(-1) * g.gen_vector("f", c), eye(g.dim))
        assert is_zero(m.T @ k @ m - k)


# ---- subalgebras ----------------------------------------------------------


def test_standard_subalgebra_dims():
    g = parse_group("A2")
    assert standard_subalgebra(g, "full").dim == 8
    assert standard_subalgebra(g, "zero").dim == 0
    assert standard_subalgebra(g, "cartan").dim == 2
    assert standard_subalgebra(g, "borel").dim == 5
    assert standard_subalgebra(g, "nilradical").dim == 3


def test_borel_spans_lowering_side():
    g = parse_group("A2")
    b = standard_subalgebra(g, "borel")
    n = standard_subalgebra(g, "nilradical")
    for c in g.posroots:
        assert b.contains(g.gen_vector("f", c))
        assert n.contains(g.gen_vector("f", c))
        assert not b.contains(g.gen_vector("e", c))


def test_subalgebra_coords():
    g = parse_group("A1")
    h = standard_subalgebra(g, "borel")
    v = fr(3) * g.gen_vector("h", 0) - fr(2) * g.gen_vector("f", (1,))
    c = h.coords(v)
    assert c is not None
    rebuilt = zeros(g.dim)
    for ci, bi in zip(c, h.basis):
        rebuilt = rebuilt + ci * bi
    assert is_zero(rebuilt - v)
    assert h.coords(g.gen_vector("e", (1,))) is None


def test_unknown_subalgebra_name():
    with pytest.raises(UnknownNameError):
        standard_subalgebra(parse_group("A1"), "parabolic")


def test_diagonal_subalgebra():
    g = parse_group("A1xA1")
    d = standard_subalgebra(g, "diagonal")
    assert d.dim == 3
    assert d.is_closed()
    with pytest.raises(DegenerateInputError):
        standard_subalgebra(parse_group("A1xA2"), "diagonal")


def test_principal_sl2_a2():
    g = parse_group("A2")
    s = standard_subalgebra(g, "principal")
    assert s.dim == 3
    assert s.is_closed()
    # h = 2h1 + 2h2; e = e1 + e2; [h, e] = 2e and [e, f] = h
    e = g.gen_vector("e", (1, 0)) + g.gen_vector("e", (0, 1))
    h = 2 * g.gen_vector("h", 0) + 2 * g.gen_vector("h", 1)
    f = 2 * g.gen_vector("f", (1, 0)) + 2 * g.gen_vector("f", (0, 1))
    assert s.contains(e) and s.contains(h) and s.contains(f)
    assert is_zero(g.bracket(h, e) - 2 * e)
    assert is_zero(g.bracket(e, f) - h)


def test_closure_detection():
    g = parse_group("A1")
    e = g.gen_vector("e", (1,))
    f = g.gen_vector("f", (1,))
    assert not Subalgebra(g, [e, f]).is_closed()
    assert Subalgebra(g, [g.gen_vector("h", 0) + e]).is_closed()
    with pytest.raises(NotSubalgebraError):
        Subalgebra(g, [e, f]).require_closed()
    Subalgebra(g, [e, f, g.gen_vector("h", 0)]).require_closed()


def test_cartan_subalgebra_with_torus():
    g = parse_group("A1+T1")
    c = standard_subalgebra(g, "cartan")
    assert c.dim == 2
    assert c.is_closed()
