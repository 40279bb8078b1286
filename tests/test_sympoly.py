import ast
import functools
import subprocess
import sys
from itertools import combinations_with_replacement, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylkit import repthy, sympoly
from weylkit.errors import DegenerateInputError, DimensionCapError, NonDominantError, NonReductiveError, ParseError
from weylkit.repthy import weight_multiplicities, weyl_dim
from weylkit.rootsys import _STANDARD_NAMES, Subalgebra, parse_group, standard_subalgebra
from weylkit.sympoly import (
    MAX_MF_DEGREE,
    homog_coordinate_mf_crosscheck,
    invariant_multiplicity,
    is_mf_coordinate_ring,
    check_reductive,
    sym_power_characters,
    sym_power_decompose,
    summands_dim,
)
from weyl_references import (
    dense_invariant_multiplicity,
    labels_up_to_dim,
    newton_sym_power_characters,
    strip_decompose,
)


def brute_force_sym_power(group, summands, d):
    """Oracle: enumerate all degree-d monomials in a weight basis, collect
    their torus weights, and strip dominant leading terms."""
    weights = []
    for lab, mult in summands:
        for w, m in weight_multiplicities(group, lab).items():
            weights.extend([w] * (m * mult))
    char = {}
    for combo in combinations_with_replacement(range(len(weights)), d):
        tot = tuple(sum(weights[i][k] for i in combo) for k in range(group.weight_len))
        char[tot] = char.get(tot, 0) + 1
    return strip_decompose(group, char)


# ---- symmetric powers --------------------------------------------------------


def test_degree_zero_is_constants():
    g = parse_group("A1")
    assert sym_power_decompose(g, [((1,), 1)], 0) == {(0,): 1}


def test_sl2_symmetric_powers_are_irreducible():
    g = parse_group("A1")
    for d in range(9):
        assert sym_power_decompose(g, [((1,), 1)], d) == {(d,): 1}


def test_doubled_defining_square():
    g = parse_group("A1")
    out = sym_power_decompose(g, [((1,), 2)], 2)
    assert out == {(2,): 3, (0,): 1}


ORACLE_INSTANCES = [
    ("A1", [((1,), 1)], 5),
    ("A1", [((1,), 2)], 2),
    ("A1", [((2,), 1)], 3),
    ("A1", [((1,), 1), ((2,), 1)], 2),
    ("A2", [((1, 0), 1)], 3),
    ("A2", [((1, 0), 1), ((0, 1), 1)], 2),
    ("A2", [((1, 1), 1)], 2),
    ("B2", [((1, 0), 1)], 2),
    ("B2", [((0, 1), 1)], 2),
    ("G2", [((1, 0), 1)], 2),
    ("A1xA1", [((1, 1), 1)], 2),
    ("A1+T1", [((1, 1), 1), ((1, -1), 1)], 2),
    ("T1", [((1,), 1), ((3,), 1)], 4),
]


@pytest.mark.parametrize("name,summands,d", ORACLE_INSTANCES)
def test_sym_power_matches_brute_force(name, summands, d):
    g = parse_group(name)
    assert sym_power_decompose(g, summands, d) == brute_force_sym_power(g, summands, d)


@pytest.mark.parametrize("name,summands,d", ORACLE_INSTANCES)
def test_sym_power_conserves_dimension(name, summands, d):
    # the implementation asserts this internally; recompute independently
    g = parse_group(name)
    out = sym_power_decompose(g, summands, d)
    n = summands_dim(g, list(summands))
    assert sum(m * weyl_dim(g, lab) for lab, m in out.items()) == comb(n + d - 1, d)


@functools.cache
def _summand_labels(name):
    """Dominant labels of dimension at most 8, entries boxed."""
    g = parse_group(name)
    box = product(*([range(4)] * g.rank + [range(-2, 3)] * g.torus_dim))
    return [lab for lab in box if weyl_dim(g, lab) <= 8]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sym_power_characters_equal_the_newton_recursion(data):
    name = data.draw(st.sampled_from(["A1", "A2", "B2", "G2", "A1xA1", "A2+T1", "T1", "A1+T1"]))
    g = parse_group(name)
    labels = data.draw(st.lists(st.sampled_from(_summand_labels(name)), min_size=1, max_size=3))
    summands = [(lab, data.draw(st.integers(1, 2))) for lab in labels]
    d = data.draw(st.integers(0, 5 if summands_dim(g, summands) <= 12 else 3))
    assert sym_power_characters(g, summands, d) == newton_sym_power_characters(g, summands, d)


def test_a_huge_summand_count_is_never_expanded():
    # k copies of the A1 defining module: S^n has the weight a - b (a + b = n)
    # with multiplicity binomial(k + a - 1, a) binomial(k + b - 1, b).  The
    # child's address space is capped, so a count expanded into k copies
    # fails there instead of exhausting the machine's memory.
    src = str(Path(sympoly.__file__).resolve().parents[1])
    code = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        f"import sys; sys.path[:0] = [{src!r}]\n"
        "from weylkit.rootsys import parse_group\n"
        "from weylkit.sympoly import sym_power_characters\n"
        "print(sym_power_characters(parse_group('A1'), [((1,), 10**12)], 3))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    k = 10**12
    want = [
        {(2 * a - n,): comb(k + a - 1, a) * comb(k + n - a - 1, n - a) for a in range(n + 1)}
        for n in range(4)
    ]
    assert ast.literal_eval(out) == want


def test_sym_power_rejects_negative_degree_and_bad_mult():
    g = parse_group("A1")
    with pytest.raises(DegenerateInputError):
        sym_power_decompose(g, [((1,), 1)], -1)
    with pytest.raises(DegenerateInputError):
        sym_power_decompose(g, [((1,), 0)], 2)


# ---- multiplicity-freeness of C[V] -------------------------------------------


def test_sl2_defining_coordinate_ring_is_mf():
    g = parse_group("A1")
    for bound in (1, 5, 12):
        v = is_mf_coordinate_ring(g, [((1,), 1)], bound)
        assert v.verdict == "multiplicity_free_up_to_D"
        assert v.witness is None
    # 20 lies above MAX_MF_DEGREE, which the library refuses
    with pytest.raises(DegenerateInputError):
        is_mf_coordinate_ring(g, [((1,), 1)], 20)


def test_doubled_defining_fails_with_frozen_witness():
    g = parse_group("A1")
    v = is_mf_coordinate_ring(g, [((1,), 2)], 2)
    assert v.verdict == "fails"
    assert v.witness == {"degree": 2, "label": (2,), "multiplicity": 3}
    # the witness multiplicity is recomputable from the table
    total = sum(dec.get((2,), 0) for dec in v.table.values())
    assert total == v.witness["multiplicity"]


def test_torus_weight_one_is_mf():
    g = parse_group("T1")
    v = is_mf_coordinate_ring(g, [((1,), 1)], 10)
    assert v.verdict == "multiplicity_free_up_to_D"


def test_cross_degree_repeat_counts():
    # C[V] for V = V_2 (the adjoint of sl2): S^d contains the trivial label
    # at d = 0 and d = 2, so the ring is not multiplicity-free even though
    # every single degree is.
    g = parse_group("A1")
    v = is_mf_coordinate_ring(g, [((2,), 1)], 2)
    assert v.verdict == "fails"
    assert v.witness["label"] == (0,)
    assert v.witness["multiplicity"] == 2


def test_a2_defining_is_mf():
    g = parse_group("A2")
    v = is_mf_coordinate_ring(g, [((1, 0), 1)], 6)
    assert v.verdict == "multiplicity_free_up_to_D"


def test_degree_bound_must_be_positive():
    g = parse_group("A1")
    with pytest.raises(DegenerateInputError):
        is_mf_coordinate_ring(g, [((1,), 1)], 0)


@pytest.mark.parametrize("bound", [0, MAX_MF_DEGREE + 1])
def test_out_of_range_degree_refused_before_characters(monkeypatch, bound):
    def refuse(*args, **kwargs):
        raise AssertionError("symmetric powers started for an out-of-range degree")

    monkeypatch.setattr(sympoly, "sym_power_characters", refuse)
    g = parse_group("A1")
    with pytest.raises(DegenerateInputError):
        is_mf_coordinate_ring(g, [((1,), 1)], bound)
    with pytest.raises(DegenerateInputError):
        homog_coordinate_mf_crosscheck(g, standard_subalgebra(g, "cartan"), bound)


# ---- reductivity gate ---------------------------------------------------------


def test_reductive_examples():
    g = parse_group("A2")
    check_reductive(g, standard_subalgebra(g, "cartan"))
    check_reductive(g, standard_subalgebra(g, "full"))
    check_reductive(g, standard_subalgebra(g, "principal"))
    check_reductive(g, standard_subalgebra(g, "zero"))


def test_nilradical_is_not_reductive():
    g = parse_group("A2")
    with pytest.raises(NonReductiveError):
        check_reductive(g, standard_subalgebra(g, "nilradical"))
    with pytest.raises(NonReductiveError):
        check_reductive(g, standard_subalgebra(g, "borel"))


# ---- invariant multiplicities and the crosscheck ------------------------------


def test_invariant_multiplicity_sl2_cartan():
    g = parse_group("A1")
    h = standard_subalgebra(g, "cartan")
    assert invariant_multiplicity(g, h, (0,)) == 1
    assert invariant_multiplicity(g, h, (1,)) == 0
    assert invariant_multiplicity(g, h, (2,)) == 1
    assert invariant_multiplicity(g, h, (4,)) == 1


def test_invariant_multiplicity_full_algebra():
    g = parse_group("A1")
    h = standard_subalgebra(g, "full")
    assert invariant_multiplicity(g, h, (0,)) == 1
    assert invariant_multiplicity(g, h, (2,)) == 0


def test_invariant_multiplicity_diagonal():
    g = parse_group("A1xA1")
    h = standard_subalgebra(g, "diagonal")
    for n in range(3):
        assert invariant_multiplicity(g, h, (n, n)) == 1
    assert invariant_multiplicity(g, h, (1, 0)) == 0
    assert invariant_multiplicity(g, h, (2, 1)) == 0


@pytest.mark.parametrize(
    "name,label,error",
    [("A1", (-1,), NonDominantError), ("A1", (1.5,), ParseError), ("A2", (1, -1), NonDominantError)],
)
def test_invariant_multiplicity_checks_the_label_before_dualizing(name, label, error):
    # dual_label would turn each of these into the label of another module
    # (int() truncates 1.5), whose count would then be returned
    g = parse_group(name)
    with pytest.raises(error):
        invariant_multiplicity(g, standard_subalgebra(g, "cartan"), label)


def _test_subalgebras(g):
    """Every standard subalgebra that g has, and closed spans that are no
    standard one: on A1 the line {h_0 + e}, on A1xA1 {h_0, e_(1,0)},
    {h_0 + e_(0,1)} and the abelian {h_1, h_0 + e_(1,0)}.  Their rows that
    mix a Cartan part with a root vector are no Cartan rows."""
    subs = []
    for name in _STANDARD_NAMES:
        try:
            subs.append(standard_subalgebra(g, name))
        except DegenerateInputError:
            pass
    if g.name == "A1":
        subs.append(Subalgebra(g, [g.gen_vector("h", 0) + g.gen_vector("e", (1,))]))
    if g.name == "A1xA1":
        h0, h1 = g.gen_vector("h", 0), g.gen_vector("h", 1)
        e10, e01 = g.gen_vector("e", (1, 0)), g.gen_vector("e", (0, 1))
        subs += [Subalgebra(g, [h0, e10]), Subalgebra(g, [h0 + e01]), Subalgebra(g, [h1, h0 + e10])]
    return subs


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(("A1", "A2", "B2", "G2", "A1xA1", "A2+T1")).flatmap(
        lambda name: st.tuples(st.just(name), st.sampled_from(labels_up_to_dim(name, 40)))
    )
)
@example(("G2", (0, 1)))
@example(("A1xA1", (2, 2)))
@example(("A1", (2,)))
@example(("A1xA1", (2, 0)))
def test_invariant_multiplicity_equals_the_dense_kernel(case):
    name, label = case
    g = parse_group(name)
    for h in _test_subalgebras(g):
        h.require_closed()
        assert invariant_multiplicity(g, h, label) == dense_invariant_multiplicity(g, h, label)


def test_cartan_rows_are_the_rows_inside_the_cartan_span():
    g = parse_group("A1xA1")
    mixed = Subalgebra(g, [g.gen_vector("h", 1), g.gen_vector("h", 0) + g.gen_vector("e", (1, 0))])
    assert mixed.cartan_rows == [0]
    assert mixed.charge((3, 2)) == (2,)
    assert standard_subalgebra(g, "diagonal").charge((3, 2)) == (5,)
    assert standard_subalgebra(g, "nilradical").cartan_rows == []


def test_cartan_part_combines_rows_outside_the_cartan_span():
    # sl2 with first row h + e: no row lies in the Cartan span, and the
    # combination e - (h + e) = -h is its Cartan part
    g = parse_group("A1")
    h, e, f = (g.gen_vector(*lab) for lab in g.basis_labels)
    span = Subalgebra(g, [h + e, e, f])
    assert span.cartan_rows == []
    assert span.cartan_part == [{0: -1, 1: 1}]
    assert span.charge((3,)) == (-3,)
    assert invariant_multiplicity(g, span, (2,)) == invariant_multiplicity(g, standard_subalgebra(g, "full"), (2,)) == 0


def test_a_cartan_only_h_counts_without_a_module(monkeypatch):
    def refuse(*args):
        raise AssertionError("a module was built")

    monkeypatch.setattr(sympoly, "build_module", refuse)
    g = parse_group("A2")
    assert invariant_multiplicity(g, standard_subalgebra(g, "cartan"), (2, 2)) == 3
    assert invariant_multiplicity(g, standard_subalgebra(g, "zero"), (1, 1)) == 8
    # the no-build path refuses the dual label (12, 0), of dimension 91, as
    # build_module does
    with pytest.raises(DimensionCapError) as refused:
        invariant_multiplicity(g, standard_subalgebra(g, "cartan"), (0, 12))
    with pytest.raises(DimensionCapError) as built:
        repthy.build_module(g, (12, 0))
    assert str(refused.value) == str(built.value) == "module (12, 0) has dimension 91 > 64"


def test_crosscheck_sl2_cartan_mf():
    g = parse_group("A1")
    h = standard_subalgebra(g, "cartan")
    v = homog_coordinate_mf_crosscheck(g, h, 6)
    assert v.verdict == "multiplicity_free_up_to_D"
    # even labels carry exactly one invariant each
    assert v.table[2] == {(2,): 1}
    assert v.table[1] == {}


def test_crosscheck_sl2_full():
    g = parse_group("A1")
    h = standard_subalgebra(g, "full")
    v = homog_coordinate_mf_crosscheck(g, h, 4)
    assert v.verdict == "multiplicity_free_up_to_D"
    assert v.table[0] == {(0,): 1}
    assert all(row == {} for d, row in v.table.items() if d > 0)


def test_crosscheck_diagonal_pair():
    g = parse_group("A1xA1")
    h = standard_subalgebra(g, "diagonal")
    v = homog_coordinate_mf_crosscheck(g, h, 3, ambient=[((1, 1), 1)])
    assert v.verdict == "multiplicity_free_up_to_D"
    assert v.table[1] == {(1, 1): 1}


def test_crosscheck_a2_cartan_detects_failure():
    # the pair is not spherical; the adjoint label carries two invariants
    g = parse_group("A2")
    h = standard_subalgebra(g, "cartan")
    v = homog_coordinate_mf_crosscheck(
        g, h, 2, ambient=[((1, 0), 1), ((0, 1), 1)]
    )
    assert v.verdict == "fails"
    assert v.witness["label"] == (1, 1)
    assert v.witness["multiplicity"] == 2


def test_crosscheck_b2_cartan_detects_failure():
    g = parse_group("B2")
    h = standard_subalgebra(g, "cartan")
    v = homog_coordinate_mf_crosscheck(g, h, 2, ambient=[((1, 0), 1)])
    assert v.verdict == "fails"
    assert v.witness["multiplicity"] == 2


def test_crosscheck_rejects_non_reductive():
    g = parse_group("A1")
    with pytest.raises(NonReductiveError):
        homog_coordinate_mf_crosscheck(g, standard_subalgebra(g, "nilradical"), 2)
