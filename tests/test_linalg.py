from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit.linalg import (
    SpanBasis,
    commutator,
    densify,
    entries,
    fr,
    fr_input,
    eye,
    image,
    nullspace,
    product,
    rref,
    sparse,
    table_sum,
    zeros,
)
from weyl_references import combine, fmat, fvec, is_zero, matmul, nonzero_columns


def test_fr_rejects_floats():
    with pytest.raises(TypeError):
        fr(0.5)


class _Refused(Exception):
    pass


@pytest.mark.parametrize(
    "x, value",
    [("-3/4", Fraction(-3, 4)), ("2.5", Fraction(5, 2)), (" 1e3 ", 1000), (7, 7), (-(10**400) + 1, -(10**400) + 1)],
    ids=["fraction", "decimal", "exponent", "int", "int-of-400-digits"],
)
def test_fr_input_reads_exact_literals(x, value):
    assert fr_input(x, _Refused) == value


# JSON's true and 0.5 are no exact numbers, though Python reads true as 1;
# an int of over 400 digits is refused as its decimal text would be
@pytest.mark.parametrize(
    "x",
    [True, False, 0.5, None, [1], "x", "1/0", "", "7" * 401, "1e1000", 10**400, -(10**400)],
    ids=["true", "false", "float", "null", "list", "x", "1/0", "empty", "401-chars", "exponent-1000", "401-digits", "minus-401-digits"],
)
def test_fr_input_refuses_what_is_not_a_small_exact_literal(x):
    with pytest.raises(_Refused):
        fr_input(x, _Refused)


def test_rref_identity():
    r, piv = rref(eye(3))
    assert piv == [0, 1, 2]
    assert all(r[i, j] == (1 if i == j else 0) for i in range(3) for j in range(3))


def test_rref_known():
    # [[1,2],[2,4]] has rank 1 with pivot in column 0
    a = fmat([[1, 2], [2, 4]])
    r, piv = rref(a)
    assert piv == [0]
    assert r[0, 0] == 1 and r[0, 1] == 2
    assert r[1, 0] == 0 and r[1, 1] == 0


def test_rank_exact_fractions():
    # would be numerically borderline in floats; exact here
    a = fmat([[Fraction(1, 3), Fraction(1, 6)], [Fraction(2, 3), Fraction(1, 3)]])
    assert len(rref(a)[1]) == 1
    span = SpanBasis()
    assert [span.add(sparse(row)) for row in a] == [True, False]


def test_nullspace_solves():
    a = fmat([[1, 2, 3], [4, 5, 6]])
    basis = nullspace([sparse(c) for c in a.T])
    assert len(basis) == 1
    v = basis[0]
    assert is_zero(a @ densify(v, (3,)))


def test_span_basis_tracks_combos():
    sb = SpanBasis()
    v1 = fvec([1, 1, 0])
    v2 = fvec([0, 1, 1])
    v3 = fvec([1, 2, 1])  # v1 + v2
    assert sb.add(sparse(v1))
    assert sb.add(sparse(v2))
    assert not sb.add(sparse(v3))
    assert len(sb) == 2
    coords = sb.express(sparse(fvec([2, 3, 1])))  # 2*v1 + v2
    assert coords == [(0, 2), (1, 1)]
    got = zeros(3)
    for k, c in coords:
        got = got + c * [v1, v2][k]
    assert all(got[i] == fvec([2, 3, 1])[i] for i in range(3))
    assert sb.express(sparse(fvec([1, 0, 0]))) is None


def test_span_basis_contains():
    sb = SpanBasis()
    sb.add(sparse(fvec([1, 2])))
    assert sb.contains(sparse(fvec([2, 4])))
    assert not sb.contains(sparse(fvec([1, 0])))


def test_rref_of_integer_entries_is_exact():
    r, piv = rref(np.array([[2, 1], [4, 3]], dtype=object))
    assert piv == [0, 1]
    assert all(type(x) is Fraction for x in r.flat)
    r, piv = rref(np.array([[2, 1]], dtype=object))
    assert r[0, 1] == Fraction(1, 2) and type(r[0, 0]) is Fraction


def test_nullspace_of_integer_entries_is_exact():
    u, v = nullspace([{0: 2}, {0: 1}, {0: 1}])
    assert list(u.items()) == [(0, Fraction(-1, 2)), (1, 1)] and list(v.items()) == [(0, Fraction(-1, 2)), (2, 1)]
    assert all(type(x) is Fraction for x in [*u.values(), *v.values()])


def test_sparse_reads_a_dict_by_its_positions():
    assert sparse({3: 2, 0: 0, 5: Fraction(1, 2)}) == {3: 2, 5: Fraction(1, 2)}
    assert all(type(x) is Fraction for x in sparse({3: 2}).values())
    assert sparse(fvec([0, 2])) == {1: 2}


def test_kernel_refuses_floats():
    with pytest.raises(TypeError):
        rref(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(TypeError):
        rref(np.array([[Fraction(1), 0.5]], dtype=object))


# ---- the column-table kernel, against dense object arrays ----------------------

# mostly zeros, as in the library's tables
ENTRY = st.one_of(st.just(0), st.just(0), st.fractions(min_value=-3, max_value=3, max_denominator=4))


def matrices(n):
    return st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=n, max_size=n).map(fmat)


def pairs_of_matrices():
    return st.integers(1, 5).flatmap(lambda n: st.tuples(matrices(n), matrices(n)))


@settings(max_examples=60, deadline=None)
@given(pairs_of_matrices())
def test_product_equals_dense_product(ab):
    a, b = ab
    assert product(nonzero_columns(a), nonzero_columns(b)) == nonzero_columns(matmul(a, b))


@settings(max_examples=60, deadline=None)
@given(pairs_of_matrices(), st.integers(1, 4) | st.integers(-4, -1))
def test_commutator_equals_dense_commutator(ab, n):
    a, b = ab
    got = commutator(nonzero_columns(a), nonzero_columns(b), n)
    assert got == nonzero_columns((matmul(a, b) - matmul(b, a)) / fr(n))
    assert all(type(x) is Fraction for col in got for _, x in col)


@settings(max_examples=60, deadline=None)
@given(pairs_of_matrices(), ENTRY, ENTRY)
def test_table_sum_equals_dense_combination(ab, c, d):
    a, b = ab
    n = len(a)
    got = table_sum([(c, nonzero_columns(a)), (d, nonzero_columns(b))], n)
    assert got == nonzero_columns(combine([c, d], [a, b], (n, n)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(matrices(n), st.lists(ENTRY, min_size=n, max_size=n))))
def test_image_equals_dense_matrix_vector_product(av):
    a, v = av
    assert image(nonzero_columns(a), sparse(v)) == sparse(matmul(a, fvec(v)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(matrices))
def test_entries_are_the_nonzero_dense_entries(a):
    got = entries(nonzero_columns(a))
    assert got == {(i, k): x for (i, k), x in np.ndenumerate(a) if x}
    assert is_zero(densify(got, a.shape) - a)
