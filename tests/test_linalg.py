from fractions import Fraction

import numpy as np
import pytest

from weylkit.linalg import (
    SpanBasis,
    densify,
    fr,
    fvec,
    eye,
    nullspace,
    rref,
    sparse,
    zeros,
)
from weyl_references import fmat, is_zero


def test_fr_rejects_floats():
    with pytest.raises(TypeError):
        fr(0.5)


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
