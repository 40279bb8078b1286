"""Property tests for the exact kernel's two helpers and their callers.

``combine`` and ``eliminate`` carry every linear combination and every
echelon reduction in the package, so their identities are checked here on
random small rational data rather than on hand-picked cases only.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit.errors import DegenerateInputError
from weylkit.involution import (
    InvolutionSpec,
    _chevalley_matrix,
    _nu_kernel,
    build_cartan_conjugation,
    fiber_restriction,
)
from weylkit.linalg import (
    SpanBasis,
    column_stack,
    combine,
    eliminate,
    eye,
    fvec,
    is_zero,
    nullspace,
    zeros,
)
from weylkit.repthy import _tensor_apply
from weylkit.rootsys import Subalgebra, parse_group, standard_subalgebra

SETTINGS = settings(max_examples=40, deadline=None)

rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def vectors(dim: int):
    return st.lists(rationals, min_size=dim, max_size=dim).map(fvec)


def vector_families(max_dim: int = 5, max_count: int = 6):
    """(dim, list of vectors of that length)."""
    return st.integers(1, max_dim).flatmap(
        lambda d: st.tuples(st.just(d), st.lists(vectors(d), min_size=1, max_size=max_count))
    )


def _dense_sum(coeffs, terms, shape):
    out = np.full(shape, Fraction(0), dtype=object)
    for c, t in zip(coeffs, terms):
        for idx in np.ndindex(*shape):
            out[idx] += c * t[idx]
    return out


@SETTINGS
@given(
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 4)).flatmap(
        lambda s: st.tuples(
            st.just(s[:2]),
            st.lists(rationals, min_size=s[2], max_size=s[2]),
            st.lists(
                st.lists(rationals, min_size=s[0] * s[1], max_size=s[0] * s[1]),
                min_size=s[2],
                max_size=s[2],
            ),
        )
    )
)
def test_combine_equals_dense_sum(data):
    shape, coeffs, flat_terms = data
    terms = [fvec(t).reshape(shape) for t in flat_terms]
    got = combine(coeffs, terms, shape)
    assert got.shape == shape
    assert all(isinstance(x, Fraction) for x in got.flat)
    assert is_zero(got - _dense_sum(coeffs, terms, shape))


@SETTINGS
@given(vector_families(), st.data())
def test_span_basis_express_round_trips_over_retained(family, data):
    dim, vecs = family
    sb = SpanBasis(dim)
    retained = [v for v in vecs if sb.add(v)]
    assert len(sb) == len(retained)
    # every combination of the inputs lies in the span ...
    coeffs = data.draw(st.lists(rationals, min_size=len(vecs), max_size=len(vecs)))
    target = combine(coeffs, vecs, (dim,))
    coords = sb.express(target)
    assert coords is not None and len(coords) == len(retained)
    assert is_zero(combine(coords, retained, (dim,)) - target)
    # ... and a retained vector is its own unit coordinate vector
    for k, v in enumerate(retained):
        assert [x for x in sb.express(v)] == [1 if j == k else 0 for j in range(len(retained))]
    # express refuses exactly the vectors outside the span
    probe = data.draw(vectors(dim))
    assert (sb.express(probe) is None) == (not sb.contains(probe))


@SETTINGS
@given(vector_families(), st.data())
def test_eliminate_leaves_zeros_at_every_pivot(family, data):
    dim, vecs = family
    sb = SpanBasis(dim)
    as_added = []  # rows before back-substitution, as Subalgebra.basis keeps them
    for u in vecs:
        if sb.add(u):
            as_added.append(sb.rows[-1])
    v = data.draw(vectors(dim))
    for rows in (sb.rows, as_added):
        rem, mult = eliminate(v, rows, sb.pivots)
        assert all(rem[p] == 0 for p in sb.pivots)
        assert is_zero(rem + combine(mult, rows, (dim,)) - v)
    assert sb.contains(v) == is_zero(eliminate(v, sb.rows, sb.pivots)[0])


def _sparse_vectors(dim: int):
    """Vectors with at most three nonzero coordinates, as module vectors are."""
    return st.lists(st.tuples(st.integers(0, dim - 1), rationals), max_size=3).map(
        lambda entries: fvec(dict(entries).get(k, 0) for k in range(dim))
    )


@SETTINGS
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda n: st.tuples(
            st.lists(rationals, min_size=n[0] ** 2, max_size=n[0] ** 2),
            st.lists(rationals, min_size=n[1] ** 2, max_size=n[1] ** 2),
            _sparse_vectors(n[0] * n[1]),
            st.just(n),
        )
    )
)
def test_tensor_apply_equals_kronecker_sum(data):
    flat1, flat2, v, (n1, n2) = data
    x1 = fvec(flat1).reshape(n1, n1)
    x2 = fvec(flat2).reshape(n2, n2)
    got = _tensor_apply(x1, x2, v)
    # the dense Kronecker form, kept here only as the reference
    want = (np.kron(x1, eye(n2)) + np.kron(eye(n1), x2)) @ v
    assert got.shape == (n1 * n2,)
    assert all(isinstance(x, Fraction) for x in got)
    assert is_zero(got - want)


GROUPS = ("A1", "A2", "B2", "A1xA1", "A1+T1")


@SETTINGS
@given(st.sampled_from(GROUPS), st.data())
def test_subalgebra_coords_round_trip_over_basis(name, data):
    g = parse_group(name)
    n_vecs = data.draw(st.integers(0, 4))
    vecs = [data.draw(vectors(g.dim)) for _ in range(n_vecs)]
    h = Subalgebra(g, vecs)
    # reference: each kept row as a back-substituting SpanBasis first holds it
    sb = SpanBasis(g.dim)
    as_added = [sb.rows[-1] for v in vecs if sb.add(v)]
    assert h.pivots == sb.pivots
    assert [list(b) for b in h.basis] == [list(r) for r in as_added]
    coeffs = data.draw(st.lists(rationals, min_size=h.dim, max_size=h.dim))
    target = combine(coeffs, h.basis, (g.dim,))
    c = h.coords(target)
    assert c is not None
    assert list(c) == coeffs
    probe = data.draw(vectors(g.dim))
    c = h.coords(probe)
    assert (c is None) == (not h.contains(probe))
    if c is not None:
        assert is_zero(combine(c, h.basis, (g.dim,)) - probe)
    rem = h.reduce(probe)
    assert h.contains(probe - rem)
    assert all(rem[p] == 0 for p in h.pivots)


def _nu_kernel_loop(module, theta):
    """The equivariance system written out entry by entry, as _nu_kernel
    built it before the Kronecker form; kept as an independent reference."""
    g = module.group
    h = module.h
    sigma_matrix = build_cartan_conjugation(g).matrix @ theta.matrix
    n = module.dim
    rows = []
    for x in h.basis:
        rho = module.action_of(x)
        y = sigma_matrix @ x
        c = h.coords(y)
        if c is None:
            raise DegenerateInputError("sigma does not stabilize the subalgebra")
        rho_s = module.action_coords(c)
        for a in range(n):
            for b in range(n):
                row = zeros(n * n)
                for cidx in range(n):
                    row[a * n + cidx] = row[a * n + cidx] + rho[cidx, b]
                    row[cidx * n + b] = row[cidx * n + b] - rho_s[a, cidx]
                rows.append(row)
    if not rows:
        units = []
        for a in range(n):
            for b in range(n):
                m = zeros(n, n)
                m[a, b] = Fraction(1)
                units.append(m)
        return units
    sols = nullspace(column_stack(rows).T)
    return [v.reshape(n, n).copy() for v in sols]


FIBER_CASES = (
    ("A1", "full", (1,)),
    ("A1", "cartan", (2,)),
    ("A1", "zero", (1,)),
    ("A1", "borel", (1,)),
    ("A2", "cartan", (1, 0)),
    ("A2", "principal", (1, 0)),
    ("A1xA1", "diagonal", (1, 1)),
    ("A1+T1", "cartan", (1, 2)),
)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(FIBER_CASES),
    st.lists(st.sampled_from([-2, -1, 1, 2, 3]), min_size=2, max_size=2),
)
def test_nu_kernel_kronecker_system_matches_entrywise_loop(case, torus):
    name, sub, label = case
    g = parse_group(name)
    h = standard_subalgebra(g, sub)
    module = fiber_restriction(g, h, label)
    # theta twisted by a torus element: rho(sigma x) differs from rho(x),
    # so both Kronecker terms are exercised
    twist = g.torus_ad([Fraction(s) for s in torus[: g.rank]])
    theta = InvolutionSpec("weyl_theta", g, twist @ _chevalley_matrix(g), False)
    try:
        expected = _nu_kernel_loop(module, theta)
    except DegenerateInputError:
        with pytest.raises(DegenerateInputError):
            _nu_kernel(module, theta)
        return
    got = _nu_kernel(module, theta)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.shape == b.shape and is_zero(a - b)
