"""Quadrature exactness, Fourier extraction, and the projector algebra."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit.errors import BandLimitError, DegenerateInputError
from weylkit.harmonic import (
    FunctionSample,
    QuadratureScheme,
    finite_series_check,
    project_su2,
    project_torus,
    su2_quadrature,
    su2_sample,
    sym_rep_matrix,
    sym_rep_stack,
    torus_sample,
    verify_projector_algebra,
)


@pytest.fixture(scope="module")
def q12():
    return su2_quadrature(12)


class TestQuadrature:
    def test_weights_positive_and_normalized(self, q12):
        assert np.all(q12.weights > 0)
        assert abs(q12.weights.sum() - 1.0) <= 1e-14

    def test_nodes_lie_in_the_group(self, q12):
        ks = q12.matrices()
        dets = ks[:, 0, 0] * ks[:, 1, 1] - ks[:, 0, 1] * ks[:, 1, 0]
        assert np.max(np.abs(dets - 1.0)) <= 1e-12
        gram = np.einsum("kij,kil->kjl", ks.conj(), ks)
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-12

    def test_character_integrals_detect_trivial(self, q12):
        for d in range(q12.band + 1):
            val = float(np.dot(q12.weights, q12.character(d)))
            assert abs(val - (1.0 if d == 0 else 0.0)) <= 1e-12

    def test_character_orthonormality(self, q12):
        # Schur orthogonality, restricted to products within the band
        for a in range(q12.band + 1):
            for b in range(q12.band + 1 - a):
                val = float(np.dot(q12.weights, q12.character(a) * q12.character(b)))
                assert abs(val - (1.0 if a == b else 0.0)) <= 1e-12

    def test_negative_band_rejected(self):
        with pytest.raises(DegenerateInputError):
            su2_quadrature(-1)

    def test_characters_continue_the_recurrence_bitwise(self):
        q = su2_quadrature(12)
        t = np.real(np.trace(q.matrices(), axis1=1, axis2=2))
        want = [np.ones_like(t)]
        prev = np.zeros_like(t)
        for _ in range(20):
            prev, cur = want[-1], t * want[-1] - prev
            want.append(cur)
        # out of order, so later calls continue from a cached degree
        for d in (5, 2, 20, 11, 0, 17, 6):
            assert np.all(q.character(d) == want[d]), d
        for d in range(21):
            assert np.all(q.character(d) == want[d]), d


ENTRIES = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


def _det(e):
    return e[0] * e[3] - e[1] * e[2]


# invertible and off SU(2), so the adjugate really is divided by det
GL2 = st.tuples(ENTRIES, ENTRIES, ENTRIES, ENTRIES).filter(
    lambda e: abs(_det(e)) > 0.1 and abs(_det(e) - 1.0) > 1e-3
)


class TestBatchedBlocks:
    """The blocks against the scalar sym_rep_matrix at every node.

    rep_blocks multiplies the Euler factors that block_operator contracts,
    and sym_rep_matrix pulls each node's matrix back by np.convolve, so the
    two agree to roundoff, not bit for bit."""

    def test_blocks_match_scalar_oracle_at_every_node(self):
        q = su2_quadrature(20)
        ks = q.matrices()
        for m in range(11):
            want = np.stack([sym_rep_matrix(k, m) for k in ks])
            got = q.rep_blocks(m)
            assert got.shape == (len(ks), m + 1, m + 1)
            assert np.max(np.abs(got - want)) <= 1e-12, m

    def test_degree_zero_is_all_ones(self, q12):
        blocks = q12.rep_blocks(0)
        assert blocks.shape == (len(q12.nodes), 1, 1)
        assert np.all(blocks == 1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(GL2, min_size=1, max_size=4), st.integers(0, 8))
    def test_stack_matches_scalar_oracle_off_su2(self, entries, d):
        gs = np.array(entries, dtype=complex).reshape(-1, 2, 2)
        want = np.stack([sym_rep_matrix(g, d) for g in gs])
        got = sym_rep_stack(gs, d)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _per_node_operators(q, m, top):
    """E_delta on degree m for delta <= top as the weighted sum of the
    per-node matrices, with the node stack from sym_rep_stack."""
    wchi = np.stack([(d + 1) * q.weights * np.conj(q.character(d)) for d in range(top + 1)])
    return np.tensordot(wchi, sym_rep_stack(q.matrices(), m), axes=1)


class TestBlockOperator:
    """The factored operators against the sum over per-node matrices."""

    @pytest.mark.parametrize("band", [0, 1, 8, 16])
    def test_matches_per_node_sum(self, band):
        q = su2_quadrature(band)
        for m in range(band + 1):
            want = _per_node_operators(q, m, band - m)
            for d in range(band - m + 1):
                assert np.max(np.abs(q.block_operator(d, m) - want[d])) <= 1e-13, (d, m)

    def test_permuted_nodes_with_distinct_v(self):
        q = su2_quadrature(8)
        rng = np.random.default_rng(4)
        perm = rng.permutation(len(q.weights))
        nodes = q.nodes[perm].copy()
        nodes[:, 1] = np.clip(nodes[:, 1] + rng.uniform(-1e-3, 1e-3, len(nodes)), -1.0, 1.0)
        p = QuadratureScheme(nodes, q.weights[perm], q.band)
        assert len(np.unique(p.nodes[:, 1])) == len(nodes)
        for m in range(9):
            want = _per_node_operators(p, m, 8 - m)
            for d in range(9 - m):
                assert np.max(np.abs(p.block_operator(d, m) - want[d])) <= 1e-13, (d, m)

    def test_coincident_nodes_add_up(self):
        # every node listed twice, its weight split 1/4 and 3/4: the grid
        # must sum the two copies into one cell
        q = su2_quadrature(8)
        twice = QuadratureScheme(
            np.concatenate([q.nodes, q.nodes]),
            np.concatenate([q.weights / 4, 3 * q.weights / 4]),
            q.band,
        )
        for m in range(9):
            for d in range(9 - m):
                diff = twice.block_operator(d, m) - q.block_operator(d, m)
                assert np.max(np.abs(diff)) <= 1e-13, (d, m)

    def test_degree_beyond_the_band_is_assembled(self, q12):
        want = _per_node_operators(q12, 3, 14)
        assert np.max(np.abs(q12.block_operator(14, 3) - want[14])) <= 1e-13

    @pytest.mark.parametrize("delta, m", [(-1, 0), (0, -1)])
    def test_negative_index_or_degree_rejected(self, q12, delta, m):
        with pytest.raises(DegenerateInputError):
            q12.block_operator(delta, m)
        with pytest.raises(DegenerateInputError):
            q12.character(-1)

    def test_no_per_node_stack_is_built(self):
        q = su2_quadrature(8)
        verify_projector_algebra(q, 4)
        project_su2(su2_sample({(3, 1): 1.0, (0, 2): 2.0}), 2, q)
        assert not [k for k in q._mats if isinstance(k, int)]


class TestTorusProjection:
    def test_single_monomial_is_fixed(self):
        f = torus_sample({(2, 1): 1.0})
        g = project_torus(f, (2, 1))
        assert set(g.coeffs) == {(2, 1)}
        assert abs(g.coeffs[(2, 1)] - 1.0) <= 1e-12

    def test_two_term_split(self):
        f = torus_sample({(1, 0): 1.0, (0, 1): 1.0})
        g = project_torus(f, (1, 0))
        assert set(g.coeffs) == {(1, 0)}
        assert abs(g.coeffs[(1, 0)] - 1.0) <= 1e-12
        assert (project_torus(f, (0, 1)).coeffs.keys()) == {(0, 1)}

    def test_outside_window_returns_flagged_zero(self):
        f = torus_sample({(1, 0): 1.0, (0, 1): 1.0})
        g = project_torus(f, (5, 5))
        assert g.coeffs == {}
        assert g.flags == ("outside_degree_window",)

    def test_rank_mismatch_rejected(self):
        f = torus_sample({(1, 0): 1.0})
        with pytest.raises(DegenerateInputError):
            project_torus(f, (1, 0, 0))
        with pytest.raises(DegenerateInputError):
            project_torus(su2_sample({(1, 0): 1.0}), (1, 0))

    def test_sum_across_domains_rejected(self):
        f = torus_sample({(1,): 1.0})
        for g in (torus_sample({(1, 0): 1.0}), su2_sample({(1, 0): 1.0})):
            with pytest.raises(DegenerateInputError):
                f + g
            with pytest.raises(DegenerateInputError):
                f - g

    def test_negative_exponents_round_trip(self):
        f = torus_sample({(-3,): 2.0, (0,): 1.0, (4,): -1.5})
        total = FunctionSample("torus", 1, {})
        for e in range(-3, 5):
            total = total + project_torus(f, (e,))
        assert (f - total).norm() <= 1e-12

    def test_random_laurent_round_trip(self):
        rng = np.random.default_rng(11)
        coeffs = {}
        while len(coeffs) < 50:
            e = tuple(int(x) for x in rng.integers(-6, 7, size=2))
            coeffs[e] = complex(rng.normal(), rng.normal())
        f = torus_sample(coeffs)
        rep = finite_series_check(f)
        assert rep.residual <= 1e-12
        assert rep.within_tolerance

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_series_components_equal_pointwise_projections(self, rank):
        # reference: project_torus at every point of the degree window
        rng = np.random.default_rng(rank)
        coeffs = {}
        for _ in range(6):
            e = tuple(int(x) for x in rng.integers(-3, 4, size=rank))
            coeffs[e] = complex(rng.normal(), rng.normal())
        f = torus_sample(coeffs)
        window = [range(min(k[i] for k in coeffs), max(k[i] for k in coeffs) + 1) for i in range(rank)]
        expected = {}
        for delta in itertools.product(*window):
            g = project_torus(f, delta)
            if g.norm() > 1e-8:
                expected[delta] = g.coeffs
        rep = finite_series_check(f)
        assert list(rep.components) == list(expected)
        assert {d: g.coeffs for d, g in rep.components.items()} == expected


class TestSu2Projection:
    def test_constant_is_its_own_projection(self, q12):
        f = su2_sample({(0, 0): 3.5})
        g = project_su2(f, 0, q12)
        assert (g - f).norm() <= 1e-12
        assert project_su2(f, 2, q12).norm() <= 1e-12

    def test_degree_two_example(self, q12):
        f = su2_sample({(2, 0): 1.0, (1, 1): 1.0})
        assert (project_su2(f, 2, q12) - f).norm() <= 1e-8
        assert project_su2(f, 0, q12).norm() <= 1e-8

    def test_homogeneous_purity(self, q12):
        # degree-m homogeneous polynomials fill exactly one component
        rng = np.random.default_rng(5)
        for m in (1, 3, 4):
            coeffs = {
                (m - j, j): complex(rng.normal(), rng.normal()) for j in range(m + 1)
            }
            f = su2_sample(coeffs)
            for d in range(6):
                res = project_su2(f, d, q12)
                if d == m:
                    assert (res - f).norm() <= 1e-8
                else:
                    assert res.norm() <= 1e-8

    def test_band_limit_enforced(self):
        q = su2_quadrature(4)
        f = su2_sample({(3, 0): 1.0})
        with pytest.raises(BandLimitError):
            project_su2(f, 3, q)

    def test_negative_index_rejected(self, q12):
        with pytest.raises(DegenerateInputError):
            project_su2(su2_sample({(1, 0): 1.0}), -1, q12)

    def test_torus_sample_rejected(self, q12):
        with pytest.raises(DegenerateInputError):
            project_su2(torus_sample({(1,): 1.0}), 1, q12)


class TestProjectorAlgebra:
    def test_constants_case_is_exact(self):
        q = su2_quadrature(0)
        report = verify_projector_algebra(q, 0)
        assert report["max_residual"] <= 1e-14
        assert report["within_tolerance"]

    def test_degree_four_all_pairs(self):
        q = su2_quadrature(8)
        report = verify_projector_algebra(q, 4)
        for key in ("idempotence", "orthogonality", "commutation", "self_adjointness"):
            assert report[key] <= 1e-8, key
        assert report["within_tolerance"]

    def test_insufficient_band_rejected(self):
        q = su2_quadrature(6)
        with pytest.raises(BandLimitError):
            verify_projector_algebra(q, 4)

    @pytest.mark.parametrize("cap", [0, 1])
    def test_smallest_caps(self, cap):
        report = verify_projector_algebra(su2_quadrature(4), cap)
        assert report["within_tolerance"]
        assert report["degree_cap"] == cap
        if cap == 0:
            assert report["orthogonality"] == 0.0

    @pytest.mark.parametrize(
        "corrupt, key",
        [
            (lambda ops: ops[(2, 2)] * 1.1, "idempotence"),
            (lambda ops: ops[(2, 2)].copy(), "orthogonality"),
            (lambda ops: ops[(2, 2)] + 1e-3 * np.eye(3, k=1), "self_adjointness"),
            (lambda ops: ops[(2, 2)] + 1e-3 * np.diag([1.0, 0.0, 0.0]), "commutation"),
        ],
        ids=["scaled", "copied", "non_hermitian", "non_equivariant"],
    )
    def test_corrupted_block_breaks_its_residual(self, corrupt, key):
        q = su2_quadrature(8)
        assert verify_projector_algebra(q, 4)["within_tolerance"]
        # the copy lands on delta = 1, so E_1 E_2 = E_2^2 on degree 2
        target = (1, 2) if key == "orthogonality" else (2, 2)
        q._ops[target] = corrupt(q._ops)
        report = verify_projector_algebra(q, 4)
        assert report[key] > 1e-8
        assert not report["within_tolerance"]

    def test_corrupted_weights_break_idempotence(self):
        q = su2_quadrature(8)
        bad = QuadratureScheme(q.nodes, q.weights * 1.1, q.band)
        report = verify_projector_algebra(bad, 4)
        assert report["idempotence"] > 1e-8
        assert not report["within_tolerance"]


class TestFiniteSeries:
    @pytest.mark.parametrize("n", [0, -1])
    def test_torus_rank_below_one_is_refused(self, n):
        with pytest.raises(DegenerateInputError):
            torus_sample({}, n)

    # a float or str exponent used to fail later with a bare TypeError in
    # the series, and a bool was read as the int it equals
    @pytest.mark.parametrize("exponent", [(0.5, 0.5), (1.0, 1.0), (True, 0), (0, False), ("1", 0), (2, -1)])
    def test_su2_exponent_that_is_no_natural_is_refused(self, q12, exponent):
        with pytest.raises(DegenerateInputError):
            finite_series_check(su2_sample({exponent: 1.0}), q12)

    @pytest.mark.parametrize("exponent", [(1.0, 0), (True, 0), (0, False), ("1", 0)])
    def test_torus_exponent_that_is_no_int_is_refused(self, exponent):
        with pytest.raises(DegenerateInputError):
            finite_series_check(torus_sample({exponent: 1.0}))

    # a key that is no tuple used to raise a bare TypeError from len()
    def test_su2_exponent_that_is_no_tuple_is_refused(self):
        with pytest.raises(DegenerateInputError, match="is not a pair of naturals"):
            su2_sample({5: 1.0})

    def test_torus_exponent_that_is_no_tuple_is_refused(self):
        with pytest.raises(DegenerateInputError, match="is not a tuple"):
            torus_sample({5: 1.0})

    def test_torus_exponent_that_is_no_tuple_after_a_tuple_is_refused(self):
        with pytest.raises(DegenerateInputError, match="is not a tuple"):
            torus_sample({(1,): 1.0, 5: 2.0})

    def test_zero_sample_has_empty_support(self, q12):
        assert finite_series_check(su2_sample({}), q12).support == []
        assert finite_series_check(torus_sample({}, n=2)).support == []
        assert finite_series_check(torus_sample({}, n=2)).residual == 0.0

    def test_cubic_plus_linear_support(self, q12):
        f = su2_sample({(3, 0): 1.0, (0, 1): 1.0})
        rep = finite_series_check(f, q12)
        assert rep.support == [1, 3]
        assert rep.residual <= 1e-8
        assert rep.within_tolerance

    def test_random_degree_six_polynomials(self, q12):
        rng = np.random.default_rng(2)
        for _ in range(5):
            coeffs = {}
            for _ in range(8):
                a = int(rng.integers(0, 7))
                b = int(rng.integers(0, 7 - a))
                coeffs[(a, b)] = complex(rng.normal(), rng.normal())
            rep = finite_series_check(su2_sample(coeffs), q12)
            assert set(rep.support) <= set(range(7))
            assert rep.residual <= 1e-8

    def test_su2_sample_requires_scheme(self):
        with pytest.raises(DegenerateInputError):
            finite_series_check(su2_sample({(1, 0): 1.0}))

    def test_report_serialization(self, q12):
        rep = finite_series_check(su2_sample({(2, 0): 1.0}), q12)
        d = rep.as_dict()
        assert d["support"] == ["2"]
        assert d["within_tolerance"] is True
