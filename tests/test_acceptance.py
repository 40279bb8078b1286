"""Acceptance suite: nine criteria, one test and one pass/fail line each.

Tolerances are pinned here.  Exact paths assert equality over the
rationals with no epsilon at all; quadrature paths allow 1e-8; the torus
transform path allows 1e-12.  Criteria with a stated runtime ceiling
assert it with time.perf_counter around the whole body.
"""

import itertools
import time

import numpy as np
import pytest

from weylkit.catalog import default_catalog_path, load_catalog, run_catalog
from weylkit.errors import NoIntertwinerError, NonReductiveError, NotAdaptedError
from weylkit.harmonic import (
    finite_series_check,
    su2_quadrature,
    su2_sample,
    torus_sample,
    verify_projector_algebra,
)
from weylkit.involution import (
    SHIPPED_BUNDLES,
    InvolutionSpec,
    assemble_bundle_involution,
    build_cartan_conjugation,
    build_weyl_involution,
    fiber_character,
    fiber_restriction,
    fiber_trivial,
    nu_solution_space_dim,
    orbit_preservation_check,
    solve_nu,
)
from weylkit.linalg import zeros
from weylkit.repthy import weight_multiplicities, weyl_dim
from weylkit.rootsys import parse_group, standard_subalgebra
from weylkit.spherical import classify_torus_fibration, is_spherical_pair, verify_witness
from weylkit.sympoly import (
    check_reductive,
    homog_coordinate_mf_crosscheck,
    sym_power_decompose,
)
from weylkit.repthy import tensor_decompose
from weyl_references import dense_table, is_zero, nonzero_columns

QUADRATURE_TOL = 1e-8
EXACT_FFT_TOL = 1e-12

ALL_TYPES = ("A1", "A2", "B2", "G2", "A1xA1", "A1+T1")
POSROOT_COUNTS = {"A1": 1, "A2": 3, "B2": 4, "G2": 6, "A1xA1": 2, "A1+T1": 1}


def _report(n, text):
    print(f"criterion {n}: PASS  [{text}]")


def test_criterion_1_root_system_integrity():
    t0 = time.perf_counter()
    for name in ALL_TYPES:
        g = parse_group(name)
        assert len(g.posroots) == POSROOT_COUNTS[name]
        A = g.cartan_matrix
        for i in range(g.rank):
            assert A[i, i] == 2
            for j in range(g.rank):
                if i != j:
                    assert A[i, j] <= 0
                    assert (A[i, j] == 0) == (A[j, i] == 0)
        table = g.bracket_table
        d = g.dim
        for i in range(d):
            assert is_zero(table[i][i])
            for j in range(i + 1, d):
                assert is_zero(table[i][j] + table[j][i])
        # [x,[y,z]] + [y,[z,x]] + [z,[x,y]] over every basis triple; each
        # inner bracket expands through the table, so the whole check stays
        # in exact rational arithmetic.
        def term(i, j, k):
            w = table[j][k]
            acc = zeros(d)
            for m in range(d):
                if w[m] != 0:
                    acc = acc + w[m] * table[i][m]
            return acc

        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    assert is_zero(term(i, j, k) + term(j, k, i) + term(k, i, j))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"6 types, exhaustive Jacobi, {elapsed:.2f}s")


def test_criterion_2_dimension_conservation():
    t0 = time.perf_counter()
    checked = 0
    for name in ALL_TYPES:
        g = parse_group(name)
        torus_part = [()] if g.torus_dim == 0 else [(c,) for c in (-2, 0, 2)]
        for coords in itertools.product(range(7), repeat=g.rank):
            if sum(coords) > 6:
                continue
            for t in torus_part:
                lab = coords + t
                assert sum(weight_multiplicities(g, lab).values()) == weyl_dim(g, lab)
                checked += 1
    # tensor products of the smallest fundamentals conserve dimension
    for name, a, b in (
        ("A1", (1,), (1,)),
        ("A2", (1, 0), (0, 1)),
        ("B2", (1, 0), (0, 1)),
        ("G2", (0, 1), (0, 1)),
    ):
        g = parse_group(name)
        dec = tensor_decompose(g, a, b)
        assert sum(weyl_dim(g, lab) * m for lab, m in dec.items()) == weyl_dim(
            g, a
        ) * weyl_dim(g, b)
    # symmetric powers of the shipped module instances conserve dimension
    for name, summands, degree in (
        ("A1", [((1,), 1)], 4),
        ("A1", [((1,), 2)], 3),
        ("A2", [((1, 0), 1)], 4),
        ("B2", [((1, 0), 1)], 3),
    ):
        g = parse_group(name)
        n = sum(weyl_dim(g, lab) * m for lab, m in summands)
        for d in range(degree + 1):
            dec = sym_power_decompose(g, summands, d)
            expect = 1
            for i in range(d):
                expect = expect * (n + i) // (i + 1)
            assert sum(weyl_dim(g, lab) * m for lab, m in dec.items()) == expect
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, f"{checked} labels conserve dimension, {elapsed:.1f}s")


def test_criterion_3_sphericality_certificates():
    t0 = time.perf_counter()
    entries = load_catalog(default_catalog_path())
    witnesses = 0
    trivials = 0
    for e in entries:
        exp = e.expected.get("spherical")
        if exp is None:
            continue
        res = is_spherical_pair(e.group_obj, e.h, seed=0)
        assert res.status == exp["verdict"], e.id
        if exp["verdict"] == "spherical":
            assert verify_witness(e.group_obj, e.h, res.certificate["witness"])
            witnesses += 1
        if exp["verdict"] == "not_spherical" and exp["provenance"] == "trivial_dimension_count":
            # decided by counting alone, before any sampling
            assert res.certificate["reason"] == "dimension_obstruction"
            trivials += 1
    summary = run_catalog(entries, checks=["spherical"], seed=0)["summary"]
    assert summary["disagreements"] == 0 and summary["errors"] == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    assert witnesses >= 5 and trivials >= 3
    _report(3, f"{witnesses} rational witnesses replayed, {trivials} dimension cuts, {elapsed:.1f}s")


def test_criterion_4_fibration_agrees_with_sphericality():
    entries = load_catalog(default_catalog_path())
    decisive = 0
    for e in entries:
        if "fibration" not in e.expected or e.h is None:
            continue
        f = classify_torus_fibration(e.group_obj, e.h)
        assert f.status == e.expected["fibration"]["verdict"], e.id
        if f.status in ("flag_manifold", "torus_bundle_over_flag"):
            assert is_spherical_pair(e.group_obj, e.h, seed=0).status == "spherical", e.id
            decisive += 1
    assert decisive >= 4
    _report(4, f"{decisive} decisive fibrations, all spherical, 0 disagreements")


def test_criterion_5_mf_spherical_involution_consistency():
    t0 = time.perf_counter()
    entries = load_catalog(default_catalog_path())
    pairs = 0
    for e in entries:
        if e.h is None:
            continue
        try:
            check_reductive(e.group_obj, e.h)
        except NonReductiveError:
            continue
        pairs += 1
        spherical = is_spherical_pair(e.group_obj, e.h, seed=0).status == "spherical"
        mf_exp = e.expected.get("mf_truncated")
        if mf_exp is not None and "summands" not in (e.module or {}):
            module = e.module or {}
            bound = module.get("degree_bound", 8)
            ambient = None
            if "ambient" in module:
                ambient = [(tuple(lab), m) for lab, m in module["ambient"]]
            v = homog_coordinate_mf_crosscheck(e.group_obj, e.h, bound, ambient=ambient)
            assert v.verdict == mf_exp["verdict"], e.id
            assert (v.verdict == "multiplicity_free_up_to_D") == spherical, e.id
        adapted_exp = e.expected.get("adapted")
        if adapted_exp is not None:
            fiber = fiber_trivial(e.group_obj, e.h)
            if adapted_exp["verdict"] == "adapted":
                cert = assemble_bundle_involution(e.group_obj, e.h, fiber)
                assert all(cert.checks.values()), e.id
            else:
                with pytest.raises(NotAdaptedError):
                    assemble_bundle_involution(e.group_obj, e.h, fiber)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert pairs >= 7
    _report(5, f"{pairs} reductive pairs mutually consistent, {elapsed:.1f}s")


def _sigma_equivariance_residuals(module, theta):
    """Exact residuals M R(x) - R(sigma x) M over the generators, with nu
    one rational matrix M."""
    nu = solve_nu(module, theta)
    sigma = dense_table(build_cartan_conjugation(module.group).table) @ dense_table(theta.table)
    mats = [dense_table(t) for t in module.tables]
    out = []
    for i, x in enumerate(module.h.basis):
        coords = module.h.coords(sigma @ x)
        r_sigma = zeros(module.dim, module.dim)
        for j, c in enumerate(coords):
            if c != 0:
                r_sigma = r_sigma + c * mats[j]
        nu_matrix = dense_table(nu.table)
        out.append(nu_matrix @ mats[i] - r_sigma @ nu_matrix)
    return nu, out


def test_criterion_6_antilinear_intertwiner_solver():
    cases = []
    a1 = parse_group("A1")
    a2 = parse_group("A2")
    cases.append(fiber_restriction(a1, standard_subalgebra(a1, "full"), (1,)))
    cases.append(fiber_restriction(a2, standard_subalgebra(a2, "full"), (1, 0)))
    cases.append(fiber_character(a1, standard_subalgebra(a1, "cartan"), [2]))
    for module in cases:
        theta = build_weyl_involution(module.group)
        nu, residuals = _sigma_equivariance_residuals(module, theta)
        for r in residuals:
            assert is_zero(r)
        assert nu.is_involutive()
        assert nu_solution_space_dim(module, theta) == 2
    # corrupted involution: h -> -h, e -> -f, f -> +e is not an automorphism
    m = zeros(a1.dim, a1.dim)
    m[0, 0] = -1
    m[2, 1] = -1
    m[1, 2] = 1
    bad = InvolutionSpec("weyl_theta", a1, nonzero_columns(m), antilinear=False)
    assert not bad.is_automorphism()
    with pytest.raises(NoIntertwinerError):
        solve_nu(fiber_restriction(a1, standard_subalgebra(a1, "full"), (1,)), bad)
    _report(6, "3 modules: zero residuals, nu^2=id, solution dim 2; corrupted theta rejected")


def test_criterion_7_bundle_involution_certificates():
    reports = {}
    for name, builder in SHIPPED_BUNDLES.items():
        b = builder()
        cert = b.certificate
        fresh = cert.verify()
        assert set(fresh) == {
            "sigma_squares_to_identity",
            "sigma_is_commuting_product",
            "nu_equivariant_over_h",
        }
        assert all(fresh.values()), name
        rep = orbit_preservation_check(b)
        assert rep["n_samples"] >= 20 and rep["n_functions"] >= 5, name
        assert rep["max_residual"] <= QUADRATURE_TOL, name
        reports[name] = rep["max_residual"]
    flip = SHIPPED_BUNDLES["cartan_weight2"]()
    bad = orbit_preservation_check(flip, nu=flip.certificate.nu.negate())
    assert bad["max_residual"] > QUADRATURE_TOL
    worst = max(reports.values())
    _report(7, f"3 bundles exact, orbit residual <= {worst:.1e}, sign flip detected")


def test_criterion_8_projector_algebra():
    t0 = time.perf_counter()
    q = su2_quadrature(16)
    rep = verify_projector_algebra(q, 8, seed=0)
    for key in ("idempotence", "orthogonality", "commutation", "self_adjointness"):
        assert rep[key] <= QUADRATURE_TOL, (key, rep[key])
    assert rep["within_tolerance"]
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        coeffs = {}
        for _ in range(12):
            e = tuple(int(x) for x in rng.integers(-6, 7, size=2))
            coeffs[e] = complex(rng.standard_normal(), rng.standard_normal())
        series = finite_series_check(torus_sample(coeffs, 2))
        assert series.residual <= EXACT_FFT_TOL
        worst = max(worst, series.residual)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(8, f"degree-8 algebra <= {rep['max_residual']:.1e}, torus round-trip <= {worst:.1e}, {elapsed:.1f}s")


def test_criterion_9_finite_series_reconstruction():
    q = su2_quadrature(12)
    rng = np.random.default_rng(1)
    for _ in range(50):
        deg = int(rng.integers(0, 7))
        coeffs = {}
        for _ in range(2 * (deg + 1)):
            a = int(rng.integers(0, deg + 1))
            b = int(rng.integers(0, deg + 1 - a))
            coeffs[(a, b)] = complex(rng.standard_normal(), rng.standard_normal())
        f = su2_sample(coeffs)
        series = finite_series_check(f, q)
        assert series.support, "nonzero input must have nonempty support"
        assert all(0 <= s <= f.degree() for s in series.support)
        assert series.residual <= QUADRATURE_TOL
        assert series.within_tolerance
    _report(9, "50 random polynomials: support bounded by degree, residual <= 1e-8")
