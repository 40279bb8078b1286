"""Involutions, adaptedness, intertwiner solves, and orbit preservation."""

import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import weylkit
from weylkit.errors import (
    DegenerateInputError,
    NoIntertwinerError,
    NonReductiveError,
    NotAdaptedError,
    NotOrthonormalError,
    NotSubalgebraError,
    NuSquareObstructionError,
)
from weylkit.involution import (
    SHIPPED_BUNDLES,
    AntilinearMap,
    HModule,
    InvolutionSpec,
    assemble_bundle_involution,
    build_cartan_conjugation,
    build_phi,
    build_sigma,
    build_weyl_involution,
    _is_semisimple_element,
    fiber_character,
    fiber_restriction,
    fiber_trivial,
    is_adapted,
    nu_solution_space_dim,
    orbit_preservation_check,
    solve_nu,
)
from weylkit.linalg import eye, fr, sparse, zeros
from weylkit.rootsys import Subalgebra, parse_group, standard_subalgebra
from weyl_references import dense_table, is_zero, matmul, nonzero_columns


def _corrupted_theta(group):
    """e -> -f but f -> +e: kills the bracket relation, so not an automorphism."""
    m = zeros(group.dim, group.dim)
    idx = {lab: k for k, lab in enumerate(group.basis_labels)}
    m[idx[("h", 0)], idx[("h", 0)]] = fr(-1)
    m[idx[("f", (1,))], idx[("e", (1,))]] = fr(-1)
    m[idx[("e", (1,))], idx[("f", (1,))]] = fr(1)
    return InvolutionSpec("weyl_theta", group, nonzero_columns(m), False)


def _inner_theta(group):
    """e -> -e, f -> -f, h -> h: a genuine involution fixing the torus."""
    m = zeros(group.dim, group.dim)
    idx = {lab: k for k, lab in enumerate(group.basis_labels)}
    m[idx[("h", 0)], idx[("h", 0)]] = fr(1)
    m[idx[("e", (1,))], idx[("e", (1,))]] = fr(-1)
    m[idx[("f", (1,))], idx[("f", (1,))]] = fr(-1)
    return InvolutionSpec("weyl_theta", group, nonzero_columns(m), False)


class TestInvolutionSpecs:
    def test_chevalley_images_a1(self):
        g = parse_group("A1")
        th = build_weyl_involution(g)
        e = g.gen_vector("e", (1,))
        f = g.gen_vector("f", (1,))
        h = g.gen_vector("h", 0)
        assert th.apply(sparse(e)) == sparse(-f)
        assert th.apply(sparse(f)) == sparse(-e)
        assert th.apply(sparse(h)) == sparse(-h)
        assert not th.antilinear

    def test_chevalley_negates_cartan_and_torus(self):
        g = parse_group("A1+T1")
        th = build_weyl_involution(g)
        for kind, tag in g.basis_labels:
            if kind in ("h", "t"):
                v = g.gen_vector(kind, tag)
                assert th.apply(sparse(v)) == sparse(-v)

    @pytest.mark.parametrize("name", ["A2", "B2", "G2"])
    def test_chevalley_swaps_root_pairs(self, name):
        g = parse_group(name)
        th = build_weyl_involution(g)
        for root in g.posroots:
            e = g.gen_vector("e", root)
            f = g.gen_vector("f", root)
            assert th.apply(sparse(e)) == sparse(-f)
            assert th.apply(sparse(f)) == sparse(-e)
        assert th.squares_to_identity()
        assert th.is_automorphism()

    @pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "A1xA1", "A1xG2", "A1xA1xA1", "G2+T1", "A1xA1+T1", "T2"])
    def test_chevalley_and_sigma_tables_are_int(self, name):
        # theta is a signed permutation and sigma = tau theta its square: both
        # tables hold int entries, so theta, tau and sigma apply on ints
        g = parse_group(name)
        for spec in (build_weyl_involution(g), build_sigma(g)):
            assert all(type(x) is int for col in spec.table for _, x in col)
            assert sum(len(col) for col in spec.table) == g.dim

    def test_cartan_conjugation_matches_chevalley_matrix(self):
        g = parse_group("A2")
        th = build_weyl_involution(g)
        tau = build_cartan_conjugation(g)
        assert tau.antilinear
        assert tau.table == th.table

    @pytest.mark.parametrize("name", ["A1", "A2", "B2"])
    def test_sigma_for_standard_theta_is_plain_conjugation(self, name):
        # tau and theta share a matrix that squares to the identity, so the
        # composite acts as conj on Chevalley coordinates
        g = parse_group(name)
        s = build_sigma(g)
        assert s.antilinear
        assert is_zero(dense_table(s.table) - eye(g.dim))
        assert s.squares_to_identity()

    def test_sigma_rejects_noncommuting_theta(self):
        g = parse_group("A1")
        with pytest.raises(DegenerateInputError):
            build_sigma(g, _corrupted_theta(g))

    def test_action_on_weights_is_duality(self):
        a2 = parse_group("A2")
        s = build_sigma(a2)
        assert s.action_on_weights((1, 0)) == (0, 1)
        assert s.action_on_weights((1, 1)) == (1, 1)
        b2 = parse_group("B2")
        assert build_sigma(b2).action_on_weights((1, 0)) == (1, 0)
        a1 = parse_group("A1")
        assert build_sigma(a1).action_on_weights((3,)) == (3,)


class TestAdaptedness:
    @pytest.mark.parametrize(
        "name,sub",
        [
            ("A1", "cartan"),
            ("A1", "full"),
            ("A1xA1", "diagonal"),
            ("A2", "principal"),
            ("A2", "cartan"),
            ("B2", "cartan"),
        ],
    )
    def test_standard_pairs_are_adapted(self, name, sub):
        g = parse_group(name)
        h = standard_subalgebra(g, sub)
        rep = is_adapted(g, h, build_weyl_involution(g))
        assert rep.theta_stable
        assert rep.restriction_is_weyl
        assert rep.verdict
        assert rep.diagnostics is not None

    def test_span_that_is_no_subalgebra_is_refused(self):
        g = parse_group("A1")
        h = Subalgebra(g, [g.gen_vector("e", (1,)), g.gen_vector("f", (1,))])
        with pytest.raises(NotSubalgebraError):
            is_adapted(g, h, build_weyl_involution(g))

    def test_zero_subalgebra_is_vacuously_adapted(self):
        g = parse_group("A1")
        h = standard_subalgebra(g, "zero")
        rep = is_adapted(g, h, build_weyl_involution(g))
        assert rep.verdict
        assert rep.diagnostics == []

    @pytest.mark.parametrize("sub", ["nilradical", "borel"])
    def test_non_reductive_subalgebras_rejected(self, sub):
        g = parse_group("A2")
        h = standard_subalgebra(g, sub)
        with pytest.raises(NonReductiveError):
            is_adapted(g, h, build_weyl_involution(g))

    def test_twisted_line_is_not_stable(self):
        g = parse_group("A1")
        tw = Subalgebra(g, [g.gen_vector("h", 0) + g.gen_vector("e", (1,))])
        rep = is_adapted(g, tw, build_weyl_involution(g))
        assert not rep.theta_stable
        assert not rep.verdict

    def test_stable_but_restriction_not_weyl(self):
        # the inner involution fixes the torus pointwise, so its restriction
        # to the Cartan is +id rather than -id
        g = parse_group("A1")
        inner = _inner_theta(g)
        assert inner.is_automorphism()
        assert inner.squares_to_identity()
        rep = is_adapted(g, standard_subalgebra(g, "cartan"), inner)
        assert rep.theta_stable
        assert not rep.restriction_is_weyl
        assert not rep.verdict


def _element(group, terms):
    z = zeros(group.dim)
    for kind, which, c in terms:
        z = z + fr(c) * group.gen_vector(kind, which)
    return z


def _sympy_is_semisimple(group, z) -> bool:
    """The sympy algorithm the exact test replaced, kept as an oracle."""
    sympy = pytest.importorskip("sympy")
    ad = group.ad(z)
    m = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in ad]
    )
    lam = sympy.Symbol("x")
    p = m.charpoly(lam).as_expr()
    q = sympy.quo(p, sympy.gcd(p, sympy.diff(p, lam)), lam)
    acc = sympy.zeros(group.dim)
    for c in sympy.Poly(q, lam).all_coeffs():
        acc = acc * m + sympy.eye(group.dim) * c
    return acc == sympy.zeros(group.dim)


class TestSemisimpleElement:
    @pytest.mark.parametrize(
        "name,terms,expected",
        [
            ("A1", [], True),
            ("A1", [("h", 0, 1)], True),
            ("A1", [("e", (1,), 1), ("f", (1,), 1)], True),
            ("A1", [("h", 0, 1), ("e", (1,), 1)], True),
            ("A1", [("e", (1,), 1)], False),
            ("A2", [("e", (1, 0), 1), ("e", (0, 1), 1)], False),
            ("A1xA1", [("h", 0, 1), ("e", (0, 1), 1)], False),
        ],
    )
    def test_hand_cases(self, name, terms, expected):
        g = parse_group(name)
        assert _is_semisimple_element(g, sparse(_element(g, terms))) is expected

    def test_matches_sympy_on_random_rational_elements(self):
        pytest.importorskip("sympy")
        rng = random.Random(20)
        verdicts = []
        for name in ("A1", "A2", "B2", "G2", "A1xA1", "A1+T1", "A2+T1"):
            g = parse_group(name)
            for _ in range(30):
                # sparse supports make nilpotent and mixed elements common
                z = zeros(g.dim)
                for i in rng.sample(range(g.dim), rng.randint(1, g.dim)):
                    z[i] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                ours = _is_semisimple_element(g, sparse(z))
                assert ours == _sympy_is_semisimple(g, z), (name, list(z))
                verdicts.append(ours)
        assert len(verdicts) == 210
        assert 20 <= sum(verdicts) <= 190  # both verdicts well represented

    def test_cli_import_does_not_load_sympy(self):
        src = str(Path(weylkit.__file__).resolve().parents[1])
        code = f"import sys; sys.path.insert(0, {src!r}); import weylkit.cli; print('sympy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "False"


class TestAntilinearMaps:
    def test_identity_map_conjugates(self):
        a = AntilinearMap(nonzero_columns(eye(2)))
        v = np.array([1 + 2j, -3 + 0.5j])
        assert np.allclose(a.matrix_complex() @ np.conj(v), np.conj(v))
        assert a.is_involutive()

    def test_quaternionic_square_is_minus_identity(self):
        m = zeros(2, 2)
        m[0, 1] = fr(1)
        m[1, 0] = fr(-1)
        j = AntilinearMap(nonzero_columns(m))
        assert is_zero(matmul(dense_table(j.table), dense_table(j.table)) + eye(2))
        assert not j.is_involutive()

    def test_negate_flips_both_parts(self):
        # one rational matrix is all there is to flip
        a = AntilinearMap(nonzero_columns(eye(2)))
        b = a.negate()
        assert is_zero(dense_table(b.table) + dense_table(a.table))


class TestSolveNu:
    @pytest.mark.parametrize(
        "sub,sizes",
        [("cartan", (1, 1)), ("full", (2, 2)), ("full", (2, 2, 3))],
        ids=["too_many", "too_few", "mixed_sizes"],
    )
    def test_misshapen_fiber_matrices_are_refused(self, sub, sizes):
        g = parse_group("A1")
        h = standard_subalgebra(g, sub)
        with pytest.raises(DegenerateInputError):
            HModule(g, h, [[[] for _ in range(n)] for n in sizes], ("probe",), sizes[0])

    def test_trivial_fiber(self):
        g = parse_group("A1")
        h = standard_subalgebra(g, "cartan")
        nu = solve_nu(fiber_trivial(g, h), build_weyl_involution(g))
        assert is_zero(dense_table(nu.table) - eye(1))

    def test_weight_two_character(self):
        g = parse_group("A1")
        h = standard_subalgebra(g, "cartan")
        fib = fiber_character(g, h, [2])
        th = build_weyl_involution(g)
        nu = solve_nu(fib, th)
        assert is_zero(dense_table(nu.table) - eye(1))
        assert nu.is_involutive()
        assert nu_solution_space_dim(fib, th) == 2

    def test_defining_fiber_over_full(self):
        g = parse_group("A1")
        h = standard_subalgebra(g, "full")
        fib = fiber_restriction(g, h, (1,))
        th = build_weyl_involution(g)
        nu = solve_nu(fib, th)
        assert is_zero(dense_table(nu.table) - eye(2))
        assert nu.is_involutive()
        assert nu_solution_space_dim(fib, th) == 2

    def test_system_bound_admits_its_own_size(self, monkeypatch):
        import weylkit.involution as involution

        g = parse_group("A1")
        fib = fiber_restriction(g, standard_subalgebra(g, "full"), (1,))
        th = build_weyl_involution(g)
        # h's weights 1 and -1 leave the 2 diagonal unknowns, against 2 rows
        # per basis vector of h: 12 entries
        monkeypatch.setattr(involution, "MAX_NU_ENTRIES", 12)
        assert nu_solution_space_dim(fib, th) == 2
        monkeypatch.setattr(involution, "MAX_NU_ENTRIES", 11)
        with pytest.raises(DegenerateInputError, match="2 unknowns and 6 rows"):
            nu_solution_space_dim(fib, th)

    def test_defining_fiber_sl3(self):
        # absolutely irreducible, so the rational intertwiner space is a
        # line and the realified space is a plane
        g = parse_group("A2")
        h = standard_subalgebra(g, "full")
        fib = fiber_restriction(g, h, (1, 0))
        th = build_weyl_involution(g)
        nu = solve_nu(fib, th)
        assert is_zero(dense_table(nu.table) - eye(3))
        assert nu.is_involutive()
        assert nu_solution_space_dim(fib, th) == 2

    def test_corrupted_theta_has_no_intertwiner(self):
        g = parse_group("A1")
        h = standard_subalgebra(g, "full")
        fib = fiber_restriction(g, h, (1,))
        with pytest.raises(NoIntertwinerError):
            solve_nu(fib, _corrupted_theta(g))

    def test_identity_theta_hits_quaternionic_obstruction(self):
        # sigma reduces to tau alone and the defining fiber carries a
        # quaternionic structure: every candidate squares negatively
        g = parse_group("A1")
        h = standard_subalgebra(g, "full")
        fib = fiber_restriction(g, h, (1,))
        ident = InvolutionSpec("weyl_theta", g, nonzero_columns(eye(g.dim)), False)
        with pytest.raises(NuSquareObstructionError):
            solve_nu(fib, ident)


class TestBundleCertificates:
    @pytest.mark.parametrize("key", sorted(SHIPPED_BUNDLES))
    def test_shipped_bundle_checks_pass(self, key):
        bundle = SHIPPED_BUNDLES[key]()
        assert bundle.certificate.checks
        assert all(bundle.certificate.checks.values())
        assert all(bundle.certificate.verify().values())
        assert bundle.certificate.nu.is_involutive()
        assert bundle.certificate.adapted.verdict

    def test_shipped_nu_matrices_are_identities(self):
        c1 = SHIPPED_BUNDLES["cartan_weight2"]().certificate
        assert is_zero(dense_table(c1.nu.table) - eye(1))
        c2 = SHIPPED_BUNDLES["full_defining"]().certificate
        assert is_zero(dense_table(c2.nu.table) - eye(2))
        c3 = SHIPPED_BUNDLES["diagonal_trivial"]().certificate
        assert is_zero(dense_table(c3.nu.table) - eye(1))

    def test_verify_flags_a_nu_that_does_not_intertwine(self):
        # the defining fiber is irreducible, so only scalars intertwine
        cert = SHIPPED_BUNDLES["full_defining"]().certificate
        m = eye(2)
        m[0, 1] = fr(1)
        cert.nu = AntilinearMap(nonzero_columns(m))
        assert cert.verify()["nu_equivariant_over_h"] is False
        cert.nu = AntilinearMap(nonzero_columns(-eye(2)))
        assert cert.verify()["nu_equivariant_over_h"] is True

    def test_certificate_as_dict_shape(self):
        d = SHIPPED_BUNDLES["full_defining"]().certificate.as_dict()
        assert d["group"] == "A1"
        assert d["fiber_dim"] == 2
        assert d["adapted"]["verdict"] is True
        assert set(d["checks"]) == {
            "sigma_squares_to_identity",
            "sigma_is_commuting_product",
            "nu_equivariant_over_h",
        }

    def test_assemble_rejects_unadapted_subalgebra(self):
        g = parse_group("A1")
        tw = Subalgebra(g, [g.gen_vector("h", 0) + g.gen_vector("e", (1,))])
        with pytest.raises(NotAdaptedError):
            assemble_bundle_involution(g, tw, fiber_character(g, tw, [2]))

    def test_assemble_propagates_reductivity_failure(self):
        g = parse_group("A1")
        nil = standard_subalgebra(g, "nilradical")
        with pytest.raises(NonReductiveError):
            assemble_bundle_involution(g, nil, fiber_trivial(g, nil))


class TestPhiFamilies:
    def test_gram_gate_accepts_orthonormal(self):
        phi = build_phi(
            [{0: 1.0}, {1: 1.0}],
            lambda key: 1.0,
            lambda key, z: z**key,
        )
        assert phi.eval(2.0) == pytest.approx(5.0)

    def test_gram_gate_rejects_scaled_family(self):
        with pytest.raises(NotOrthonormalError):
            build_phi([{0: 2.0}], lambda key: 1.0, lambda key, z: z**key)

    def test_single_function_is_modulus_squared(self):
        phi = build_phi([{0: 1.0}], lambda key: 1.0, lambda key, z: z)
        for z in (1 + 1j, -2j, 0.25):
            assert phi.eval(z) == pytest.approx(abs(z) ** 2)

    def test_defining_degree_one_phi_is_norm_squared(self):
        bundle = SHIPPED_BUNDLES["full_defining"]()
        phi1 = bundle.phis[1]
        for v in (np.array([1 + 1j, 2.0]), np.array([0.5j, -3 + 1j])):
            assert phi1.eval(v) == pytest.approx(np.sum(np.abs(v) ** 2))

    def test_phi_is_unitary_basis_change_invariant(self):
        # sum of |f_j|^2 over an orthonormal family only depends on the
        # spanned space, so recombining by a unitary must not move it
        rng = np.random.default_rng(7)
        keys = list(range(4))
        base = [{k: 1.0} for k in keys]
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        rotated = [{k: u[r, k] for k in keys} for r in range(4)]
        ev = lambda key, z: z**key / (1.0 + key)
        phi_a = build_phi(base, lambda key: 1.0, ev)
        phi_b = build_phi(rotated, lambda key: 1.0, ev)
        pts = rng.normal(size=100) + 1j * rng.normal(size=100)
        for z in pts:
            assert abs(phi_a.eval(z) - phi_b.eval(z)) <= 1e-10


class TestOrbitPreservation:
    @pytest.mark.parametrize("key", sorted(SHIPPED_BUNDLES))
    def test_orbit_residual_within_tolerance(self, key):
        bundle = SHIPPED_BUNDLES[key]()
        report = orbit_preservation_check(bundle, n_samples=20, seed=0)
        assert report["within_tolerance"]
        assert report["max_residual"] <= 1e-8
        assert report["n_samples"] == 20
        assert report["n_functions"] >= 5
        assert len(report["per_function"]) == report["n_functions"]

    def test_fixed_point_has_zero_residual(self):
        # a real vector is fixed by nu conj, so the residual vanishes exactly
        bundle = SHIPPED_BUNDLES["full_defining"]()
        report = orbit_preservation_check(
            bundle, samples=[np.array([1.0 + 0j, 2.0 + 0j])]
        )
        assert report["max_residual"] == 0.0

    def test_sign_flip_detected_on_mixed_family(self):
        # the diagonal Phi member mixes two fiber powers, so flipping nu
        # changes a cross term and the residual jumps far above tolerance
        bundle = SHIPPED_BUNDLES["cartan_weight2"]()
        flipped = bundle.certificate.nu.negate()
        report = orbit_preservation_check(bundle, n_samples=20, seed=0, nu=flipped)
        assert not report["within_tolerance"]
        assert report["max_residual"] > 1e-3
        assert report["per_function"]["phi_diag"] > 1e-3

    @pytest.mark.parametrize("key", ["full_defining", "diagonal_trivial"])
    def test_sign_flip_invisible_when_multiplicity_free(self, key):
        # each Phi family here sits in a single isotypic block; a global
        # fiber phase cancels inside |.|^2 and cannot be seen
        bundle = SHIPPED_BUNDLES[key]()
        flipped = bundle.certificate.nu.negate()
        report = orbit_preservation_check(bundle, n_samples=20, seed=0, nu=flipped)
        assert report["within_tolerance"]
