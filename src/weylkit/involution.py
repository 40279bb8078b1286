"""Weyl involutions, adapted subalgebras, and antiholomorphic bundle data.

Everything at the Lie-algebra level is exact: the Chevalley involution, the
compact-form conjugation, and the intertwiner solve all run over rational
matrices, so every certificate in this module re-verifies to literal zero
residuals.  Floating point enters only through the Phi-function orbit
checks, which live on the analytic model and carry explicit tolerances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, isqrt, lcm, sqrt

import numpy as np

from .errors import (
    DegenerateInputError,
    NoIntertwinerError,
    NotAdaptedError,
    NotOrthonormalError,
    NotSubalgebraError,
    NuSquareObstructionError,
    ensure,
)
from .harmonic import sym_rep_matrix
from .linalg import column_stack, combine, eye, fmat, fr, is_zero, matmul, nullspace, solve, sparse, zeros
from .repthy import build_module, check_label
from .rootsys import Group, Subalgebra, parse_group, standard_subalgebra
from .sympoly import check_reductive

Weight = tuple[int, ...]

# _nu_kernel reads the kernel of n^2 sparse columns (n the fiber dimension),
# n^4 dim h entries if written densely.  On a 2-vCPU x86 host that takes
# 0.02 s for A1 cartan w[20] (194,481 entries), 0.05-0.06 s for A1 cartan
# w[26] (531,441), A1 full w[20] (583,443) and G2 full adjoint (537,824), and
# a cold involution call 0.4 s, 0.64 s for G2 (import and dense fiber checks).
# A larger system, such as A1 cartan w[63] (16.8 M), is refused by
# check_nu_size before any column is built, and by the CLI before the fiber
# module is built.
MAX_NU_ENTRIES = 600_000


# ---- involution specs --------------------------------------------------------


@dataclass
class InvolutionSpec:
    """An exact involution of the Lie algebra on the Chevalley basis.

    kind "weyl_theta" is a linear automorphism; "cartan_tau" is the
    conjugation of the compact real form, an antilinear map whose rational
    matrix happens to coincide with the Chevalley involution; their product
    "sigma_product" is again antilinear and fixes the split form.
    """

    kind: str
    group: Group
    matrix: np.ndarray
    antilinear: bool

    def apply(self, v: np.ndarray) -> np.ndarray:
        return matmul(self.matrix, v)

    def action_on_weights(self, label) -> Weight:
        """Highest-weight involution lambda -> -w0(lambda)."""
        return self.group.dual_label(check_label(self.group, label))

    def squares_to_identity(self) -> bool:
        # For an antilinear map with rational matrix M the square is the
        # linear map M conj(M) = M M, the same formula as the linear case.
        return is_zero(matmul(self.matrix, self.matrix) - eye(self.group.dim))

    def is_automorphism(self) -> bool:
        """theta[b_i, b_j] = [theta b_i, theta b_j] for i < j, on the sparse
        columns theta b_i."""
        g = self.group
        cols = [sparse(c) for c in self.matrix.T]
        for i, j in itertools.combinations(range(g.dim), 2):
            lhs: dict = {}
            for k, c in g.sparse_bracket({i: 1}, {j: 1}).items():
                for p, x in cols[k].items():
                    lhs[p] = lhs.get(p, 0) + c * x
            if {p: x for p, x in lhs.items() if x} != g.sparse_bracket(cols[i], cols[j]):
                return False
        return True


def _chevalley_matrix(group: Group) -> np.ndarray:
    m = zeros(group.dim, group.dim)
    for k, (kind, tag) in enumerate(group.basis_labels):
        if kind in ("h", "t"):
            m[k, k] = fr(-1)
        elif kind == "e":
            m[group._index[("f", tag)], k] = fr(-1)
        else:
            m[group._index[("e", tag)], k] = fr(-1)
    return m


def build_weyl_involution(group: Group) -> InvolutionSpec:
    """The Chevalley involution e -> -f, f -> -e, -id on the Cartan span.

    This is the infinitesimal form of a Weyl involution: it inverts the
    maximal torus and is verified here to preserve every basis bracket.
    """
    spec = InvolutionSpec("weyl_theta", group, _chevalley_matrix(group), False)
    ensure(spec.squares_to_identity(), "Chevalley involution does not square to the identity")
    ensure(spec.is_automorphism(), "Chevalley involution failed bracket check")
    return spec


def build_cartan_conjugation(group: Group) -> InvolutionSpec:
    """Conjugation with respect to the compact real form.

    Antilinear; on the rational Chevalley basis its matrix is the same as
    the Chevalley involution (the compact form is spanned by h_i over iR
    and e-f, i(e+f)).
    """
    return InvolutionSpec("cartan_tau", group, _chevalley_matrix(group), True)


def build_sigma(group: Group, theta: InvolutionSpec | None = None) -> InvolutionSpec:
    """The antiholomorphic sigma = tau . theta fixing a split real form."""
    theta = theta if theta is not None else build_weyl_involution(group)
    tau = build_cartan_conjugation(group)
    prod = matmul(tau.matrix, theta.matrix)
    if not is_zero(prod - matmul(theta.matrix, tau.matrix)):
        raise DegenerateInputError("tau and theta do not commute")
    spec = InvolutionSpec("sigma_product", group, prod, True)
    if not spec.squares_to_identity():
        raise DegenerateInputError("sigma squared is not the identity")
    return spec


# ---- adaptedness -------------------------------------------------------------


@dataclass
class AdaptednessReport:
    theta_stable: bool
    restriction_is_weyl: bool
    verdict: bool
    diagnostics: list[np.ndarray] | None = None  # Cartan of h used, if found

    def as_dict(self) -> dict:
        return {
            "theta_stable": self.theta_stable,
            "restriction_is_weyl": self.restriction_is_weyl,
            "verdict": self.verdict,
            "cartan_found": self.diagnostics is not None,
        }


def _poly_divmod(p: list, d: list) -> tuple[list, list]:
    """Quotient and remainder of polynomials over Fraction, coefficient
    lists from the leading term down; d has a nonzero leading term."""
    rem = [Fraction(c) for c in p]
    quo = []
    while len(rem) >= len(d):
        c = rem[0] / d[0]
        quo.append(c)
        rem = [r - c * x for r, x in zip(rem[1:], d[1:] + [0] * len(rem))]
    while rem and rem[0] == 0:
        rem.pop(0)
    return quo, rem


def _is_semisimple_element(group: Group, z: np.ndarray) -> bool:
    """Exact test: the squarefree part of the characteristic polynomial of
    ad z annihilates ad z.

    ad z is first scaled to an integer matrix m, which does not change
    diagonalizability.  The characteristic polynomial p of m comes from the
    Faddeev-LeVerrier recursion, whose tr/k steps divide exactly over the
    integers (Cohen, A Course in Computational Algebraic Number Theory,
    1993, section 2.2); q = p / gcd(p, p') is then cleared of denominators
    and evaluated on m by Horner's rule.
    """
    ad = group.ad(z)
    scale = lcm(*(x.denominator for x in ad.flat))
    m = np.array([[int(x * scale) for x in row] for row in ad], dtype=object)
    ident = np.eye(len(m), dtype=int).astype(object)
    p, acc = [1], 0 * ident
    for k in range(1, len(m) + 1):
        acc = m @ acc + p[-1] * ident
        p.append(-np.trace(m @ acc) // k)
    a, b = p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]
    while b:  # Euclid: a ends as gcd(p, p')
        a, b = b, _poly_divmod(a, b)[1]
    q = _poly_divmod(p, a)[0]
    den = lcm(*(c.denominator for c in q))
    acc = 0 * ident
    for c in q:
        acc = acc @ m + int(c * den) * ident
    return is_zero(acc)


def _subspace_in_h(h: Subalgebra, coord_vectors: list[np.ndarray]) -> list[np.ndarray]:
    return [combine(c, h.basis, (h.group.dim,)) for c in coord_vectors]


def _centralizer_in_h(group: Group, h: Subalgebra, z: np.ndarray) -> list[np.ndarray]:
    return _subspace_in_h(h, nullspace([group.sparse_bracket(sparse(z), b) for b in h.rows]))


def _small_tuples(k: int):
    """Nonnegative integer coefficient tuples ordered by height, for
    deterministic generic-element searches: heights 1..6, at most 400."""
    count = 0
    for height in range(1, 7):
        for tup in itertools.product(range(height + 1), repeat=k):
            if sum(tup) != height:
                continue
            yield tup
            count += 1
            if count >= 400:
                return


def is_adapted(group: Group, h: Subalgebra, theta: InvolutionSpec) -> AdaptednessReport:
    """Is h theta-stable with theta a Weyl involution of h?

    The restriction criterion asks for a Cartan subalgebra of h on which
    theta acts as minus the identity.  Candidates z are drawn from the
    (-1)-eigenspace of theta on h in a deterministic height-ordered sweep;
    a semisimple z whose centralizer in h is abelian and still inside the
    (-1)-eigenspace exhibits such a Cartan.
    """
    h.require_closed()
    check_reductive(group, h)
    stable = all(h.contains(theta.apply(v)) for v in h.basis)
    if not stable:
        return AdaptednessReport(False, False, False, None)
    # the (-1)-eigenspace of theta on h is the kernel of theta + 1, whose
    # column j is theta b_j + b_j in h coordinates
    cols = []
    for j, v in enumerate(h.basis):
        c = h.coords(theta.apply(v))
        ensure(c is not None, "theta does not preserve h")
        c[j] += 1
        cols.append(sparse(c))
    anti = _subspace_in_h(h, nullspace(cols))
    abelian_h = not any(group.sparse_bracket(x, y) for i, x in enumerate(h.rows) for y in h.rows[i + 1 :])
    if abelian_h:
        # h is its own Cartan; theta must negate all of it
        ok = len(anti) == h.dim
        return AdaptednessReport(True, ok, ok, h.basis if ok else None)
    if not anti:
        return AdaptednessReport(True, False, False, None)
    for coeffs in _small_tuples(len(anti)):
        z = combine([fr(c) for c in coeffs], anti, (group.dim,))
        if not _is_semisimple_element(group, z):
            continue
        cent = _centralizer_in_h(group, h, z)
        if any(
            not is_zero(group.bracket(x, y))
            for i, x in enumerate(cent)
            for y in cent[i + 1 :]
        ):
            continue
        anti_span = Subalgebra(group, anti)
        if all(anti_span.contains(v) for v in cent):
            return AdaptednessReport(True, True, True, cent)
    return AdaptednessReport(True, False, False, None)


# ---- antilinear maps and the intertwiner solve --------------------------------


@dataclass
class AntilinearMap:
    """v -> M conj(v) with M split into exact rational real/imaginary parts."""

    re: np.ndarray
    im: np.ndarray

    @property
    def dim(self) -> int:
        return self.re.shape[0]

    def matrix_complex(self) -> np.ndarray:
        return np.array(
            [[float(self.re[i, j]) + 1j * float(self.im[i, j]) for j in range(self.dim)] for i in range(self.dim)]
        )

    def apply_float(self, v: np.ndarray) -> np.ndarray:
        return self.matrix_complex() @ np.conj(v)

    def compose(self, other: "AntilinearMap") -> tuple[np.ndarray, np.ndarray]:
        """The linear map (self . other); returns exact (re, im) parts of
        A conj(B) for self = A conj, other = B conj."""
        re = matmul(self.re, other.re) + matmul(self.im, other.im)
        im = matmul(self.im, other.re) - matmul(self.re, other.im)
        return re, im

    def is_involutive(self) -> bool:
        re, im = self.compose(self)
        n = self.dim
        return is_zero(re - eye(n)) and is_zero(im - zeros(n, n))

    def negate(self) -> "AntilinearMap":
        return AntilinearMap(-self.re, -self.im)


class HModule:
    """A module over a subalgebra h, given by exact matrices on h's basis."""

    def __init__(self, group: Group, h: Subalgebra, mats: list[np.ndarray], descriptor: tuple):
        self.group = group
        self.h = h
        self.mats = mats
        self.descriptor = descriptor
        self.dim = mats[0].shape[0] if mats else 1
        if len(mats) != h.dim or any(m.shape != (self.dim, self.dim) for m in mats):
            raise DegenerateInputError(
                "fiber needs one square matrix of a common size per basis vector of h"
            )
        # bracket compatibility: rho[x,y] = [rho x, rho y] on the basis
        for i, x in enumerate(h.basis):
            for j in range(i + 1, h.dim):
                c = h.coords(group.bracket(x, h.basis[j]))
                if c is None:
                    raise NotSubalgebraError("fiber module over a non-closed span")
                lhs = self.action_coords(c)
                rhs = matmul(mats[i], mats[j]) - matmul(mats[j], mats[i])
                if not is_zero(lhs - rhs):
                    raise DegenerateInputError("fiber matrices do not represent h")

    def action_coords(self, coords: np.ndarray) -> np.ndarray:
        return combine(coords, self.mats, (self.dim, self.dim))

    def action_of(self, vec: np.ndarray) -> np.ndarray:
        c = self.h.coords(vec)
        if c is None:
            raise DegenerateInputError("vector lies outside the acting subalgebra")
        return self.action_coords(c)


def fiber_trivial(group: Group, h: Subalgebra) -> HModule:
    return HModule(group, h, [zeros(1, 1) for _ in h.basis], ("trivial",))


def fiber_character(group: Group, h: Subalgebra, values) -> HModule:
    """One-dimensional h-module x -> value(x); values align with h.basis
    and must kill every bracket."""
    vals = [fr(v) for v in values]
    if len(vals) != h.dim:
        raise DegenerateInputError("need one character value per basis vector")
    return HModule(group, h, [fmat([[v]]) for v in vals], ("character", tuple(values)))


def fiber_restriction(group: Group, h: Subalgebra, label) -> HModule:
    """A module of the ambient algebra viewed as an h-module."""
    label = check_label(group, label)
    mod = build_module(group, label)
    mats = [mod.action(x) for x in h.basis]
    return HModule(group, h, mats, ("restriction", label))


def check_nu_size(n: int, h_dim: int) -> None:
    """Refuse the intertwiner system of an n-dimensional fiber over an
    h of dimension h_dim if it exceeds MAX_NU_ENTRIES; both sizes are known
    before the fiber is built."""
    if n**4 * h_dim > MAX_NU_ENTRIES:
        raise DegenerateInputError(
            f"intertwiner system of {n * n} unknowns and {n * n * h_dim} rows "
            f"exceeds {MAX_NU_ENTRIES} entries"
        )


def _nu_kernel(module: HModule, theta: InvolutionSpec) -> list[np.ndarray]:
    """Rational basis of {A : A rho(x) = rho(sigma x) A for all x in h}.

    The equivariance is over the compact form of h: an antilinear nu
    relates rho(x) to rho(dsigma(x)) where sigma = tau . theta, and on the
    rational basis that composition is what multiplies the matrices below.
    Since the module matrices are rational, the realified solution space is
    exactly two copies (real and imaginary part) of this kernel.
    """
    g = module.group
    h = module.h
    n = module.dim
    check_nu_size(n, h.dim)
    # Compose tau.theta directly: the equivariance equation makes sense for
    # any linear theta, and a non-automorphism should surface as an empty
    # kernel (no intertwiner), not as a malformed-sigma error.
    sigma_matrix = matmul(build_cartan_conjugation(g).matrix, theta.matrix)
    terms = []  # per basis vector x of h: the sparse rows of rho and columns of rho_s
    for x in h.basis:
        c = h.coords(matmul(sigma_matrix, x))
        if c is None:
            raise DegenerateInputError("sigma does not stabilize the subalgebra")
        terms.append(([sparse(r) for r in module.action_of(x)], [sparse(r) for r in module.action_coords(c).T]))
    # column a*n + b is E_ab -> E_ab rho - rho_s E_ab at (k, row, col) for the
    # k-th x: row a of E_ab rho is row b of rho, column b of rho_s E_ab is
    # column a of rho_s
    cols = []
    for a in range(n):
        for b in range(n):
            col: dict = {}
            for k, (rho_rows, rho_s_cols) in enumerate(terms):
                for j, x in rho_rows[b].items():
                    col[(k, a, j)] = x
                for i, x in rho_s_cols[a].items():
                    col[(k, i, b)] = col.get((k, i, b), 0) - x
            cols.append({p: x for p, x in col.items() if x})
    return [v.reshape(n, n).copy() for v in nullspace(cols)]


def nu_solution_space_dim(module: HModule, theta: InvolutionSpec) -> int:
    """Realified dimension of the equivariance solution space."""
    return 2 * len(_nu_kernel(module, theta))


def _rational_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    pn, pd = isqrt(x.numerator), isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def solve_nu(module: HModule, theta: InvolutionSpec) -> AntilinearMap:
    """The antilinear intertwiner nu with nu rho(x) = rho(dsigma x) nu.

    Normalized so that nu squares to the identity and the first nonzero
    matrix entry is positive real.  A strictly negative square that no
    phase can repair is the quaternionic obstruction and is reported as
    such rather than silently rescaled.
    """
    kernel = _nu_kernel(module, theta)
    if not kernel:
        raise NoIntertwinerError(
            "no antilinear intertwiner exists; the involution is not "
            "implementable on this module"
        )
    n = module.dim
    a0 = None
    scale2 = None
    for cand in kernel:
        sq = matmul(cand, cand)  # rational, so conj() is a no-op
        s = sq[0, 0]
        if is_zero(sq - s * eye(n)) and s != 0:
            a0, scale2 = cand, s
            break
    if a0 is None and len(kernel) > 1:
        # reducible case: the identity may live in the kernel span even
        # though no single basis element squares to a scalar
        cols = column_stack([cand.reshape(-1) for cand in kernel])
        if solve(cols, eye(n).reshape(-1)) is not None:
            a0, scale2 = eye(n), fr(1)
    if a0 is None:
        raise DegenerateInputError(
            "no solution with scalar square; cannot normalize an involution"
        )
    if scale2 < 0:
        raise NuSquareObstructionError(
            f"nu squared is {scale2} times the identity; no phase fixes a "
            "negative square (quaternionic type)"
        )
    root = _rational_sqrt(scale2)
    if root is None:
        raise DegenerateInputError(
            f"normalization scale {scale2} is not a rational square"
        )
    a = a0 / root
    flat = a.reshape(-1)
    lead = next(x for x in flat if x != 0)
    if lead < 0:
        a = -a
    nu = AntilinearMap(a, zeros(n, n))
    ensure(nu.is_involutive(), "normalized nu is not an involution")
    return nu


# ---- bundle assembly ----------------------------------------------------------


@dataclass
class BundleCertificate:
    """Exact data for the antiholomorphic involution of G x_H V.

    checks record the three certificate conditions: sigma is an involution,
    sigma factors as commuting tau and theta, and nu intertwines the fiber
    action with its sigma-twist over every basis vector of h.
    """

    group: Group
    h: Subalgebra
    fiber: HModule
    theta: InvolutionSpec
    sigma: InvolutionSpec
    nu: AntilinearMap
    adapted: AdaptednessReport
    checks: dict = field(default_factory=dict)

    def verify(self) -> dict:
        g = self.group
        tau = build_cartan_conjugation(g)
        sq_ok = self.sigma.squares_to_identity()
        prod = matmul(tau.matrix, self.theta.matrix)
        comm_ok = is_zero(prod - matmul(self.theta.matrix, tau.matrix)) and is_zero(
            self.sigma.matrix - prod
        )
        equi_ok = True
        for x in self.h.basis:
            rho = self.fiber.action_of(x)
            rho_s = self.fiber.action_of(self.sigma.apply(x))
            # complex A = re + i im against rational rho: both parts intertwine
            if not is_zero(matmul(self.nu.re, rho) - matmul(rho_s, self.nu.re)):
                equi_ok = False
            if not is_zero(matmul(self.nu.im, rho) - matmul(rho_s, self.nu.im)):
                equi_ok = False
        return {
            "sigma_squares_to_identity": sq_ok,
            "sigma_is_commuting_product": comm_ok,
            "nu_equivariant_over_h": equi_ok,
        }

    def as_dict(self) -> dict:
        return {
            "group": self.group.name,
            "subalgebra_dim": self.h.dim,
            "fiber": list(self.fiber.descriptor),
            "fiber_dim": self.fiber.dim,
            "adapted": self.adapted.as_dict(),
            "nu_matrix": [
                [
                    str(self.nu.re[i, j])
                    if self.nu.im[i, j] == 0
                    else f"{self.nu.re[i, j]}+{self.nu.im[i, j]}i"
                    for j in range(self.nu.dim)
                ]
                for i in range(self.nu.dim)
            ],
            "checks": dict(self.checks),
        }


def assemble_bundle_involution(
    group: Group,
    h: Subalgebra,
    fiber: HModule,
    theta: InvolutionSpec | None = None,
) -> BundleCertificate:
    """Assemble and exactly verify (sigma, nu) for the bundle G x_H V."""
    theta = theta if theta is not None else build_weyl_involution(group)
    report = is_adapted(group, h, theta)
    if not report.verdict:
        raise NotAdaptedError(
            "subalgebra is not adapted: "
            f"theta_stable={report.theta_stable}, "
            f"restriction_is_weyl={report.restriction_is_weyl}"
        )
    sigma = build_sigma(group, theta)
    nu = solve_nu(fiber, theta)
    cert = BundleCertificate(group, h, fiber, theta, sigma, nu, report)
    cert.checks = cert.verify()
    if not all(cert.checks.values()):
        raise DegenerateInputError(f"certificate checks failed: {cert.checks}")
    return cert


# ---- Phi functions and orbit preservation -------------------------------------


class Phi:
    """Sum of |f_j|^2 over an orthonormal family; invariant under the
    compact group and, for correctly assembled bundles, under mu."""

    def __init__(self, functions, evaluator, name: str):
        self.functions = functions
        self.evaluator = evaluator
        self.name = name

    def eval(self, sample) -> float:
        total = 0.0
        for f in self.functions:
            val = 0j
            for key, coeff in f.items():
                val += coeff * self.evaluator(key, sample)
            total += abs(val) ** 2
        return total


def build_phi(functions, norm2, evaluator, name: str = "phi") -> Phi:
    """Gram-verify an orthonormal family (to 1e-10) and wrap it as a Phi
    evaluator.

    Functions are dicts over mutually orthogonal basis keys; norm2 gives
    each key's squared norm under the invariant inner product.
    """
    n = len(functions)
    gram = np.zeros((n, n), dtype=complex)
    for r in range(n):
        for s in range(n):
            acc = 0j
            for key, c in functions[r].items():
                if key in functions[s]:
                    acc += c * np.conj(functions[s][key]) * norm2(key)
            gram[r, s] = acc
    if np.max(np.abs(gram - np.eye(n))) > 1e-10:
        raise NotOrthonormalError(
            f"family is not orthonormal; max Gram defect "
            f"{np.max(np.abs(gram - np.eye(n))):.3e}"
        )
    return Phi(functions, evaluator, name)


@dataclass
class BundleModel:
    """A shipped analytic model of G x_H V with its Phi family."""

    name: str
    certificate: BundleCertificate
    phis: list[Phi]
    sampler: object  # rng -> sample
    mu: object  # (sample, nu) -> sample

    def apply_mu(self, sample, nu: AntilinearMap | None = None):
        return self.mu(sample, nu if nu is not None else self.certificate.nu)


def _rand_rational(rng, lo=-3, hi=3) -> float:
    num = rng.randint(lo, hi)
    den = rng.randint(1, 3)
    return num / den


def _rand_complex(rng) -> complex:
    return complex(_rand_rational(rng), _rand_rational(rng))


def _rand_sl2(rng) -> np.ndarray:
    """A generic determinant-one matrix from the big cell."""
    b = _rand_complex(rng)
    c = _rand_complex(rng)
    s = 0
    while s == 0:
        s = _rand_rational(rng)
    upper = np.array([[1, b], [0, 1]], dtype=complex)
    diag = np.array([[s, 0], [0, 1 / s]], dtype=complex)
    lower = np.array([[1, 0], [c, 1]], dtype=complex)
    return upper @ diag @ lower


def bundle_cartan_weight2() -> BundleModel:
    """G = SL2, H = torus, fiber = the weight-2 character line.

    Functions on the model are matrix coefficients in the unitarized
    symmetric-power bases times fiber powers, with the column weight
    matched to the character so each function descends to the quotient.
    The family includes one function mixing two isotypic columns: the
    coordinate ring here is not multiplicity-free, and that diagonal
    member is exactly what catches a corrupted fiber involution.
    """
    g = parse_group("A1")
    h = standard_subalgebra(g, "cartan")
    fiber = fiber_character(g, h, [2])
    cert = assemble_bundle_involution(g, h, fiber)

    def evaluator(key, sample):
        d, i, j, k = key
        gm, v = sample
        return sym_rep_matrix(gm, d)[i, j] * v**k

    def column_for(d: int, k: int) -> int:
        # basis vector index j has torus weight 2j - d; the fiber power k
        # needs column weight 2k
        j = (2 * k + d) // 2
        ensure(2 * j - d == 2 * k, "no column of this weight")
        return j

    def product_family(d: int, k: int) -> Phi:
        j = column_for(d, k)
        funcs = [{(d, i, j, k): sqrt(d + 1)} for i in range(d + 1)]
        return build_phi(funcs, lambda key: 1.0 / (key[0] + 1), evaluator, f"phi_{d}_{k}")

    def diagonal_family() -> Phi:
        # spans the same left-K-type with both admissible columns at d = 2
        j0, j1 = column_for(2, 0), column_for(2, 1)
        funcs = [
            {(2, i, j0, 0): sqrt(3.0 / 2.0), (2, i, j1, 1): sqrt(3.0 / 2.0)}
            for i in range(3)
        ]
        return build_phi(funcs, lambda key: _mixed_norm2(key), evaluator, "phi_diag")

    def _mixed_norm2(key):
        d, i, j, k = key
        return 1.0 / (d + 1)  # the fiber factor has modulus one on the model

    phis = [
        product_family(0, 0),
        product_family(2, 0),
        product_family(2, 1),
        product_family(4, 1),
        product_family(4, 2),
        diagonal_family(),
    ]

    def sampler(rng):
        v = _rand_complex(rng)
        return (_rand_sl2(rng), v)

    def mu(sample, nu: AntilinearMap):
        gm, v = sample
        c = complex(float(nu.re[0, 0]), float(nu.im[0, 0]))
        return (np.conj(gm), c * np.conj(v))

    return BundleModel("A1 cartan, weight-2 line", cert, phis, sampler, mu)


def bundle_full_defining() -> BundleModel:
    """G = H = SL2 with the defining fiber: the bundle is the module itself."""
    g = parse_group("A1")
    h = standard_subalgebra(g, "full")
    fiber = fiber_restriction(g, h, (1,))
    cert = assemble_bundle_involution(g, h, fiber)

    def evaluator(key, sample):
        a, b = key
        return sample[0] ** a * sample[1] ** b

    def degree_family(d: int) -> Phi:
        funcs = [
            {(d - j, j): 1.0 / sqrt(factorial(d - j) * factorial(j))}
            for j in range(d + 1)
        ]
        return build_phi(
            funcs,
            lambda key: float(factorial(key[0]) * factorial(key[1])),
            evaluator,
            f"phi_{d}",
        )

    phis = [degree_family(d) for d in range(5)]

    def sampler(rng):
        return np.array([_rand_complex(rng), _rand_complex(rng)])

    def mu(sample, nu: AntilinearMap):
        return nu.matrix_complex() @ np.conj(sample)

    return BundleModel("A1 full, defining fiber", cert, phis, sampler, mu)


def bundle_diagonal_trivial() -> BundleModel:
    """G = SL2 x SL2, H = diagonal, trivial fiber: the group manifold."""
    g = parse_group("A1xA1")
    h = standard_subalgebra(g, "diagonal")
    fiber = fiber_trivial(g, h)
    cert = assemble_bundle_involution(g, h, fiber)

    def evaluator(key, sample):
        d, i, j = key
        g1, g2 = sample
        det = g2[0, 0] * g2[1, 1] - g2[0, 1] * g2[1, 0]
        inv2 = np.array([[g2[1, 1], -g2[0, 1]], [-g2[1, 0], g2[0, 0]]]) / det
        return sym_rep_matrix(g1 @ inv2, d)[i, j]

    def degree_family(d: int) -> Phi:
        funcs = [
            {(d, i, j): sqrt(d + 1)} for i in range(d + 1) for j in range(d + 1)
        ]
        return build_phi(funcs, lambda key: 1.0 / (key[0] + 1), evaluator, f"phi_{d}")

    phis = [degree_family(d) for d in range(5)]

    def sampler(rng):
        return (_rand_sl2(rng), _rand_sl2(rng))

    def mu(sample, nu: AntilinearMap):
        g1, g2 = sample
        return (np.conj(g1), np.conj(g2))

    return BundleModel("A1xA1 diagonal, trivial fiber", cert, phis, sampler, mu)


SHIPPED_BUNDLES = {
    "cartan_weight2": bundle_cartan_weight2,
    "full_defining": bundle_full_defining,
    "diagonal_trivial": bundle_diagonal_trivial,
}


def orbit_preservation_check(
    bundle: BundleModel,
    samples=None,
    n_samples: int = 20,
    seed: int = 0,
    nu: AntilinearMap | None = None,
) -> dict:
    """Max |Phi(mu(x)) - Phi(x)| over samples and the Phi family.

    Report-only: the caller decides what to do with a residual above the
    1e-8 tolerance (the sign-flipped negative control relies on that)."""
    import random as _random

    if samples is None:
        rng = _random.Random(seed)
        samples = [bundle.sampler(rng) for _ in range(n_samples)]
    worst = 0.0
    per_phi = {}
    for phi in bundle.phis:
        m = 0.0
        for x in samples:
            mx = bundle.apply_mu(x, nu)
            m = max(m, abs(phi.eval(mx) - phi.eval(x)))
        per_phi[phi.name] = m
        worst = max(worst, m)
    return {
        "max_residual": worst,
        "per_function": per_phi,
        "n_samples": len(samples),
        "n_functions": len(bundle.phis),
        "tolerance": 1e-8,
        "within_tolerance": worst <= 1e-8,
    }
