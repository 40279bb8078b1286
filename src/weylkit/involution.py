"""Weyl involutions, adapted subalgebras, and antiholomorphic bundle data.

Everything at the Lie-algebra level is exact, so every certificate in this
module re-verifies to literal zero residuals.  Every matrix is a ``linalg``
column table (each column's nonzero (row, entry) pairs) and every vector a
sparse {position: entry} dict: theta, tau and sigma = tau theta are tables
on the Chevalley basis, the Chevalley theta a signed permutation, and one
table product (``linalg.product``) checks their squares and commutation.
A fiber is one table per basis vector of h, and the fiber checks, the
intertwiner system and the certificate's equivariance check all read the
pairs (rho(x), rho(sigma x)) of those tables.  The intertwiner nu is one
rational table: every fiber is rational, so its antilinear solutions are
two real copies of a rational kernel.  Floating point enters only through
the Phi-function orbit checks, which live on the analytic model and carry
explicit tolerances; ``AntilinearMap.matrix_complex`` makes the one complex
array they read of nu.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, isqrt, sqrt

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
from .linalg import Table, commutator, eliminate, entries, fr, fr_input, identity, image, nullspace, product, table_sum
from .repthy import build_module, check_label
from .rootsys import Group, Subalgebra, parse_group, standard_subalgebra
from .sympoly import check_reductive, is_nondegenerate

# _nu_kernel reads the kernel of K sparse columns, one per entry of nu that
# its weight test keeps (all n^2 if h has no Cartan row), K^2 dim h entries
# if written densely.  On a 2-vCPU x86 host (Python 3.11) a fiber is built and
# assembled in-process in 0.03 s for G2 cartan w[1,1] (K = 172 of 4,096; 0.8 s
# on all of them), 0.3 s for G2+T1 full w[1,1,-2] (443,760 entries) and
# 1.3-1.9 s for the principal A2+T1 w[3,3,1] and A1xA1xA1 w[1,4,5] (about
# 500,000); a cold CLI call on a 64-dimensional fiber over cartan takes 0.2 s.
# A larger system, such as a fiber of dimension 28 or more over A1's zero or
# e + f, is refused by check_nu_size once h is decided, before any column.
MAX_NU_ENTRIES = 600_000


# ---- involution specs --------------------------------------------------------


@dataclass
class InvolutionSpec:
    """An exact involution of the Lie algebra on the Chevalley basis, held
    as the column table of its matrix.

    kind "weyl_theta" is a linear automorphism; "cartan_tau" is the
    conjugation of the compact real form, an antilinear map whose rational
    matrix happens to coincide with the Chevalley involution; their product
    "sigma_product" is again antilinear and fixes the split form.
    """

    kind: str
    group: Group
    table: Table
    antilinear: bool

    def apply(self, v: dict) -> dict:
        """The image of the sparse vector v, zero entries dropped."""
        return image(self.table, v)

    def squares_to_identity(self) -> bool:
        # For an antilinear map with rational matrix M the square is the
        # linear map M conj(M) = M M, the same formula as the linear case.
        return product(self.table, self.table) == identity(self.group.dim)

    def is_automorphism(self) -> bool:
        """theta[b_i, b_j] = [theta b_i, theta b_j] for i < j, on the sparse
        columns theta b_i."""
        g = self.group
        cols = [dict(c) for c in self.table]
        return all(
            self.apply(g.sparse_bracket({i: 1}, {j: 1})) == g.sparse_bracket(cols[i], cols[j])
            for i, j in itertools.combinations(range(g.dim), 2)
        )


def _chevalley_table(group: Group) -> Table:
    """The signed permutation -1 on each h_i and t_j, e_c -> -f_c, f_c -> -e_c, on ints."""
    swap = {"h": "h", "t": "t", "e": "f", "f": "e"}
    return [[(group._index[(swap[kind], tag)], -1)] for kind, tag in group.basis_labels]


def build_weyl_involution(group: Group) -> InvolutionSpec:
    """The Chevalley involution e -> -f, f -> -e, -id on the Cartan span.

    This is the infinitesimal form of a Weyl involution: it inverts the
    maximal torus and is verified here to preserve every basis bracket.
    """
    spec = InvolutionSpec("weyl_theta", group, _chevalley_table(group), False)
    ensure(spec.squares_to_identity(), "Chevalley involution does not square to the identity")
    ensure(spec.is_automorphism(), "Chevalley involution failed bracket check")
    return spec


def build_cartan_conjugation(group: Group) -> InvolutionSpec:
    """Conjugation with respect to the compact real form.

    Antilinear; on the rational Chevalley basis its matrix is the same as
    the Chevalley involution (the compact form is spanned by h_i over iR
    and e-f, i(e+f)).
    """
    return InvolutionSpec("cartan_tau", group, _chevalley_table(group), True)


def build_sigma(group: Group, theta: InvolutionSpec | None = None) -> InvolutionSpec:
    """The antiholomorphic sigma = tau . theta fixing a split real form."""
    theta = theta if theta is not None else build_weyl_involution(group)
    tau = build_cartan_conjugation(group)
    prod = product(tau.table, theta.table)
    if prod != product(theta.table, tau.table):
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
    diagnostics: list[dict] | None = None  # sparse basis of the Cartan of h used, if found

    def as_dict(self) -> dict:
        return {
            "theta_stable": self.theta_stable,
            "restriction_is_weyl": self.restriction_is_weyl,
            "verdict": self.verdict,
            "cartan_found": self.diagnostics is not None,
        }


def _is_semisimple_element(group: Group, z: dict) -> bool:
    """Exact test: the invariant form is nondegenerate on the centralizer
    z_g(z), the kernel of ad z, for a sparse z (Humphreys, Introduction to
    Lie Algebras and Representation Theory, secs. 8.2 and 15.1).  If z = s
    + n with n != 0 nilpotent, n lies in z_g(z) and ad n ad y is nilpotent
    for every y there, so n is in the form's radical; if z is semisimple, g
    = z_g(z) + [z, g] is an orthogonal sum.  A nilpotent n has no central
    torus coordinate, so the torus extension of the form changes neither."""
    return is_nondegenerate(group, nullspace([dict(col) for col in group._ad_sparse(z)]))


def _centralizer_in_h(group: Group, h: Subalgebra, z: dict) -> list[dict]:
    return h.from_coords(nullspace([group.sparse_bracket(z, b) for b in h.rows]))


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
    a z whose centralizer in h is abelian and still inside the
    (-1)-eigenspace, and which is semisimple (the invariant form is
    nondegenerate on its centralizer in g, a kernel over all of g, so
    tested last), exhibits such a Cartan, returned as ``diagnostics``.
    """
    h.require_closed()
    check_reductive(group, h)
    # the (-1)-eigenspace of theta on h is the kernel of theta + 1, whose
    # column j is theta b_j + b_j in h coordinates; theta b_j must lie in h
    cols = []
    for j, v in enumerate(h.rows):
        rem, coords, _ = eliminate(theta.apply(v), h.rows, h.pivots)
        if rem:
            return AdaptednessReport(False, False, False, None)
        coords[j] = coords.get(j, 0) + 1
        cols.append({k: x for k, x in coords.items() if x})
    anti = h.from_coords(nullspace(cols))
    abelian_h = not any(group.sparse_bracket(x, y) for i, x in enumerate(h.rows) for y in h.rows[i + 1 :])
    if abelian_h:
        # h is its own Cartan; theta must negate all of it
        ok = len(anti) == h.dim
        return AdaptednessReport(True, ok, ok, h.rows if ok else None)
    if not anti:
        return AdaptednessReport(True, False, False, None)
    anti_span, anti_basis = Subalgebra(group, anti), [v.items() for v in anti]
    for coeffs in _small_tuples(len(anti)):
        z = image(anti_basis, dict(enumerate(coeffs)))
        cent = _centralizer_in_h(group, h, z)
        if any(group.sparse_bracket(x, y) for i, x in enumerate(cent) for y in cent[i + 1 :]):
            continue
        if all(anti_span.contains(v) for v in cent) and _is_semisimple_element(group, z):
            return AdaptednessReport(True, True, True, cent)
    return AdaptednessReport(True, False, False, None)


# ---- antilinear maps and the intertwiner solve --------------------------------


@dataclass
class AntilinearMap:
    """v -> M conj(v) for an exact rational matrix M, held as its column
    table.

    Every fiber here is rational, so the intertwiner solve looks for M among
    rational matrices."""

    table: Table

    @property
    def dim(self) -> int:
        return len(self.table)

    def matrix_complex(self) -> np.ndarray:
        """M as the complex array that the analytic mu maps read."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for p, x in entries(self.table).items():
            out[p] = float(x)
        return out

    def is_involutive(self) -> bool:
        """(M conj)^2 = M conj(M) = M M for rational M."""
        return product(self.table, self.table) == identity(self.dim)

    def negate(self) -> "AntilinearMap":
        return AntilinearMap([[(r, -x) for r, x in col] for col in self.table])


class HModule:
    """A module over a subalgebra h, of the caller's dimension dim: tables[i]
    is the linalg column table of the matrix of h.basis[i], rows ascending
    and zero entries dropped, so equal matrices have equal tables.  The
    bracket check compares, for each pair of basis vectors, the commutator
    of their tables with the table of their bracket's coordinates over h."""

    def __init__(self, group: Group, h: Subalgebra, tables: list[Table], descriptor: tuple, dim: int):
        self.group = group
        self.h = h
        self.tables = tables
        self.descriptor = descriptor
        self.dim = dim
        if len(tables) != h.dim or any(len(t) != dim for t in tables):
            raise DegenerateInputError(
                "fiber needs one square matrix of a common size per basis vector of h"
            )
        # bracket compatibility: rho[x,y] = [rho x, rho y] on the basis
        for i, x in enumerate(h.rows):
            for j in range(i + 1, h.dim):
                rem, coords, _ = eliminate(group.sparse_bracket(x, h.rows[j]), h.rows, h.pivots)
                if rem:
                    raise NotSubalgebraError("fiber module over a non-closed span")
                rho_xy = table_sum(((c, tables[k]) for k, c in coords.items()), dim)
                if rho_xy != commutator(tables[i], tables[j], 1):
                    raise DegenerateInputError("fiber matrices do not represent h")


def fiber_trivial(group: Group, h: Subalgebra) -> HModule:
    return HModule(group, h, [[[]] for _ in h.rows], ("trivial",), 1)


def fiber_character(group: Group, h: Subalgebra, values) -> HModule:
    """One-dimensional h-module x -> value(x); values align with h.basis
    and must kill every bracket."""
    vals = [fr(v) for v in values]
    if len(vals) != h.dim:
        raise DegenerateInputError("need one character value per basis vector")
    return HModule(group, h, [[[(0, v)] if v else []] for v in vals], ("character", tuple(values)), 1)


def fiber_restriction(group: Group, h: Subalgebra, label) -> HModule:
    """A module of the ambient algebra viewed as an h-module: the table of
    each basis vector of h combines the module's tables by its entries."""
    label = check_label(group, label)
    mod = build_module(group, label)
    tables = [table_sum(((c, mod.columns[p]) for p, c in row.items()), mod.dim) for row in h.rows]
    return HModule(group, h, tables, ("restriction", label), mod.dim)


def read_fiber(desc, error: type[Exception]) -> tuple:
    """The one reader of a fiber from outside the program, before h is
    known: ["trivial"], ["character", exact literals (``linalg.fr_input``)]
    or ["restriction", integer label], as (kind, values) for ``build_fiber``;
    anything else raises error.  A label past the cap is left to the build."""
    kind, *rest = desc if isinstance(desc, list) and desc else [None]
    if kind == "trivial" and not rest:
        return ("trivial",)
    if kind in ("character", "restriction") and len(rest) == 1 and isinstance(rest[0], list):
        if kind == "character":
            return kind, tuple(fr_input(x, error) for x in rest[0])
        if all(isinstance(x, int) and not isinstance(x, bool) for x in rest[0]):
            return kind, tuple(rest[0])
    raise error(f'fiber {repr(desc)[:40]} is not ["trivial"], ["character", [values]] or ["restriction", [integer label]]')


def build_fiber(group: Group, h: Subalgebra, kind: str, values: tuple = ()) -> HModule:
    """The h-module that ``read_fiber``'s kind and values name."""
    if kind == "trivial":
        return fiber_trivial(group, h)
    return (fiber_character if kind == "character" else fiber_restriction)(group, h, values)


def check_nu_size(unknowns: int, h_dim: int) -> None:
    """Refuse an intertwiner system whose dense size, unknowns^2 max(h_dim,
    1) entries, exceeds MAX_NU_ENTRIES (over h = 0 the kernel is the
    unknowns' own unit vectors)."""
    if unknowns**2 * max(h_dim, 1) > MAX_NU_ENTRIES:
        if h_dim == 0:
            raise DegenerateInputError(
                f"intertwiner kernel over the zero subalgebra of {unknowns} vectors "
                f"of {unknowns} entries each exceeds {MAX_NU_ENTRIES} entries"
            )
        raise DegenerateInputError(
            f"intertwiner system of {unknowns} unknowns and {unknowns * h_dim} rows "
            f"exceeds {MAX_NU_ENTRIES} entries"
        )


def _twisted_actions(module: HModule, sigma: Table) -> list[tuple[Table, Table]]:
    """(rho(x), rho(sigma x)) as column tables, for each basis vector x of h."""
    h = module.h
    out = []
    for x, rho in zip(h.rows, module.tables):
        rem, coords, _ = eliminate(image(sigma, x), h.rows, h.pivots)
        if rem:
            raise DegenerateInputError("sigma does not stabilize the subalgebra")
        out.append((rho, table_sum(((c, module.tables[k]) for k, c in coords.items()), module.dim)))
    return out


def _sigma_table(group: Group, theta: InvolutionSpec) -> Table:
    # Compose tau.theta directly: the equivariance equation makes sense for
    # any linear theta, and a non-automorphism should surface as an empty
    # kernel (no intertwiner), not as a malformed-sigma error.
    return product(build_cartan_conjugation(group).table, theta.table)


def _diagonal_of(t: Table) -> list | None:
    """The diagonal of the table t if t is diagonal, else None."""
    diagonal = all(r == j for j, col in enumerate(t) for r, _ in col)
    return [col[0][1] if col else 0 for col in t] if diagonal else None


def _nu_kernel(module: HModule, theta: InvolutionSpec) -> list[Table]:
    """Rational basis of {A : A rho(x) = rho(sigma x) A for all x in h}, as
    column tables.

    The equivariance is over the compact form of h: an antilinear nu
    relates rho(x) to rho(dsigma(x)) where sigma = tau . theta, and on the
    rational basis that composition is what multiplies the matrices below.
    Since the module matrices are rational, the realified solution space is
    exactly two copies (real and imaginary part) of this kernel.

    The weight test: for x in h and in the Cartan span (a combination
    ``h.cartan_part`` of the rows, whose pairs of tables combine alike) with
    rho(x) and rho(sigma x) diagonal, the equation at (x, a, b) is
    (rho(x)_bb - rho(sigma x)_aa) A_ab = 0, with no other unknown.  The
    column of an A_ab it forces to zero is a pivot that no other column's
    expression uses, so only the other unknowns enter the system, in
    ascending a n + b, and the kernel basis is the full system's.
    """
    n = module.dim
    pairs = _twisted_actions(module, _sigma_table(module.group, theta))
    diagonals = [
        [_diagonal_of(table_sum(((a, pairs[k][side]) for k, a in v.items()), n)) for side in (0, 1)]
        for v in module.h.cartan_part
    ]
    tests = [(d, d_s) for d, d_s in diagonals if d is not None and d_s is not None]
    keep = [(a, b) for a in range(n) for b in range(n) if all(d[b] == d_s[a] for d, d_s in tests)]
    check_nu_size(len(keep), module.h.dim)
    # column (a, b) is E_ab -> E_ab rho - rho_s E_ab at (k, row, col) for the
    # k-th x: row a of E_ab rho is row b of rho, column b of rho_s E_ab is
    # column a of rho_s
    rows: list[list[list]] = [[[] for _ in range(n)] for _ in pairs]  # rows[k][b]: row b of rho
    for k, (rho, _) in enumerate(pairs):
        for (b, j), x in entries(rho).items():
            rows[k][b].append((j, x))
    cols = []
    for a, b in keep:
        col = {(k, a, j): x for k in range(len(pairs)) for j, x in rows[k][b]}
        for k, (_, rho_s) in enumerate(pairs):
            for i, x in rho_s[a]:
                col[(k, i, b)] = col.get((k, i, b), 0) - x
        cols.append({p: x for p, x in col.items() if x})
    kernel = []
    for v in nullspace(cols):
        table: Table = [[] for _ in range(n)]
        for u, x in v.items():  # keep ascends in a n + b, so each column's rows do
            a, b = keep[u]
            table[b].append((a, x))
        kernel.append(table)
    return kernel


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


def _scalar_square(a: Table) -> Fraction | None:
    """s if a squares to s I with s nonzero, else None."""
    sq = product(a, a)
    s = dict(sq[0]).get(0)
    return s if s and sq == [[(k, s)] for k in range(len(a))] else None


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
    # the first kernel vector that squares to a scalar; rational, so conj() is a no-op
    a0, scale2 = next(((a, s) for a in kernel if (s := _scalar_square(a)) is not None), (None, None))
    if a0 is None and len(kernel) > 1:
        # reducible case: the identity may live in the kernel span even
        # though no single basis element squares to a scalar.  The kernel is
        # the whole solution space, so it does iff rho(x) = rho(sigma x).
        pairs = _twisted_actions(module, _sigma_table(module.group, theta))
        if all(rho == rho_s for rho, rho_s in pairs):
            a0, scale2 = identity(module.dim), fr(1)
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
    nu = AntilinearMap([[(r, x / root) for r, x in col] for col in a0])
    # the first nonzero entry in row-major order
    if min((r, k, x) for k, col in enumerate(nu.table) for r, x in col)[2] < 0:
        nu = nu.negate()
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
        tau = build_cartan_conjugation(self.group)
        sq_ok = self.sigma.squares_to_identity()
        prod = product(tau.table, self.theta.table)
        comm_ok = prod == product(self.theta.table, tau.table) and self.sigma.table == prod
        nu, pairs = self.nu.table, _twisted_actions(self.fiber, self.sigma.table)
        equi_ok = all(product(nu, rho) == product(rho_s, nu) for rho, rho_s in pairs)
        return {
            "sigma_squares_to_identity": sq_ok,
            "sigma_is_commuting_product": comm_ok,
            "nu_equivariant_over_h": equi_ok,
        }

    def as_dict(self) -> dict:
        nu = entries(self.nu.table)
        return {
            "group": self.group.name,
            "subalgebra_dim": self.h.dim,
            "fiber": list(self.fiber.descriptor),
            "fiber_dim": self.fiber.dim,
            "adapted": self.adapted.as_dict(),
            "nu_matrix": [[str(nu.get((r, k), 0)) for k in range(self.nu.dim)] for r in range(self.nu.dim)],
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
        c = nu.matrix_complex()[0, 0]
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
