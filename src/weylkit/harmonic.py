"""Isotypic projectors for the circle group and SU(2) on polynomial spaces.

The torus path is an exact finite Fourier transform and is held to 1e-12.
The SU(2) path assembles the averaging operators E_delta from an Euler-angle
product quadrature that integrates every matrix coefficient up to the band
limit, so the only error is floating-point roundoff; those checks are held
to 1e-8.  Every node is k = z(phi1) r(theta) z(phi2), so on degree m

    pi_m(k) = diag(e^{i(2a-m) phi1}) d_m(v) diag(e^{i(2b-m) phi2}),

where d_m depends only on v = cos(2 theta).  The sum over the nodes is
separable (Kostelec and Rockmore, J. Fourier Anal. Appl. 14, 2008): the
weighted characters are scattered once onto the grid of distinct
(v, phi1, phi2) values, and each degree costs two phase products over the
distinct angles and one sum over v against d_m(v), so no per-node
representation matrix is formed.  The scalar sym_rep_matrix stays as the
independent check (the commutation test uses it).  Assembly and
accumulation use numpy operations over a fixed node ordering, so repeated
runs produce byte-identical reports.  The phase sums are one (m+1) x n x n
matrix product per (index, v) pair, small enough that BLAS keeps each on
one thread (with scipy-openblas 0.3.31 the operators were bit for bit the
same at one and two threads through band 40, twice the CLI's cap), and the
sum over v is an einsum, which calls no BLAS, so the reports do not depend
on the BLAS thread count; tests/test_cli.py checks one and two threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial, sqrt

import numpy as np

from .errors import BandLimitError, DegenerateInputError

ZERO_THRESHOLD = 1e-8
TORUS_TOLERANCE = 1e-12


# ---- samples -------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionSample:
    """A finite polynomial given by coefficients over a monomial basis.

    domain "torus": Laurent monomials z^e, exponent tuples of length n.
    domain "su2": ordinary monomials x^a y^b on C^2, keys (a, b) >= 0.
    """

    domain: str
    n: int
    coeffs: dict
    flags: tuple = ()

    def norm(self) -> float:
        return sqrt(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def degree(self) -> int:
        """Total degree; -1 on the zero sample by convention."""
        if not self.coeffs:
            return -1
        return max(sum(k) for k in self.coeffs)

    def _same_domain(self, other: "FunctionSample") -> None:
        if (self.domain, self.n) != (other.domain, other.n):
            raise DegenerateInputError("samples live on different domains")

    def __add__(self, other: "FunctionSample") -> "FunctionSample":
        self._same_domain(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return FunctionSample(self.domain, self.n, out)

    def __sub__(self, other: "FunctionSample") -> "FunctionSample":
        self._same_domain(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) - c
        return FunctionSample(self.domain, self.n, out)

    def prune(self) -> "FunctionSample":
        """Drop the coefficients at roundoff level, |c| <= 1e-14."""
        kept = {k: c for k, c in self.coeffs.items() if abs(c) > 1e-14}
        return FunctionSample(self.domain, self.n, kept, self.flags)


def _is_int(e) -> bool:
    """An exponent must be an int; a bool is one to Python but not here."""
    return isinstance(e, int) and not isinstance(e, bool)


def torus_sample(coeffs: dict, n: int | None = None) -> FunctionSample:
    keys = list(coeffs)
    for k in keys:
        if not isinstance(k, tuple):
            raise DegenerateInputError(f"exponent {k!r} is not a tuple")
    if n is None:
        if not keys:
            raise DegenerateInputError("torus rank cannot be inferred from a zero sample")
        n = len(keys[0])
    if n < 1:
        raise DegenerateInputError(f"torus rank must be at least 1, got {n}")
    for k in keys:
        if len(k) != n or not all(map(_is_int, k)):
            raise DegenerateInputError(f"exponent {k} does not fit torus rank {n}")
    return FunctionSample("torus", n, {tuple(k): complex(c) for k, c in coeffs.items()})


def su2_sample(coeffs: dict) -> FunctionSample:
    for k in coeffs:
        if not isinstance(k, tuple) or len(k) != 2 or not all(_is_int(e) and e >= 0 for e in k):
            raise DegenerateInputError(f"monomial exponent {k} is not a pair of naturals")
    return FunctionSample("su2", 2, {tuple(k): complex(c) for k, c in coeffs.items()})


# ---- torus projections -----------------------------------------------------------


def _window(f: FunctionSample) -> tuple[tuple[int, int], ...]:
    return tuple(
        (min(k[i] for k in f.coeffs), max(k[i] for k in f.coeffs))
        for i in range(f.n)
    )


def _torus_coefficient_grid(f: FunctionSample) -> tuple[np.ndarray, tuple[int, ...]]:
    """Recover all windowed coefficients by an inverse FFT of grid values.

    The grid has one more point per axis than the exponent spread, so no two
    exponents in the window alias; the shifted polynomial z^(-lo) f has
    ordinary Fourier indices and ifftn reads them off exactly.
    """
    win = _window(f)
    los = tuple(lo for lo, _ in win)
    sizes = tuple(hi - lo + 1 for lo, hi in win)
    values = np.zeros(sizes, dtype=complex)
    axes_freq = [np.exp(2j * np.pi * np.arange(m) / m) for m in sizes]
    for expo, c in f.coeffs.items():
        term = np.array(c, dtype=complex)
        for ax, m in enumerate(sizes):
            shaped = [1] * f.n
            shaped[ax] = m
            term = term * (axes_freq[ax] ** (expo[ax] - los[ax])).reshape(shaped)
        values = values + term
    # forward transform: values built from e^{+i...} need the e^{-i...} sum
    # to isolate a coefficient, which is fftn, not ifftn
    return np.fft.fftn(values) / np.prod(sizes), los


def project_torus(f: FunctionSample, delta) -> FunctionSample:
    """The single Laurent term of multi-degree delta, via discrete Fourier
    extraction on a grid exceeding the degree window.

    A delta outside the window comes back as the zero sample carrying the
    "outside_degree_window" flag instead of an exception.
    """
    if f.domain != "torus":
        raise DegenerateInputError("torus projection needs a torus sample")
    delta = tuple(delta)
    if len(delta) != f.n:
        raise DegenerateInputError("exponent length does not match the torus rank")
    if not f.coeffs:
        return FunctionSample("torus", f.n, {})
    win = _window(f)
    if any(not lo <= d <= hi for d, (lo, hi) in zip(delta, win)):
        return FunctionSample("torus", f.n, {}, flags=("outside_degree_window",))
    grid, los = _torus_coefficient_grid(f)
    return _torus_term(f.n, delta, grid[tuple(d - lo for d, lo in zip(delta, los))])


def _torus_term(n: int, delta: tuple, c) -> FunctionSample:
    """The one-term sample c z^delta; a roundoff-sized c gives the zero sample."""
    if abs(c) <= 1e-15:
        return FunctionSample("torus", n, {})
    return FunctionSample("torus", n, {delta: complex(c)})


# ---- SU(2) quadrature ------------------------------------------------------------


def sym_rep_matrix(g: np.ndarray, d: int) -> np.ndarray:
    """pi(g) on degree-d polynomials in two variables, unitarized monomial
    basis; pi(g)f = f(g^{-1} x) with the inverse taken by adjugate."""
    a, b = g[0, 0], g[0, 1]
    c, e = g[1, 0], g[1, 1]
    det = a * e - b * c
    inv = np.array([[e, -b], [-c, a]]) / det
    cols = []
    for j in range(d + 1):
        # monomial x^(d-j) y^j pulled back through inv
        p1 = np.zeros(d + 1, dtype=complex)  # (inv00 x + inv01 y)^(d-j)
        for t in range(d - j + 1):
            p1[t] = comb(d - j, t) * inv[0, 0] ** (d - j - t) * inv[0, 1] ** t
        p2 = np.zeros(d + 1, dtype=complex)
        for t in range(j + 1):
            p2[t] = comb(j, t) * inv[1, 0] ** (j - t) * inv[1, 1] ** t
        col = np.convolve(p1[: d - j + 1], p2[: j + 1])
        cols.append(col)
    m = np.stack(cols, axis=1)
    w = np.array([sqrt(factorial(d - i) * factorial(i)) for i in range(d + 1)])
    return m * w[:, None] / w[None, :]


def sym_rep_stack(gs: np.ndarray, d: int) -> np.ndarray:
    """sym_rep_matrix for every element of a (K, 2, 2) stack in one pass:
    (K, d+1, d+1).

    The same formula with the node as the leading axis of every array:
    the entries of each adjugate inverse are raised to the powers 0..d at
    once, and each column's product of two binomial expansions is summed by
    slice-adds over all nodes instead of one np.convolve per node.  The two
    differ only in summation order, so entries agree to a few ulp."""
    det = gs[:, 0, 0] * gs[:, 1, 1] - gs[:, 0, 1] * gs[:, 1, 0]
    inv = np.stack([gs[:, 1, 1], -gs[:, 0, 1], -gs[:, 1, 0], gs[:, 0, 0]]) / det
    # pw[i][:, t] = inv_i ** t, in the order inv00, inv01, inv10, inv11
    pw = inv[:, :, None] ** np.arange(d + 1)
    m = np.zeros((len(gs), d + 1, d + 1), dtype=complex)
    for j in range(d + 1):
        # monomial x^(d-j) y^j pulled back through inv: column j is the
        # product of (inv00 x + inv01 y)^(d-j) and (inv10 x + inv11 y)^j
        n1 = d - j
        binom1 = np.array([comb(n1, t) for t in range(n1 + 1)])
        p1 = binom1 * pw[0][:, n1::-1] * pw[1][:, : n1 + 1]
        for t in range(j + 1):
            p2 = comb(j, t) * pw[2][:, j - t] * pw[3][:, t]
            m[:, t : t + n1 + 1, j] += p2[:, None] * p1
    w = np.array([sqrt(factorial(d - i) * factorial(i)) for i in range(d + 1)])
    # in place: a scaled copy would double the stack's peak memory
    m *= w[:, None]
    m /= w[None, :]
    return m


def _euler_su2(nodes: np.ndarray) -> np.ndarray:
    """(K, 2, 2) elements k = z(phi1) r(theta) z(phi2) for (K, 3) rows
    (phi1, v, phi2) with v = cos(2 theta)."""
    phi1, v, phi2 = nodes.T
    c = np.sqrt((1.0 + v) / 2.0)
    s = np.sqrt((1.0 - v) / 2.0)
    e1, e2 = np.exp(1j * phi1), np.exp(1j * phi2)
    k = np.empty((len(nodes), 2, 2), dtype=complex)
    k[:, 0, 0] = e1 * c * e2
    k[:, 0, 1] = -e1 * s / e2
    k[:, 1, 0] = s * e2 / e1
    k[:, 1, 1] = c / (e1 * e2)
    return k


@dataclass
class QuadratureScheme:
    """Euler-angle product rule on SU(2), exact through the band limit.

    Nodes are (phi1, v, phi2) triples for k = z(phi1) r(theta) z(phi2) with
    v = cos(2 theta): uniform trapezoid in both angles kills every nonzero
    frequency up to the band, and after that averaging the remaining
    integrand is a polynomial in v of degree at most band/2, which the
    Gauss-Legendre factor integrates exactly.
    """

    nodes: np.ndarray  # (K, 3)
    weights: np.ndarray  # (K,), positive, sums to 1
    band: int
    _mats: dict = field(default_factory=dict, repr=False, compare=False)
    _chars: dict = field(default_factory=dict, repr=False, compare=False)
    _ops: dict = field(default_factory=dict, repr=False, compare=False)

    def matrices(self) -> np.ndarray:
        """(K, 2, 2) array of the group elements at the nodes."""
        if "k" not in self._mats:
            self._mats["k"] = _euler_su2(self.nodes)
        return self._mats["k"]

    def character(self, delta: int) -> np.ndarray:
        """chi_delta at every node, by the trace recurrence
        chi_{d+1} = t chi_d - chi_{d-1} with t the matrix trace, continued
        from the highest degree already computed."""
        if delta < 0:
            raise DegenerateInputError("isotypic index must be a nonnegative integer")
        if delta not in self._chars:
            if "trace" not in self._mats:
                self._mats["trace"] = np.real(np.trace(self.matrices(), axis1=1, axis2=2))
            t = self._mats["trace"]
            self._chars.setdefault(0, np.ones_like(t))
            top = max(self._chars)
            prev, cur = self._chars.get(top - 1, np.zeros_like(t)), self._chars[top]
            for d in range(top + 1, delta + 1):
                prev, cur = cur, t * cur - prev
                self._chars[d] = cur
        return self._chars[delta]

    def _angles(self) -> list:
        """(distinct values, index of each node's value) for phi1, v and phi2."""
        if "euler" not in self._mats:
            self._mats["euler"] = [np.unique(x, return_inverse=True) for x in self.nodes.T]
        return self._mats["euler"]

    def _euler_factors(self, m: int) -> tuple:
        """pi_m at a node with distinct-value indices (p, g, q) is
        diag(e1[p]) @ d[g] @ diag(e2[q]).

        e1 and e2 are the (n, m+1) phase diagonals e^{i(2a-m) phi} on the
        distinct values of phi1 and phi2, and d holds d_m(v) for the distinct
        values of v; _angles gives each node's indices."""
        (phi1, _), (vs, _), (phi2, _) = self._angles()
        s = 2 * np.arange(m + 1) - m
        zeros = np.zeros_like(vs)
        d = sym_rep_stack(_euler_su2(np.stack([zeros, vs, zeros], axis=1)), m)
        return np.exp(1j * np.outer(phi1, s)), d, np.exp(1j * np.outer(phi2, s))

    def rep_blocks(self, m: int) -> np.ndarray:
        """(K, m+1, m+1) matrices of the action on homogeneous degree m,
        in the unitarized monomial basis, at every node.

        Each is the product of its Euler factors from _euler_factors, the
        same factorization block_operator contracts; block_operator never
        builds this stack."""
        if m not in self._mats:
            e1, d, e2 = self._euler_factors(m)
            (_, at1), (_, group), (_, at2) = self._angles()
            self._mats[m] = e1[at1][:, :, None] * d[group] * e2[at2][:, None, :]
        return self._mats[m]

    def _grid(self, size: int) -> np.ndarray:
        """C[j, g, p, q] = sum of (j+1) w_k conj(chi_j(k)) over the nodes k at
        the distinct values (v_g, phi1_p, phi2_q), for j < size at least.

        Coincident nodes add up.  Built once, and again only when a larger
        size is asked for."""
        if "grid" not in self._mats or len(self._mats["grid"]) < size:
            (phi1, at1), (vs, group), (phi2, at2) = self._angles()
            wchi = np.stack([
                (j + 1) * self.weights * np.conj(self.character(j)) for j in range(size)
            ])
            # the characters are real, and np.add.at is several times
            # faster on a real array than on a complex one
            grid = np.zeros((size, len(vs), len(phi1), len(phi2)))
            np.add.at(grid, (slice(None), group, at1, at2), wchi)
            self._mats["grid"] = grid.astype(complex)
        return self._mats["grid"]

    def block_operator(self, delta: int, m: int) -> np.ndarray:
        """E_delta restricted to homogeneous degree m.

        The averaging kernel is dim(V_delta) times the conjugated trace
        character; without the dimension factor the operator is only
        1/dim of a projector and idempotence fails.

        E_delta[a, b] = sum_{g,p,q} C[delta, g, p, q] e1[p, a] e2[q, b] d[g, a, b]
        over the character grid of _grid and the Euler factors of
        _euler_factors: for each distinct v the phases are summed over the
        distinct phi1 and phi2 in two small matrix products, and the results
        are summed against d_m(v) over v.  A miss at degree m assembles
        every delta the band resolves (delta <= band - m, or the requested
        delta if larger) in the same products."""
        if delta < 0 or m < 0:
            raise DegenerateInputError("isotypic index and degree must be nonnegative")
        key = (delta, m)
        if key not in self._ops:
            e1, d, e2 = self._euler_factors(m)
            top = max(self.band - m, delta)
            grid = self._grid(max(self.band, delta) + 1)[: top + 1]
            # one (m+1) x n1 x n2 product pair per (j, v), then the sum over v
            ops = np.einsum("jvab,vab->jab", e1.T @ grid @ e2, d)
            for j in range(top + 1):
                self._ops.setdefault((j, m), ops[j])
        return self._ops[key]


def su2_quadrature(band: int) -> QuadratureScheme:
    if band < 0:
        raise DegenerateInputError("band limit must be nonnegative")
    n_ang = band + 1
    angles = 2.0 * np.pi * np.arange(n_ang) / n_ang
    v_nodes, v_weights = np.polynomial.legendre.leggauss(band // 2 + 1)
    phi1, v, phi2 = np.meshgrid(angles, v_nodes, angles, indexing="ij")
    nodes = np.stack([phi1.ravel(), v.ravel(), phi2.ravel()], axis=1)
    w_ang = np.full(n_ang, 1.0 / n_ang)
    weights = (
        w_ang[:, None, None] * (v_weights / 2.0)[None, :, None] * w_ang[None, None, :]
    ).ravel()
    return QuadratureScheme(nodes, weights, band)


# ---- projections on C^2 -----------------------------------------------------------


def _unitary_scales(m: int) -> np.ndarray:
    """sqrt(a! b!) for the monomials x^a y^b of degree m, indexed by b."""
    return np.array([sqrt(factorial(m - b) * factorial(b)) for b in range(m + 1)])


def _unitarized(f: FunctionSample, m: int) -> np.ndarray:
    """Degree-m homogeneous part in the orthonormal basis x^a y^b / sqrt(a! b!)."""
    vec = np.zeros(m + 1, dtype=complex)
    for (a, b), c in f.coeffs.items():
        if a + b == m:
            vec[b] = c
    return vec * _unitary_scales(m)


def _from_unitarized(rows: np.ndarray, m: int) -> list:
    """One coefficient dict over the x^(m-b) y^b per unitarized row."""
    coeffs = rows / _unitary_scales(m)
    return [{(m - b, b): row[b] for b in np.flatnonzero(row).tolist()} for row in coeffs]


def _su2_parts(f: FunctionSample, deltas: range, q: QuadratureScheme) -> list:
    """E_delta f for every delta in deltas, in one pass over the degrees of f.

    Each degree's unitarized vector is built once and every E_delta is
    applied to it in one stacked product.  The band must resolve each
    delta; the first one it cannot is named in the BandLimitError."""
    deg = max(f.degree(), 0)
    for delta in deltas:
        if q.band < 2 * deg or q.band < deg + delta:
            raise BandLimitError(
                f"band limit {q.band} cannot resolve degree {deg} against index {delta}"
            )
    parts: list[dict] = [{} for _ in deltas]
    for m in range(deg + 1):
        vec = _unitarized(f, m)
        if not np.any(vec):
            continue
        res = np.stack([q.block_operator(delta, m) for delta in deltas]) @ vec
        for part, coeffs in zip(parts, _from_unitarized(res, m)):
            # degree m owns the monomials of total degree m
            part.update(coeffs)
    return [FunctionSample("su2", 2, part).prune() for part in parts]


def project_su2(f: FunctionSample, delta: int, q: QuadratureScheme) -> FunctionSample:
    """E_delta f as a weighted quadrature sum of the translates of f.

    Homogeneous degree-m polynomials form an irreducible module, so the
    result is f's degree-delta part up to quadrature roundoff.  The
    pullbacks through each node are exact; only the accumulation floats.
    """
    if f.domain != "su2":
        raise DegenerateInputError("this projector needs a sample on C^2")
    if delta < 0:
        raise DegenerateInputError("isotypic index must be a nonnegative integer")
    return _su2_parts(f, range(delta, delta + 1), q)[0]


# ---- reports ----------------------------------------------------------------------


@dataclass
class IsotypicReport:
    """Finite isotypic series of a polynomial: the components above the
    norm threshold and the residual of summing them back."""

    components: dict
    residual: float
    threshold: float
    tolerance: float

    @property
    def support(self) -> list:
        return sorted(self.components)

    @property
    def within_tolerance(self) -> bool:
        return self.residual <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "support": [str(d) for d in self.support],
            "residual": self.residual,
            "threshold": self.threshold,
            "tolerance": self.tolerance,
            "within_tolerance": self.within_tolerance,
        }


def finite_series_check(
    f: FunctionSample,
    q: QuadratureScheme | None = None,
) -> IsotypicReport:
    """Project onto every candidate component, keep the ones that are
    nonzero (norm above ZERO_THRESHOLD), and confirm the finite sum
    reconstructs f.

    Torus samples use the exact Fourier path (tolerance 1e-12, no
    quadrature needed); samples on C^2 average with the supplied scheme
    (tolerance 1e-8).
    """
    if f.domain == "torus":
        comps = {}
        if f.coeffs:
            # one transform gives every delta of the window; project_torus
            # makes a fresh one per call
            grid, los = _torus_coefficient_grid(f)
            # the cells whose one-term sample has norm above the threshold,
            # in C order; sqrt(|c|^2) is FunctionSample.norm of one term
            kept = np.sqrt(np.abs(grid) ** 2) > ZERO_THRESHOLD
            for ix in zip(*np.nonzero(kept)):
                delta = tuple(int(i) + lo for i, lo in zip(ix, los))
                comps[delta] = _torus_term(f.n, delta, grid[ix])
        recon = FunctionSample("torus", f.n, {})
        for g in comps.values():
            recon = recon + g
        return IsotypicReport(comps, (f - recon).norm(), ZERO_THRESHOLD, TORUS_TOLERANCE)
    if q is None:
        raise DegenerateInputError("projections on C^2 need a quadrature scheme")
    parts = _su2_parts(f, range(max(f.degree(), 0) + 1), q)
    comps = {delta: g for delta, g in enumerate(parts) if g.norm() > ZERO_THRESHOLD}
    recon = FunctionSample("su2", 2, {})
    for g in comps.values():
        recon = recon + g
    return IsotypicReport(comps, (f - recon).norm(), ZERO_THRESHOLD, ZERO_THRESHOLD)


def verify_projector_algebra(q: QuadratureScheme, degree_cap: int, seed: int = 0) -> dict:
    """Assemble every E_delta on polynomials of degree <= cap and measure
    idempotence, mutual orthogonality, commutation with five sampled group
    elements, and self-adjointness in the invariant inner product, each
    against ZERO_THRESHOLD.

    Report-only: residuals are returned as found, so a corrupted scheme
    shows up as a large number rather than an exception.
    """
    if q.band < 2 * degree_cap:
        raise BandLimitError(
            f"band limit {q.band} is below twice the degree cap {degree_cap}"
        )
    rng = np.random.default_rng(seed)
    angles = []
    for _ in range(5):
        phi1, phi2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        angles.append((phi1, rng.uniform(-1.0, 1.0), phi2))
    samples = _euler_su2(np.array(angles).reshape(-1, 3))
    off_diagonal = ~np.eye(degree_cap + 1, dtype=bool)
    idem = orth = comm = selfadj = 0.0
    for m in range(degree_cap + 1):
        # (D, m+1, m+1): E_delta on degree m for every delta <= cap
        e = np.stack([q.block_operator(d, m) for d in range(degree_cap + 1)])
        idem = max(idem, float(np.max(np.abs(e @ e - e))))
        selfadj = max(selfadj, float(np.max(np.abs(e - e.conj().transpose(0, 2, 1)))))
        pairs = e[:, None] @ e[None, :]
        orth = max(orth, float(np.max(np.abs(pairs[off_diagonal]), initial=0.0)))
        rho = np.stack([sym_rep_matrix(k, m) for k in samples])
        comm = max(comm, float(np.max(np.abs(e[:, None] @ rho - rho @ e[:, None]))))
    worst = max(idem, orth, comm, selfadj)
    return {
        "degree_cap": degree_cap,
        "band": q.band,
        "idempotence": idem,
        "orthogonality": orth,
        "commutation": comm,
        "self_adjointness": selfadj,
        "max_residual": worst,
        "tolerance": ZERO_THRESHOLD,
        "within_tolerance": worst <= ZERO_THRESHOLD,
    }
