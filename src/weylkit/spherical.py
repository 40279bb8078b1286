"""Dense Borel-orbit tests and torus-fibration structure for subalgebras.

A pair (g, h) is spherical when a Borel subalgebra has a dense orbit on
G/H, equivalently b + Ad(g)h = g for generic g.  Genericity is handled by
seeded sampling of big-cell elements with exact rational ranks: a full-rank
sample is a replayable certificate, and a failed search is reported as
such, never dressed up as a proof.

Both Borel questions are read off Chevalley coordinates.  The standard
Borel is the coordinate span of the h, t and f basis vectors, so a sample
is tested on the e-rows of Ad(g)h alone; and a subalgebra holding the
Cartan is parabolic iff it meets g_c or g_-c for every positive root c.

A trial is integer arithmetic from start to finish: the structure
constants of the Chevalley basis are integers, the sample's entries and
torus parameters are integers, and scaling a column of Ad(g)h by a
nonzero factor leaves its rank alone.  So h's rows are scaled to int once
per subalgebra, not once per trial, the columns stay sparse int dicts
through both exponentials and the torus, and one SpanBasis counts the rank
of their e-rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import DegenerateInputError
from .linalg import SpanBasis, eliminate, nullspace
from .rootsys import Group, Subalgebra

DEFAULT_TRIALS = 32
# Upper bound on a trial count taken from outside the program.  A span that
# no sample certifies runs every trial; the G2 span {h_0, e_(0,1), e_(1,1),
# f_(1,0), f_(2,1), f_(3,1)} is one.  On a 2-vCPU x86 host it takes 0.02 s
# for 32 trials and 0.08 s for 128 within a process that has built G2's
# tables, about 0.6 ms a trial, and 0.19 s and 0.24 s as one cold
# `weylkit spherical` process each (the import takes 0.15 s; fastest of 9
# runs), so the cap keeps the worst case under a second.
MAX_TRIALS = 128


@dataclass
class SphericalResult:
    status: str  # "spherical" | "not_spherical" | "inconclusive"
    group: str
    subalgebra_dim: int
    borel_dim: int
    certificate: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "group": self.group,
            "subalgebra_dim": self.subalgebra_dim,
            "borel_dim": self.borel_dim,
            "certificate": self.certificate,
        }


def _sample_params(group: Group, rng: random.Random, trial: int) -> dict:
    # The integer box grows with the trial index, so a degenerate early
    # range can never starve the search of generic points.
    hi = 2 + trial // 2
    npos = len(group.posroots)
    torus = [x for x in range(-hi, hi + 1) if x != 0]
    return {
        "e": [rng.randint(-hi, hi) for _ in range(npos)],
        "s": [rng.choice(torus) for _ in range(group.rank)],
        "f": [rng.randint(-hi, hi) for _ in range(npos)],
    }


def _adjoint_of_sample(group: Group, params: dict, h: Subalgebra) -> list[dict[int, int]]:
    """The e-rows of Ad(g) applied to the basis of h, by columns, for g =
    exp(sum t_r e_r) . torus(s) . exp(sum u_r f_r); such words fill a dense
    subset, so generic rank is reached with probability one over growing
    integer boxes.

    Everything stays in int: the columns start as h's int rows (each row
    times the lcm of its denominators, made once per subalgebra), each
    exp(ad x) returns its columns times a positive scale, and the torus
    acts by the integers n prod s_i^<gamma, alpha_i^vee> for one nonzero n.  So each column is Ad(g)h's times a nonzero factor, and
    the rank is Ad(g)h's.  The factors act on sparse columns one after another."""
    npos = len(group.posroots)
    borel_dim = group.dim - npos  # the e_c, then the f_c, take the last 2 npos positions
    xe = {borel_dim - npos + r: t for r, t in enumerate(params["e"]) if t}
    xf = {borel_dim + r: u for r, u in enumerate(params["f"]) if u}
    torus = group._torus_scales(params["s"])[0]
    cols = [{i: torus[i] * a for i, a in col.items()} for col, _ in group._exp_ad_int(xf, h._int_rows)]
    return [
        {i: a for i, a in col.items() if borel_dim - npos <= i < borel_dim}
        for col, _ in group._exp_ad_int(xe, cols)
    ]


def _certifies(group: Group, h: Subalgebra, params: dict) -> bool:
    """Is b + Ad(g)h = g at this sample?

    The standard Borel b is the coordinate span of the h, t and f basis
    vectors, so rank[b | Ad(g)h] = dim b + rank of the e-rows of Ad(g)h, and
    the sum is all of g iff those rows have rank |posroots|: the sparse
    columns one SpanBasis keeps."""
    span = SpanBasis()
    for col in _adjoint_of_sample(group, params, h):
        span.add(col)
    return len(span) == len(group.posroots)


def is_spherical_pair(
    group: Group,
    h: Subalgebra,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> SphericalResult:
    """Decide density of the Borel orbit through the base point of G/H.

    A dimension count can refute sphericality outright; a full-rank sample
    proves it.  When all samples fail despite a feasible dimension count
    the verdict is "not_spherical" with an explicit sampling_exhausted
    certificate, and zero trials give "inconclusive".  A negative trial
    count is refused: it would back a refutation with no samples at all.
    So is one above MAX_TRIALS, before any sampling.
    """
    if not 0 <= trials <= MAX_TRIALS:
        raise DegenerateInputError(f"trial count must lie in 0..{MAX_TRIALS}, got {trials}")
    h.require_closed()
    borel_dim = group.dim - len(group.posroots)
    base = dict(group=group.name, subalgebra_dim=h.dim, borel_dim=borel_dim)
    if borel_dim + h.dim < group.dim:
        return SphericalResult(
            status="not_spherical",
            certificate={
                "reason": "dimension_obstruction",
                "borel_dim": borel_dim,
                "subalgebra_dim": h.dim,
                "ambient_dim": group.dim,
            },
            **base,
        )
    rng = random.Random(seed)
    for t in range(trials):
        params = _sample_params(group, rng, t)
        if _certifies(group, h, params):
            return SphericalResult(
                status="spherical",
                certificate={"witness": params, "trials_used": t + 1, "seed": seed},
                **base,
            )
    if trials == 0:
        return SphericalResult(
            status="inconclusive",
            certificate={"reason": "no_trials"},
            **base,
        )
    return SphericalResult(
        status="not_spherical",
        certificate={"reason": "sampling_exhausted", "trials": trials, "seed": seed},
        **base,
    )


def verify_witness(group: Group, h: Subalgebra, witness: dict) -> bool:
    """Replay a recorded sample; True iff it still certifies density.  A
    witness needs |posroots| integers under "e" and "f", rank ones under "s"."""
    for key, n in (("e", len(group.posroots)), ("s", group.rank), ("f", len(group.posroots))):
        vals = witness.get(key) if isinstance(witness, dict) else None
        if not isinstance(vals, list) or len(vals) != n or any(type(t) is not int for t in vals):
            raise DegenerateInputError(f"witness {key!r} must be a list of {n} integers")
    h.require_closed()
    return _certifies(group, h, witness)


def normalizer(group: Group, h: Subalgebra) -> Subalgebra:
    """n(h) = {x : [x, h] <= h}, exactly, as the kernel of the linear map
    x -> ([b, x] modulo h) over the basis vectors b of h: column j holds
    the reduced [b_k, e_j] at positions (k, i)."""
    cols = []
    for j in range(group.dim):
        images = (eliminate(group.sparse_bracket(b, {j: 1}), h.rows, h.pivots)[0] for b in h.rows)
        cols.append({(k, i): x for k, im in enumerate(images) for i, x in im.items()})
    return Subalgebra(group, nullspace(cols), name=f"normalizer({h.name or 'span'})")


@dataclass
class FibrationResult:
    status: str  # "flag_manifold" | "torus_bundle_over_flag" | "not_of_this_form"
    group: str
    subalgebra_dim: int
    normalizer_dim: int
    parabolic: bool
    fiber_dim: int | None = None

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "group": self.group,
            "subalgebra_dim": self.subalgebra_dim,
            "normalizer_dim": self.normalizer_dim,
            "parabolic": self.parabolic,
            "fiber_dim": self.fiber_dim,
        }


def _contains_some_borel(group: Group, p: Subalgebra) -> bool:
    """Does p contain a Borel subalgebra containing the standard Cartan?

    p must be a subalgebra, as a normalizer is.  Then, once p holds the
    Cartan, it is the Cartan plus the root spaces it meets, and it contains
    a Borel iff it meets g_c or g_-c for every positive root c (Bourbaki,
    *Lie Groups and Lie Algebras*, ch. VI, sec. 1.7, prop. 20)."""
    idx = group._index
    return all(p.contains({k: 1}) for k, (kind, _) in enumerate(group.basis_labels) if kind in ("h", "t")) and all(
        p.contains({idx["e", c]: 1}) or p.contains({idx["f", c]: 1}) for c in group.posroots
    )


def derived_subalgebra(group: Group, s: Subalgebra) -> Subalgebra:
    vecs = [group.sparse_bracket(x, y) for i, x in enumerate(s.rows) for y in s.rows[i + 1 :]]
    return Subalgebra(group, vecs, name=f"derived({s.name or 'span'})")


def classify_torus_fibration(group: Group, h: Subalgebra) -> FibrationResult:
    """Is G/H a flag manifold, or a torus bundle over one?

    Affirmative exactly when the normalizer p = n(h) is parabolic and
    either h = p (flag manifold) or [p, p] <= h < p (torus bundle with
    fiber dimension dim p - dim h).  Both affirmative statuses force the
    pair to be spherical; "not_of_this_form" decides nothing by itself.
    """
    h.require_closed()
    p = normalizer(group, h)
    parabolic = _contains_some_borel(group, p)
    base = dict(
        group=group.name,
        subalgebra_dim=h.dim,
        normalizer_dim=p.dim,
        parabolic=parabolic,
    )
    if not parabolic:
        return FibrationResult(status="not_of_this_form", **base)
    if h.dim == p.dim:
        return FibrationResult(status="flag_manifold", fiber_dim=0, **base)
    dp = derived_subalgebra(group, p)
    sandwiched = all(h.contains(v) for v in dp.rows)
    if sandwiched:
        return FibrationResult(
            status="torus_bundle_over_flag", fiber_dim=p.dim - h.dim, **base
        )
    return FibrationResult(status="not_of_this_form", **base)


def spherical_iff_fibration_crosscheck(
    group: Group,
    h: Subalgebra,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> bool:
    """True iff the structural verdict matches the sampling verdict.

    An affirmative fibration status (flag_manifold or torus_bundle_over_flag)
    forces sphericality, so the two must land on the same side.  Pairs of the
    not_of_this_form kind can still be spherical, hence only equality of the
    two booleans is asserted.  An inconclusive sampling verdict is an error,
    not a silent False.
    """
    sph = is_spherical_pair(group, h, trials=trials, seed=seed)
    if sph.status == "inconclusive":
        raise DegenerateInputError(
            "sphericality verdict inconclusive; rerun with more trials"
        )
    fib = classify_torus_fibration(group, h)
    affirmative = fib.status in ("flag_manifold", "torus_bundle_over_flag")
    if affirmative:
        return sph.status == "spherical"
    return True
