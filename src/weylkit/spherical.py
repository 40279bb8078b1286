"""Dense Borel-orbit tests and torus-fibration structure for subalgebras.

A pair (g, h) is spherical when a Borel subalgebra has a dense orbit on
G/H, equivalently b + Ad(g)h = g for generic g.  Genericity is handled by
seeded sampling of big-cell elements with exact rational ranks: a full-rank
sample is a replayable certificate, and a failed search is reported as
such, never dressed up as a proof.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, NotSubalgebraError
from .linalg import column_stack, combine, fr, nullspace, rank
from .rootsys import Group, Subalgebra, standard_subalgebra

DEFAULT_TRIALS = 32
# Upper bound on a trial count taken from outside the program.  A span that
# no sample certifies runs every trial; the G2 span {h_0, e_(0,1), e_(1,1),
# f_(1,0), f_(2,1), f_(3,1)} is one, and costs about 0.33 s a trial on a
# 2-vCPU x86 host (32 trials 10.3 s, 128 trials 41.9 s), so the cap keeps
# the worst case under a minute.
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


def _require_subalgebra(h: Subalgebra) -> None:
    if not h.is_closed():
        raise NotSubalgebraError("span is not closed under the bracket")


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


def _adjoint_of_sample(group: Group, params: dict) -> np.ndarray:
    """Ad(g) for g = exp(sum t_r e_r) . torus(s) . exp(sum u_r f_r); such

    words fill a dense subset, so generic rank is reached with probability
    one over growing integer boxes."""
    shape = (group.dim,)
    es = [group.gen_vector("e", c) for c in group.posroots]
    fs = [group.gen_vector("f", c) for c in group.posroots]
    xe = combine([fr(t) for t in params["e"]], es, shape)
    xf = combine([fr(t) for t in params["f"]], fs, shape)
    m = group.exp_ad(xe) @ group.torus_ad([fr(x) for x in params["s"]])
    return m @ group.exp_ad(xf)


def _orbit_rank(group: Group, h: Subalgebra, adg: np.ndarray) -> int:
    borel = standard_subalgebra(group, "borel")
    cols = [v for v in borel.basis]
    cols += [adg @ v for v in h.basis]
    if not cols:
        return 0
    return rank(column_stack(cols))


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
    """
    if trials < 0:
        raise DegenerateInputError(f"trial count must be nonnegative, got {trials}")
    _require_subalgebra(h)
    borel = standard_subalgebra(group, "borel")
    base = dict(group=group.name, subalgebra_dim=h.dim, borel_dim=borel.dim)
    if borel.dim + h.dim < group.dim:
        return SphericalResult(
            status="not_spherical",
            certificate={
                "reason": "dimension_obstruction",
                "borel_dim": borel.dim,
                "subalgebra_dim": h.dim,
                "ambient_dim": group.dim,
            },
            **base,
        )
    rng = random.Random(seed)
    for t in range(trials):
        params = _sample_params(group, rng, t)
        if _orbit_rank(group, h, _adjoint_of_sample(group, params)) == group.dim:
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
    """Replay a recorded sample; True iff it still certifies density."""
    _require_subalgebra(h)
    adg = _adjoint_of_sample(group, witness)
    return _orbit_rank(group, h, adg) == group.dim


def normalizer(group: Group, h: Subalgebra) -> Subalgebra:
    """n(h) = {x : [x, h] <= h}, exactly, as the nullspace of the stacked

    quotient-projected bracket maps.  The condition is linear in x: for each
    basis vector b of h, ad(b)x reduced modulo h must vanish."""
    if h.dim == 0:
        return standard_subalgebra(group, "full")
    cond_rows = []
    for b in h.basis:
        reduced = column_stack([h.reduce(col) for col in group.ad(b).T])
        # all-zero rows constrain nothing; keeping them would only grow the rref
        cond_rows += [row for row in reduced if any(x != 0 for x in row)]
    if not cond_rows:
        return standard_subalgebra(group, "full")
    basis = nullspace(np.vstack(cond_rows))
    return Subalgebra(group, basis, name=f"normalizer({h.name or 'span'})")


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
    """Does p contain w(b) for some Weyl element w?  Borels considered are

    the ones containing the standard Cartan."""
    if p.dim < group.rank + group.torus_dim + len(group.posroots):
        return False
    cartan_ok = all(
        p.contains(group.gen_vector("h", i)) for i in range(group.rank)
    ) and all(p.contains(group.gen_vector("t", j)) for j in range(group.torus_dim))
    if not cartan_ok:
        return False
    pos_fc = {group.root_fc(c)[: group.rank]: c for c in group.posroots}
    for w in group.weyl_elements:
        ok = True
        for c in group.posroots:
            img = group.apply_weyl(w, group.root_fc(c))[: group.rank]
            if img in pos_fc:
                v = group.gen_vector("e", pos_fc[img])
            else:
                neg = tuple(-x for x in img)
                assert neg in pos_fc
                v = group.gen_vector("f", pos_fc[neg])
            if not p.contains(v):
                ok = False
                break
        if ok:
            return True
    return False


def derived_subalgebra(group: Group, s: Subalgebra) -> Subalgebra:
    vecs = []
    for i, x in enumerate(s.basis):
        for y in s.basis[i + 1 :]:
            vecs.append(group.bracket(x, y))
    return Subalgebra(group, vecs, name=f"derived({s.name or 'span'})")


def classify_torus_fibration(group: Group, h: Subalgebra) -> FibrationResult:
    """Is G/H a flag manifold, or a torus bundle over one?

    Affirmative exactly when the normalizer p = n(h) is parabolic and
    either h = p (flag manifold) or [p, p] <= h < p (torus bundle with
    fiber dimension dim p - dim h).  Both affirmative statuses force the
    pair to be spherical; "not_of_this_form" decides nothing by itself.
    """
    _require_subalgebra(h)
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
    sandwiched = all(h.contains(v) for v in dp.basis)
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
