from fractions import Fraction

import pytest

from weylkit import spherical
from weylkit.errors import DegenerateInputError, NotSubalgebraError
from weylkit.rootsys import Subalgebra, parse_group, standard_subalgebra
from weylkit.spherical import (
    MAX_TRIALS,
    classify_torus_fibration,
    derived_subalgebra,
    is_spherical_pair,
    normalizer,
    is_spherical_pair as sph,
    spherical_iff_fibration_crosscheck,
    verify_witness,
)


def _std(name, sub):
    g = parse_group(name)
    return g, standard_subalgebra(g, sub)


# ---- sphericality -----------------------------------------------------------


def test_borel_pair_is_spherical():
    g, h = _std("A2", "borel")
    res = is_spherical_pair(g, h)
    assert res.status == "spherical"
    assert verify_witness(g, h, res.certificate["witness"])


def test_a1_cartan_is_spherical():
    g, h = _std("A1", "cartan")
    res = is_spherical_pair(g, h)
    assert res.status == "spherical"


def test_diagonal_pair_is_spherical():
    g, h = _std("A1xA1", "diagonal")
    res = is_spherical_pair(g, h)
    assert res.status == "spherical"
    assert verify_witness(g, h, res.certificate["witness"])


def test_principal_sl2_in_sl3_is_spherical():
    g, h = _std("A2", "principal")
    res = is_spherical_pair(g, h)
    assert res.status == "spherical"


def test_witness_stability_under_seeds():
    for name, sub in [("A1", "cartan"), ("A1xA1", "diagonal"), ("A2", "principal")]:
        g, h = _std(name, sub)
        for seed in (0, 1):
            assert is_spherical_pair(g, h, seed=seed).status == "spherical"


def test_dimension_obstruction_short_circuits():
    g, h = _std("A1", "zero")
    res = is_spherical_pair(g, h)
    assert res.status == "not_spherical"
    assert res.certificate["reason"] == "dimension_obstruction"


def test_a2_cartan_not_spherical():
    # dim b + dim t = 5 + 2 = 7 < 8
    g, h = _std("A2", "cartan")
    res = is_spherical_pair(g, h)
    assert res.status == "not_spherical"
    assert res.certificate["reason"] == "dimension_obstruction"


def test_b2_cartan_not_spherical():
    g, h = _std("B2", "cartan")
    res = is_spherical_pair(g, h)
    assert res.status == "not_spherical"


def test_zero_trials_inconclusive():
    g, h = _std("A1", "cartan")
    res = is_spherical_pair(g, h, trials=0)
    assert res.status == "inconclusive"


@pytest.mark.parametrize("trials", [-1, MAX_TRIALS + 1])
def test_out_of_range_trials_refused_before_sampling(monkeypatch, trials):
    g, h = _std("A1", "cartan")

    def refuse(*args, **kwargs):
        raise AssertionError("sampling started for an out-of-range trial count")

    monkeypatch.setattr(spherical, "_sample_params", refuse)
    with pytest.raises(DegenerateInputError):
        is_spherical_pair(g, h, trials=trials)


def test_requires_subalgebra():
    g = parse_group("A1")
    bad = Subalgebra(g, [g.gen_vector("e", (1,)), g.gen_vector("f", (1,))])
    with pytest.raises(NotSubalgebraError):
        is_spherical_pair(g, bad)


def test_determinism():
    g, h = _std("A2", "principal")
    r1 = is_spherical_pair(g, h, seed=7)
    r2 = is_spherical_pair(g, h, seed=7)
    assert r1.as_dict() == r2.as_dict()



def _principal_witness():
    g, h = _std("A2", "principal")
    return g, h, is_spherical_pair(g, h).certificate["witness"]


def test_recorded_witness_replays():
    g, h, witness = _principal_witness()
    assert verify_witness(g, h, witness)


@pytest.mark.parametrize(
    "key, change",
    [
        ("e", lambda w: w + [1, 1]),  # five entries where |posroots| = 3
        ("e", lambda w: w[:-1]),
        ("f", lambda w: w + [0]),
        ("f", lambda w: w[:1]),
        ("s", lambda w: w + [1]),
        ("s", lambda w: w[:1]),
    ],
)
def test_witness_of_the_wrong_length_is_refused(key, change):
    g, h, witness = _principal_witness()
    with pytest.raises(DegenerateInputError, match=repr(key)):
        verify_witness(g, h, {**witness, key: change(witness[key])})


@pytest.mark.parametrize(
    "key, bad", [("e", Fraction(1, 2)), ("e", Fraction(2)), ("f", 1.0), ("s", "2"), ("f", True)]
)
def test_witness_with_a_non_integer_entry_is_refused(key, bad):
    g, h, witness = _principal_witness()
    with pytest.raises(DegenerateInputError, match=repr(key)):
        verify_witness(g, h, {**witness, key: [bad] + witness[key][1:]})


@pytest.mark.parametrize("witness", [{}, {"e": [1, 1, 1], "s": [1, 1]}, [1, 2], None])
def test_witness_without_every_list_is_refused(witness):
    g, h = _std("A2", "principal")
    with pytest.raises(DegenerateInputError):
        verify_witness(g, h, witness)


# ---- normalizer ------------------------------------------------------------


def test_normalizer_of_nilradical_is_borel():
    g, h = _std("A2", "nilradical")
    p = normalizer(g, h)
    b = standard_subalgebra(g, "borel")
    assert p.dim == b.dim
    assert all(p.contains(v) for v in b.basis)


def test_normalizer_of_borel_is_itself():
    g, h = _std("A2", "borel")
    p = normalizer(g, h)
    assert p.dim == h.dim


def test_normalizer_of_zero_is_full():
    g, h = _std("A1", "zero")
    assert normalizer(g, h).dim == g.dim


def test_normalizer_of_twisted_line():
    g = parse_group("A1")
    h = Subalgebra(g, [g.gen_vector("h", 0) + g.gen_vector("e", (1,))])
    p = normalizer(g, h)
    assert p.dim == 1
    assert p.contains(h.basis[0])


def test_derived_subalgebra_of_borel():
    g, b = _std("A2", "borel")
    d = derived_subalgebra(g, b)
    n = standard_subalgebra(g, "nilradical")
    assert d.dim == n.dim
    assert all(d.contains(v) for v in n.basis)


# ---- fibration classification -------------------------------------------------


def test_borel_gives_flag_manifold():
    g, h = _std("A2", "borel")
    res = classify_torus_fibration(g, h)
    assert res.status == "flag_manifold"
    assert res.fiber_dim == 0


def test_full_gives_flag_manifold():
    g, h = _std("A1", "full")
    assert classify_torus_fibration(g, h).status == "flag_manifold"


def test_nilradical_gives_torus_bundle():
    g, h = _std("A2", "nilradical")
    res = classify_torus_fibration(g, h)
    assert res.status == "torus_bundle_over_flag"
    assert res.fiber_dim == 2


def test_a1_nilradical_fiber_one():
    g, h = _std("A1", "nilradical")
    res = classify_torus_fibration(g, h)
    assert res.status == "torus_bundle_over_flag"
    assert res.fiber_dim == 1


def test_cartan_not_of_this_form():
    g, h = _std("A1", "cartan")
    res = classify_torus_fibration(g, h)
    assert res.status == "not_of_this_form"
    assert not res.parabolic


def test_zero_subalgebra_not_of_this_form():
    # normalizer is all of g (parabolic) but [g, g] is not inside 0
    g, h = _std("A1", "zero")
    res = classify_torus_fibration(g, h)
    assert res.status == "not_of_this_form"
    assert res.parabolic


def test_opposite_nilradical_is_torus_bundle():
    # spans the e side, opposite to the standard borel; its normalizer is
    # the opposite Borel, which the Weyl sweep must find
    g = parse_group("A1")
    h = Subalgebra(g, [g.gen_vector("e", (1,))])
    res = classify_torus_fibration(g, h)
    assert res.status == "torus_bundle_over_flag"
    assert res.fiber_dim == 1


# ---- crosscheck -------------------------------------------------------------


def test_crosscheck_on_affirmative_pairs():
    for name, sub in [("A2", "borel"), ("A2", "nilradical"), ("A1", "nilradical")]:
        g, h = _std(name, sub)
        assert spherical_iff_fibration_crosscheck(g, h) is True


def test_crosscheck_on_negative_pair():
    g, h = _std("A1", "zero")
    assert spherical_iff_fibration_crosscheck(g, h) is True


def test_crosscheck_spherical_but_not_of_this_form():
    # spherical, yet the normalizer of the Cartan is not parabolic: the
    # fibration side says not_of_this_form and that is no contradiction
    g, h = _std("A1", "cartan")
    assert spherical_iff_fibration_crosscheck(g, h) is True


def test_crosscheck_propagates_inconclusive():
    g, h = _std("A1", "cartan")
    with pytest.raises(DegenerateInputError):
        spherical_iff_fibration_crosscheck(g, h, trials=0)
