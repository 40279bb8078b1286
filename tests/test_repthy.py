import subprocess
import sys
from pathlib import Path

import pytest

from weylkit import repthy
from weylkit.errors import DimensionCapError, InternalInvariantError, NonDominantError, ParseError
from weylkit.linalg import is_zero, zeros
from weylkit.repthy import (
    build_module,
    decompose_character,
    module_character,
    tensor_decompose,
    weight_multiplicities,
    weyl_dim,
)
from weylkit.rootsys import parse_group


# ---- Weyl dimension formula (frozen values) ---------------------------------

WEYL_DIMS = [
    ("A1", (0,), 1),
    ("A1", (1,), 2),
    ("A1", (7,), 8),
    ("A2", (1, 0), 3),
    ("A2", (1, 1), 8),
    ("A2", (2, 0), 6),
    ("A2", (0, 8), 45),
    ("B2", (1, 0), 5),
    ("B2", (0, 1), 4),
    ("B2", (0, 2), 10),
    ("B2", (2, 0), 14),
    ("B2", (1, 1), 16),
    ("G2", (1, 0), 7),
    ("G2", (0, 1), 14),
    ("G2", (2, 0), 27),
    ("G2", (1, 1), 64),
    ("A1xA1", (1, 2), 6),
    ("A2+T1", (1, 1, 9), 8),
    ("T2", (3, -4), 1),
]


@pytest.mark.parametrize("name,label,dim", WEYL_DIMS)
def test_weyl_dim(name, label, dim):
    assert weyl_dim(parse_group(name), label) == dim


def test_label_validation():
    g = parse_group("A2")
    with pytest.raises(NonDominantError):
        weyl_dim(g, (-1, 0))
    with pytest.raises(ParseError):
        weyl_dim(g, (1, 0, 0))


# ---- Freudenthal multiplicities (frozen) -------------------------------------


def test_adjoint_weight_multiplicities():
    # zero weight of the adjoint has multiplicity = rank; roots have 1
    for name, adj in [("A2", (1, 1)), ("B2", (0, 2)), ("G2", (0, 1))]:
        g = parse_group(name)
        mult = weight_multiplicities(g, adj)
        zero = (0,) * g.rank
        assert mult[zero] == g.rank
        for c in g.posroots:
            assert mult[g.root_fc(c)] == 1
        assert sum(mult.values()) == g.dim


def test_g2_seven_dim_weights():
    g = parse_group("G2")
    mult = weight_multiplicities(g, (1, 0))
    assert mult[(0, 0)] == 1
    assert len(mult) == 7 and set(mult.values()) == {1}


def test_b2_sixteen():
    g = parse_group("B2")
    mult = weight_multiplicities(g, (1, 1))
    assert sum(mult.values()) == 16
    assert mult[(1, 1)] == 1
    # (1,1) - alpha2 = (2,-1); its multiplicity is 1; the weight (0,1) is
    # (1,1) - alpha1 - alpha2 and has multiplicity 2
    assert mult[(2, -1)] == 1
    assert mult[(0, 1)] == 2


def test_a1_string():
    mult = weight_multiplicities(parse_group("A1"), (3,))
    assert mult == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}


def test_torus_coords_ride_along():
    g = parse_group("A1+T1")
    mult = weight_multiplicities(g, (2, 5))
    assert mult == {(2, 5): 1, (0, 5): 1, (-2, 5): 1}


# ---- exact module construction -----------------------------------------------


def _is_homomorphism(mod):
    g = mod.group
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = mod.act[i] @ mod.act[j] - mod.act[j] @ mod.act[i]
            rhs = zeros(mod.dim, mod.dim)
            v = g.bracket_table[i][j]
            for k in range(g.dim):
                if v[k] != 0:
                    rhs = rhs + v[k] * mod.act[k]
            if not is_zero(lhs - rhs):
                return False
    return True


@pytest.mark.parametrize(
    "name,label",
    [
        ("A1", (3,)),
        ("A2", (0, 1)),
        ("A2", (1, 1)),
        ("B2", (1, 0)),
        ("B2", (1, 1)),
        ("G2", (1, 0)),
        ("A1xA1", (1, 1)),
        ("A1+T1", (2, 3)),
        ("B2", (2, 0)),
        ("G2", (2, 0)),
    ],
)
def test_build_module_is_representation(name, label):
    g = parse_group(name)
    mod = build_module(g, label)
    assert mod.dim == weyl_dim(g, label)
    assert _is_homomorphism(mod)
    # highest weight vector sits at index 0 and is killed by raising ops
    assert mod.weights[0] == tuple(label)
    for i in range(g.rank):
        e = mod.act[g._index[("e", g.simple_root(i))]]
        assert all(e[k, 0] == 0 for k in range(mod.dim))


def test_g2_adjoint_build_matches_ad():
    g = parse_group("G2")
    mod = build_module(g, (0, 1))
    assert mod.dim == 14
    assert _is_homomorphism(mod)


def test_dimension_cap():
    with pytest.raises(DimensionCapError):
        build_module(parse_group("A1"), (64,))
    # the bound itself is fine
    assert build_module(parse_group("A1"), (63,)).dim == 64


def _flip_top_multiplicity(true):
    """weight_multiplicities with the top multiplicity raised by one: a wrong
    character, which the builder must refuse."""

    def flipped(group, label):
        mult = dict(true(group, label))
        mult[tuple(label)] += 1
        return mult

    return flipped


def test_wrong_multiplicities_raise_internal_invariant(monkeypatch):
    monkeypatch.setattr(repthy, "_MODULE_CACHE", {})
    monkeypatch.setattr(
        repthy, "weight_multiplicities", _flip_top_multiplicity(repthy.weight_multiplicities)
    )
    with pytest.raises(InternalInvariantError) as info:
        build_module(parse_group("A2"), (1, 1))
    assert info.value.code == "internal_invariant"


def test_invariant_checks_survive_python_O():
    src = str(Path(repthy.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    code = (
        f"import sys; sys.path[:0] = [{src!r}, {tests!r}]\n"
        "from test_repthy import _flip_top_multiplicity\n"
        "from weylkit import repthy\n"
        "from weylkit.errors import InternalInvariantError\n"
        "from weylkit.rootsys import parse_group\n"
        "repthy.weight_multiplicities = _flip_top_multiplicity(repthy.weight_multiplicities)\n"
        "try:\n"
        "    repthy.build_module(parse_group('A2'), (1, 1))\n"
        "except InternalInvariantError as exc:\n"
        "    print(__debug__, exc.code)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False internal_invariant"


def test_module_cache():
    g = parse_group("A2")
    assert build_module(g, (1, 0)) is build_module(g, (1, 0))


def test_torus_action_is_scalar():
    g = parse_group("A1+T1")
    mod = build_module(g, (1, 7))
    t = mod.act[g._index[("t", 0)]]
    assert all(t[k, k] == 7 for k in range(mod.dim))
    assert set(mod.weights) == {(1, 7), (-1, 7)}


# ---- tensor decomposition (frozen Clebsch-Gordan data) ------------------------


TENSORS = [
    ("A1", (2,), (2,), {(4,): 1, (2,): 1, (0,): 1}),
    ("A1", (1,), (3,), {(4,): 1, (2,): 1}),
    ("A2", (1, 0), (0, 1), {(1, 1): 1, (0, 0): 1}),
    ("A2", (1, 0), (1, 0), {(2, 0): 1, (0, 1): 1}),
    ("A2", (1, 1), (1, 0), {(2, 1): 1, (0, 2): 1, (1, 0): 1}),
    ("B2", (0, 1), (0, 1), {(0, 2): 1, (1, 0): 1, (0, 0): 1}),
    ("G2", (1, 0), (1, 0), {(2, 0): 1, (0, 1): 1, (1, 0): 1, (0, 0): 1}),
    ("A1xA1", (1, 0), (0, 1), {(1, 1): 1}),
]


@pytest.mark.parametrize("name,l1,l2,expect", TENSORS)
def test_tensor_decompose(name, l1, l2, expect):
    assert tensor_decompose(parse_group(name), l1, l2) == expect


def test_decompose_character_roundtrip():
    g = parse_group("B2")
    char = module_character(g, [(1, 0), (0, 1), (0, 1)])
    assert decompose_character(g, char) == {(1, 0): 1, (0, 1): 2}
