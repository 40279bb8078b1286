"""Checks that run after every test.

Every module a test builds (through the module cache) has its column
tables checked against the dense matrices that ``Module.action`` makes
from them (a scan of every entry gives the table back, rows strictly
ascending, entries nonzero Fractions) and against its weights (every
entry of basis element b_k's table maps a vector of weight w to one of
weight w + weight(b_k)).  So the tables that drive the library's module
products are checked on every module the tests reach, not on a
hand-picked few.
"""

from fractions import Fraction

import pytest

from weylkit import repthy
from weyl_references import dense_matrices, nonzero_columns

_CHECKED: dict[int, repthy.Module] = {}  # by id; holding the module keeps its id unique


@pytest.fixture(autouse=True)
def module_tables_are_graded_and_match_their_action():
    yield
    for mod in list(repthy._MODULE_CACHE.values()):
        if not isinstance(mod, repthy.Module) or id(mod) in _CHECKED:
            continue
        _CHECKED[id(mod)] = mod
        g = mod.group
        assert len(mod.columns) == g.dim
        for lab, cols, a in zip(g.basis_labels, mod.columns, dense_matrices(mod)):
            assert cols == nonzero_columns(a), f"column table of {mod} differs from its action"
            dx = repthy.basis_weight(g, lab)
            for j, col in enumerate(cols):
                rows = [i for i, _ in col]
                assert rows == sorted(set(rows)), f"rows of {mod} not strictly ascending"
                assert all(type(c) is Fraction and c != 0 for _, c in col)
                want = repthy._add(mod.weights[j], dx)
                assert all(mod.weights[i] == want for i in rows), f"{lab} of {mod} breaks the weight grading"
