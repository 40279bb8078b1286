"""Checks that run after every test.

Every module a test builds (through the module cache) has its column
tables compared with the nonzero entries of its dense matrices, so the
tables that drive the library's module products are checked on every
module the tests reach, not on a hand-picked few.
"""

import pytest

from weylkit import repthy
from weyl_references import nonzero_columns

_CHECKED: dict[int, repthy.Module] = {}  # by id; holding the module keeps its id unique


@pytest.fixture(autouse=True)
def module_tables_match_matrices():
    yield
    for mod in list(repthy._MODULE_CACHE.values()):
        if not isinstance(mod, repthy.Module) or id(mod) in _CHECKED:
            continue
        _CHECKED[id(mod)] = mod
        assert len(mod.columns) == len(mod.act)
        for cols, a in zip(mod.columns, mod.act):
            assert cols == nonzero_columns(a), f"column table of {mod} differs from its matrix"
