"""Catalog loading, validation, round-trip, and the verdict sweep."""

import contextlib
import inspect
import io
import json
import os
import re
import tempfile
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylkit import catalog, cli, errors
from weylkit.cli import main

from weylkit.catalog import (
    CHECKS,
    PROVENANCES,
    CatalogEntry,
    compute_check,
    default_catalog_path,
    load_catalog,
    run_catalog,
    serialize_catalog,
)
from weylkit.errors import CatalogFormatError, ToolkitError, UnknownNameError
from weylkit.rootsys import parse_group
from weyl_references import is_zero


MINIMUM_IDS = {
    "a1-full",
    "a1-cartan",
    "a1-nilradical",
    "a1-zero",
    "a2-cartan",
    "a2-borel",
    "a2-nilradical",
    "a1xa1-diagonal",
    "b2-cartan",
    "defining-single",
    "defining-doubled",
    "a2-defining",
}


def _write(tmp_path, doc):
    p = tmp_path / "catalog.json"
    p.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(p)


def _minimal_entry(**overrides):
    entry = {
        "id": "probe",
        "group": "A1",
        "subalgebra": "cartan",
        "expected": {
            "spherical": {
                "verdict": "spherical",
                "provenance": "derived_oracle",
                "note": "probe",
            }
        },
    }
    entry.update(overrides)
    return {"schema_version": 1, "entries": [entry]}


class TestLoading:
    def test_shipped_catalog_loads(self):
        entries = load_catalog()
        ids = {e.id for e in entries}
        assert MINIMUM_IDS <= ids
        assert len(ids) == len(entries)
        for e in entries:
            for check, expectation in e.expected.items():
                assert check in CHECKS
                assert expectation["provenance"] in PROVENANCES
                assert expectation["note"]

    def test_span_subalgebra_expands(self):
        entries = {e.id: e for e in load_catalog()}
        tw = entries["a1-twisted-line"]
        assert tw.h is not None
        assert tw.h.dim == 1
        v = tw.h.basis[0]
        assert v[0] != 0 and v[1] != 0 and v[2] == 0

    def test_malformed_file_is_a_parse_error(self, tmp_path):
        path = _write(tmp_path, "{ this is not json")
        with pytest.raises(CatalogFormatError, match="line"):
            load_catalog(path)

    def test_directory_is_refused(self, tmp_path):
        with pytest.raises(CatalogFormatError, match="cannot be read"):
            load_catalog(str(tmp_path))

    def test_wrong_schema_version(self, tmp_path):
        path = _write(tmp_path, {"schema_version": 99, "entries": []})
        with pytest.raises(CatalogFormatError, match="schema_version"):
            load_catalog(path)

    def test_unknown_symbolic_name(self, tmp_path):
        path = _write(tmp_path, _minimal_entry(subalgebra="bogus"))
        with pytest.raises(UnknownNameError):
            load_catalog(path)

    def test_missing_provenance_refused(self, tmp_path):
        doc = _minimal_entry()
        del doc["entries"][0]["expected"]["spherical"]["provenance"]
        with pytest.raises(CatalogFormatError, match="provenance"):
            load_catalog(_write(tmp_path, doc))

    def test_unrecognized_provenance_refused(self, tmp_path):
        doc = _minimal_entry()
        doc["entries"][0]["expected"]["spherical"]["provenance"] = "hunch"
        with pytest.raises(CatalogFormatError, match="provenance"):
            load_catalog(_write(tmp_path, doc))

    def test_inapplicable_check_refused(self, tmp_path):
        # a module-only entry has no subalgebra for a sphericality claim
        doc = _minimal_entry()
        del doc["entries"][0]["subalgebra"]
        doc["entries"][0]["module"] = {"summands": [[[1], 1]]}
        with pytest.raises(CatalogFormatError, match="shape"):
            load_catalog(_write(tmp_path, doc))

    def test_duplicate_ids_refused(self, tmp_path):
        doc = _minimal_entry()
        doc["entries"].append(json.loads(json.dumps(doc["entries"][0])))
        with pytest.raises(CatalogFormatError, match="duplicate"):
            load_catalog(_write(tmp_path, doc))

    @pytest.mark.parametrize("fiber", [[], ["restriction"], ["restriction", 5], {"a": 1}, 5])
    def test_malformed_fiber_refused(self, tmp_path, fiber):
        doc = _minimal_entry(module={"fiber": fiber})
        with pytest.raises(CatalogFormatError, match="fiber"):
            load_catalog(_write(tmp_path, doc))

    def test_long_fiber_is_echoed_clipped(self, tmp_path):
        doc = _minimal_entry(module={"fiber": ["restriction", [1.0] * 5000]})
        with pytest.raises(CatalogFormatError, match="fiber") as refused:
            load_catalog(_write(tmp_path, doc))
        assert len(str(refused.value)) < 200

    def test_integer_past_the_digit_limit_refused(self, tmp_path):
        doc = _minimal_entry(module={"summands": [[[1], 1]]})
        text = json.dumps(doc).replace("[[[1], 1]]", "[[[" + "9" * 5000 + "], 1]]")
        with pytest.raises(CatalogFormatError, match="does not parse"):
            load_catalog(_write(tmp_path, text))

    def test_env_var_overrides_default(self, tmp_path, monkeypatch):
        path = _write(tmp_path, _minimal_entry())
        monkeypatch.setenv("WEYLKIT_CATALOG", path)
        assert default_catalog_path() == path
        entries = load_catalog()
        assert [e.id for e in entries] == ["probe"]


class TestRoundTrip:
    def test_serialize_then_reload_is_identical(self, tmp_path):
        entries = load_catalog()
        doc = serialize_catalog(entries)
        path = _write(tmp_path, doc)
        again = load_catalog(path)
        assert len(again) == len(entries)
        for a, b in zip(entries, again):
            assert a.id == b.id
            assert a.group == b.group
            assert a.module == b.module
            assert a.expected == b.expected
            if a.h is None:
                assert b.h is None
            else:
                assert a.h.dim == b.h.dim
                for va, vb in zip(a.h.basis, b.h.basis):
                    assert is_zero(va - vb)


class TestRunning:
    def test_shipped_catalog_runs_clean(self):
        entries = load_catalog()
        res = run_catalog(entries)
        assert res["summary"]["disagreements"] == 0
        assert res["summary"]["errors"] == 0
        assert res["summary"]["skipped"] == 0
        assert res["summary"]["agreements"] == res["summary"]["checks_run"]
        assert res["summary"]["checks_run"] >= 30

    def test_rows_ordered_by_id_then_check(self):
        res = run_catalog(load_catalog())
        keys = [(r["id"], r["check"]) for r in res["rows"]]
        assert keys == sorted(keys)

    def test_empty_check_set_yields_empty_table(self):
        res = run_catalog(load_catalog(), checks=[])
        assert res["rows"] == []
        assert res["summary"]["checks_run"] == 0

    def test_single_check_subset(self):
        res = run_catalog(load_catalog(), checks=["involution"])
        assert {r["check"] for r in res["rows"]} == {"involution"}
        assert len(res["rows"]) == 3
        assert all(r["agree"] for r in res["rows"])

    def test_unknown_check_rejected(self):
        with pytest.raises(UnknownNameError):
            run_catalog(load_catalog(), checks=["bogus"])

    def test_dimension_cap_recorded_as_skip(self, tmp_path):
        doc = {
            "schema_version": 1,
            "entries": [
                {
                    "id": "too-big",
                    "group": "A1",
                    "module": {"summands": [[[70], 1]], "degree_bound": 2},
                    "expected": {
                        "mf_truncated": {
                            "verdict": "multiplicity_free_up_to_D",
                            "provenance": "derived_oracle",
                            "note": "never runs",
                        }
                    },
                }
            ],
        }
        res = run_catalog(load_catalog(_write(tmp_path, doc)))
        row = res["rows"][0]
        assert row["skipped"] is True
        assert "dimension" in row["reason"]
        assert res["summary"]["skipped"] == 1
        assert res["summary"]["disagreements"] == 0

    def test_restriction_fiber_past_the_cap_loads_and_is_skipped(self, tmp_path):
        doc = _minimal_entry(
            module={"fiber": ["restriction", [70]]},
            expected={
                "involution": {"verdict": "verified", "provenance": "derived_oracle", "note": "never runs"}
            },
        )
        res = run_catalog(load_catalog(_write(tmp_path, doc)))
        assert res["rows"][0]["skipped"] is True
        assert "dimension" in res["rows"][0]["reason"]

    def test_errors_recorded_not_fatal(self, tmp_path):
        # the nilradical fails the reductivity gate inside the involution
        # check; the sweep must record that and keep going
        doc = {
            "schema_version": 1,
            "entries": [
                {
                    "id": "bad-fiber",
                    "group": "A1",
                    "subalgebra": "nilradical",
                    "module": {"fiber": ["trivial"]},
                    "expected": {
                        "involution": {
                            "verdict": "verified",
                            "provenance": "derived_oracle",
                            "note": "will not verify",
                        }
                    },
                },
                {
                    "id": "fine",
                    "group": "A1",
                    "subalgebra": "cartan",
                    "expected": {
                        "spherical": {
                            "verdict": "spherical",
                            "provenance": "derived_oracle",
                            "note": "control",
                        }
                    },
                },
            ],
        }
        res = run_catalog(load_catalog(_write(tmp_path, doc)))
        by_id = {r["id"]: r for r in res["rows"]}
        assert by_id["bad-fiber"]["verdict"] == "error:non_reductive"
        assert by_id["bad-fiber"]["agree"] is False
        assert by_id["fine"]["agree"] is True
        assert res["summary"]["errors"] == 1
        assert res["summary"]["disagreements"] == 1


# ---- malformed documents ----------------------------------------------------------

KNOWN_CODES = {
    cls.code
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.ToolkitError) and cls is not errors.ToolkitError
}

# (what is replaced, its value): "document", "entries" and "entry" replace the
# whole document, its entries list and its first entry; any other name is a
# field of the first entry.
MALFORMED = [
    ("group", 5),
    ("id", 5),  # beside the second entry's string id
    ("expected", []),
    ("subalgebra", {"span": 5}),
    ("subalgebra", {"span": [5]}),
    ("entry", 5),
    ("document", ["a"]),
]


def _two_entry_document(where, value):
    doc = _minimal_entry()
    doc["entries"].append(dict(doc["entries"][0], id="probe-2"))
    if where == "document":
        return value
    if where == "entries":
        doc["entries"] = value
    elif where == "entry":
        doc["entries"][0] = value
    else:
        doc["entries"][0][where] = value
    return doc


def _run_catalog_file(doc):
    """main(["catalog", "run", "--catalog", path]) on doc, as (exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "catalog.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["catalog", "run", "--catalog", path])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("where, value", MALFORMED)
def test_malformed_document_is_a_catalog_format_error(where, value):
    code, out, err = _run_catalog_file(_two_entry_document(where, value))
    assert code == 1 and err == ""
    assert out.splitlines()[1].startswith("error catalog_format: ")


@pytest.mark.parametrize(
    "where, value", [("group", "T" + "9" * 5000), ("id", "x" * 5000)], ids=["long-group", "long-id"]
)
def test_long_fields_are_echoed_clipped(where, value):
    doc = _two_entry_document(where, value)
    doc["entries"][0]["group"] = doc["entries"][0]["group"] if where == "group" else "Q"
    code, out, _ = _run_catalog_file(doc)
    assert code == 1
    line = out.splitlines()[1]
    assert line.startswith("error catalog_format: ") and len(line) < 200


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["document", "entries", "entry", "id", "group", "subalgebra", "module", "expected"]), JSON_VALUES)
@example("group", 5)
@example("id", 5)
@example("expected", [])
@example("subalgebra", {"span": 5})
@example("subalgebra", {"span": [5]})
@example("entry", 5)
@example("document", ["a"])
def test_catalog_fuzzed_field_exits_with_a_known_code(where, value):
    # any JSON value in place of one field, or of the whole document, ends in
    # exit 0, 1 or 2 with a registered error code and never a traceback (an
    # exception escaping main fails the test)
    code, out, err = _run_catalog_file(_two_entry_document(where, value))
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    found = re.findall(r"error[ :]([a-z_]+)", out) + re.findall(r"usage error \(([a-z_]+)\)", err)
    assert set(found) <= KNOWN_CODES
    if code == 2:
        assert found


# JSON values that the CLI cannot write and the catalog used to read: a
# float span entry (read as 1/2 through its text) and a boolean character
# value (read as the number 1)
@pytest.mark.parametrize(
    "where, value",
    [("subalgebra", {"span": [[0.5, 0, 0]]}), ("module", {"fiber": ["character", [True]]})],
    ids=["float-span-entry", "bool-character-value"],
)
def test_inexact_json_literals_are_refused(where, value):
    doc = _minimal_entry(**{where: value})
    if where == "module":  # an expectation the fiber applies to, which the value 1 verified
        doc["entries"][0]["expected"] = {
            "involution": {"verdict": "verified", "provenance": "derived_oracle", "note": "probe"}
        }
    code, out, err = _run_catalog_file(doc)
    assert code == 1 and err == ""
    assert out.splitlines()[1].startswith("error catalog_format: not an exact rational: ")


# ---- one reader for the CLI's text and the catalog's JSON ---------------------------

# group -> (dimension, weight length)
_READER_GROUPS = {"A1": (3, 1), "A1+T1": (4, 2)}
# ints and exact strings ("a/b", decimals), and one time in ten a boolean or
# a malformed or oversized string, none holding the CLI's separators; a JSON
# float has no CLI text that reads as it does
_EXACT = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4).map(str) | st.sampled_from(["1.5", "-2e0"])
_LITERALS = st.sampled_from([True] * 9 + [False]).flatmap(
    lambda exact: _EXACT if exact else st.booleans() | st.sampled_from(["", "x", "1/0", "1e9999", "7" * 401])
)


@st.composite
def _reader_inputs(draw):
    """(group, a standard name or JSON span rows, a JSON fiber descriptor):
    rows mostly of the algebra's width, labels mostly of the weight length."""
    group = draw(st.sampled_from(sorted(_READER_GROUPS)))
    dim, weight_len = _READER_GROUPS[group]
    widths = st.sampled_from([dim] * 9 + [0, 1, dim + 1])
    rows = st.lists(widths.flatmap(lambda w: st.lists(_LITERALS, min_size=w, max_size=w)), min_size=1, max_size=2)
    sub = draw(st.sampled_from(["cartan", "full", "zero", "borel"]) | rows)
    kind = draw(st.sampled_from(["trivial", "character", "restriction"]))
    if kind == "trivial":
        return group, sub, ["trivial"]
    if kind == "character":
        return group, sub, ["character", draw(st.lists(_LITERALS, min_size=1, max_size=3))]
    size = draw(st.sampled_from([weight_len] * 4 + [1, weight_len + 1]))
    return group, sub, ["restriction", draw(st.lists(st.integers(-1, 4) | st.just(70), min_size=size, max_size=size))]


def _read_by_cli(group, sub, desc):
    """The (h, fiber) that the CLI's span:, character: and restriction:w[...] text reads."""
    g = parse_group(group)
    h = cli._parse_subalgebra(g, sub if isinstance(sub, str) else "span:" + ";".join(",".join(map(str, r)) for r in sub))
    if desc[0] == "trivial":
        return h, cli._parse_fiber(g, h, "trivial")
    if desc[0] == "character":
        return h, cli._parse_fiber(g, h, "character:" + ",".join(map(str, desc[1])))
    return h, cli._parse_fiber(g, h, "restriction:w[" + ",".join(map(str, desc[1])) + "]")


def _read_by_catalog(group, sub, desc):
    """The (h, fiber) that a catalog file holding the same JSON loads and
    hands to the involution check."""
    entry = {
        "id": "probe",
        "group": group,
        "subalgebra": sub if isinstance(sub, str) else {"span": sub},
        "module": {"fiber": desc},
        "expected": {"involution": {"verdict": "verified", "provenance": "derived_oracle", "note": "probe"}},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "catalog.json")
        with open(path, "w") as fh:
            json.dump({"schema_version": 1, "entries": [entry]}, fh)
        (loaded,) = load_catalog(path)
    built = []

    def capture(g, h, fiber):
        built.append(fiber)
        return SimpleNamespace(checks={})

    with mock.patch.object(catalog, "assemble_bundle_involution", capture):
        compute_check(loaded, "involution")
    return loaded.h, built[0]


# a refusal of the text or of the JSON reads as its front end's own code
_MALFORMED = {"parse_error": "malformed", "catalog_format": "malformed"}


def _outcome(read, *inputs):
    try:
        h, fiber = read(*inputs)
    except ToolkitError as exc:
        return _MALFORMED.get(exc.code, exc.code)
    return h.rows, fiber.tables, fiber.dim, fiber.descriptor


@settings(max_examples=120, deadline=None)
@given(_reader_inputs())
@example(("A1", "cartan", ["character", [True]]))  # once the value 1 in the catalog
@example(("A1", [[1, "1/2", 0]], ["restriction", [2]]))
@example(("A1", [[1, 0]], ["trivial"]))
@example(("A1", "full", ["restriction", [70]]))
@example(("A1+T1", [[0, 0, 1, 1], [1, "x", 0, 0]], ["character", [1]]))
def test_cli_and_catalog_read_spans_and_fibers_alike(inputs):
    # the same span rows and fiber, as the CLI's text and as catalog JSON,
    # give the same h rows and fiber tables, or both are refused with the
    # same code (each front end's own code for malformed input)
    assert _outcome(_read_by_cli, *inputs) == _outcome(_read_by_catalog, *inputs)


class TestComputeCheck:
    def test_trivial_dimension_example(self):
        entries = {e.id: e for e in load_catalog()}
        assert compute_check(entries["a2-cartan"], "spherical") == "not_spherical"

    def test_seed_is_threaded_through(self):
        entries = {e.id: e for e in load_catalog()}
        a = compute_check(entries["a1-cartan"], "spherical", seed=0)
        b = compute_check(entries["a1-cartan"], "spherical", seed=1)
        assert a == b == "spherical"
