"""End-to-end checks of the command-line front end.

Exit discipline under test: 0 for a computed verdict (catalog: all
expectations met), 1 for disagreements or computation failures, 2 for
usage errors.  Structured output must be byte-identical across runs.
"""

import inspect
import json

import pytest

import weylkit.errors as errors_mod
from weylkit.cli import main
from weylkit.errors import ToolkitError
from weylkit.spherical import MAX_TRIALS

# Frozen registry of machine-readable error codes.  Adding a code is an
# interface change and must be reflected here deliberately.
KNOWN_ERROR_CODES = {
    "unsupported_type",
    "degenerate_input",
    "not_subalgebra",
    "non_reductive",
    "dimension_cap",
    "non_dominant",
    "non_nilpotent_direction",
    "band_limit",
    "no_intertwiner",
    "nu_square_obstruction",
    "not_adapted",
    "not_orthonormal",
    "catalog_format",
    "unknown_name",
    "parse_error",
    "internal_invariant",
}


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestErrorRegistry:
    def test_codes_match_frozen_list(self):
        codes = {
            cls.code
            for _, cls in inspect.getmembers(errors_mod, inspect.isclass)
            if issubclass(cls, ToolkitError) and cls is not ToolkitError
        }
        assert codes == KNOWN_ERROR_CODES

    def test_codes_are_unique(self):
        classes = [
            cls
            for _, cls in inspect.getmembers(errors_mod, inspect.isclass)
            if issubclass(cls, ToolkitError) and cls is not ToolkitError
        ]
        assert len({c.code for c in classes}) == len(classes)


class TestSpherical:
    def test_dimension_obstruction_transcript(self, capsys):
        code, out, _ = _run(capsys, "spherical", "--group", "A2", "--subalgebra", "cartan")
        assert code == 0
        assert "not_spherical (dimension obstruction 7 < 8)" in out
        assert "seed: 0" in out

    def test_witness_structured(self, capsys):
        code, out, _ = _run(
            capsys, "spherical", "--group", "A1", "--subalgebra", "cartan",
            "--format", "structured",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "spherical"
        assert payload["seed"] == 0
        assert payload["certificate"]["trials_used"] >= 1
        assert set(payload["certificate"]["witness"]) == {"e", "s", "f"}

    def test_seed_echoed(self, capsys):
        code, out, _ = _run(
            capsys, "spherical", "--group", "A1", "--subalgebra", "borel", "--seed", "7"
        )
        assert code == 0
        assert "seed: 7" in out

    def test_negative_trials_refused(self, capsys):
        code, out, _ = _run(
            capsys, "spherical", "--group", "A1", "--subalgebra", "full", "--trials", "-1"
        )
        assert code == 1
        assert "error degenerate_input:" in out

    @pytest.mark.parametrize("trials", ["-1", str(MAX_TRIALS + 1), "100000000"])
    def test_out_of_range_trials_refused_before_sampling(self, capsys, monkeypatch, trials):
        import weylkit.spherical as spherical

        def refuse(*args, **kwargs):
            raise AssertionError("sampling started for an out-of-range trial count")

        monkeypatch.setattr(spherical, "_adjoint_of_sample", refuse)
        code, out, _ = _run(
            capsys, "spherical", "--group", "A1xA1",
            "--subalgebra", "span:1,0,0,0,0,0;0,0,0,1,0,0", "--trials", trials,
        )
        assert code == 1
        assert "error degenerate_input:" in out

    def test_trials_at_cap_accepted(self, capsys):
        code, out, _ = _run(
            capsys, "spherical", "--group", "A1", "--subalgebra", "full",
            "--trials", str(MAX_TRIALS),
        )
        assert code == 0
        assert "spherical (witness found" in out

    def test_zero_trials_inconclusive(self, capsys):
        code, out, _ = _run(
            capsys, "spherical", "--group", "A1", "--subalgebra", "full", "--trials", "0"
        )
        assert code == 0
        assert "inconclusive" in out


class TestFibration:
    def test_torus_bundle_with_fiber_dimension(self, capsys):
        code, out, _ = _run(capsys, "fibration", "--group", "A2", "--subalgebra", "nilradical")
        assert code == 0
        assert "torus_bundle_over_flag (fiber dimension 2)" in out

    def test_flag_manifold(self, capsys):
        code, out, _ = _run(capsys, "fibration", "--group", "A1", "--subalgebra", "borel")
        assert code == 0
        assert "flag_manifold" in out

    def test_span_subalgebra_accepted(self, capsys):
        # span of {h} inside sl2 equals the cartan
        code, out, _ = _run(
            capsys, "fibration", "--group", "A1", "--subalgebra", "span:1,0,0"
        )
        assert code == 0
        assert "not_of_this_form" in out


class TestMF:
    def test_doubled_defining_witness_line(self, capsys):
        code, out, _ = _run(
            capsys, "mf", "--group", "A1", "--module", "defining+defining", "--degree", "2"
        )
        assert code == 0
        assert "fails at degree 2, label 2ω, multiplicity 3" in out

    def test_single_defining_is_free(self, capsys):
        code, out, _ = _run(
            capsys, "mf", "--group", "A2", "--module", "defining", "--degree", "4"
        )
        assert code == 0
        assert "multiplicity_free_up_to_D (degree bound 4)" in out

    def test_adjoint_token(self, capsys):
        code, out, _ = _run(
            capsys, "mf", "--group", "A2", "--module", "adjoint", "--degree", "2"
        )
        assert code == 0

    def test_subalgebra_form_with_ambient(self, capsys):
        code, out, _ = _run(
            capsys, "mf", "--group", "A2", "--subalgebra", "cartan",
            "--ambient", "defining+w[0,1]", "--degree", "2",
        )
        assert code == 0
        assert "fails at degree 2, label ω1+ω2, multiplicity 2" in out

    def test_structured_output_is_frozen(self, capsys):
        _, out, _ = _run(
            capsys, "mf", "--group", "A1", "--module", "defining+defining",
            "--degree", "2", "--format", "structured",
        )
        payload = json.loads(out)
        assert payload == {
            "seed": 0,
            "verdict": "fails",
            "degree_bound": 2,
            "witness": {"degree": 2, "label": [2], "multiplicity": 3},
            "table": {
                "0": {"[0]": 1},
                "1": {"[1]": 2},
                "2": {"[0]": 1, "[2]": 3},
            },
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["--module", "defining", "--degree", "0"],
            ["--module", "defining", "--degree", "13"],
            ["--module", "defining", "--degree", "100000"],
            ["--subalgebra", "cartan", "--degree", "0"],
            ["--subalgebra", "cartan", "--degree", "13"],
        ],
        ids=["module_below_1", "module_above_cap", "module_huge", "orbit_below_1", "orbit_above_cap"],
    )
    def test_degree_out_of_range_is_refused_before_work(self, capsys, monkeypatch, argv):
        import weylkit.sympoly as sympoly

        def refuse(*args, **kwargs):
            raise AssertionError("symmetric powers computed for an out-of-range degree")

        monkeypatch.setattr(sympoly, "sym_power_characters", refuse)
        code, out, _ = _run(capsys, "mf", "--group", "A1", *argv)
        assert code == 1
        assert "error degenerate_input:" in out

    def test_degree_at_cap_is_computed(self, capsys):
        code, out, _ = _run(
            capsys, "mf", "--group", "A1", "--module", "defining", "--degree", "12"
        )
        assert code == 0
        assert "multiplicity_free_up_to_D (degree bound 12)" in out


class TestInvolution:
    def test_character_fiber_verified(self, capsys):
        code, out, _ = _run(
            capsys, "involution", "--group", "A1", "--subalgebra", "cartan",
            "--fiber", "character:2",
        )
        assert code == 0
        assert "verified" in out
        assert "nu_equivariant_over_h: True" in out

    def test_restriction_fiber_identity_nu(self, capsys):
        code, out, _ = _run(
            capsys, "involution", "--group", "A1", "--subalgebra", "full",
            "--fiber", "restriction:defining", "--format", "structured",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["nu_matrix"] == [["1", "0"], ["0", "1"]]
        assert all(payload["checks"].values())

    def test_non_reductive_is_computation_error(self, capsys):
        code, out, _ = _run(
            capsys, "involution", "--group", "A1", "--subalgebra", "nilradical",
            "--fiber", "trivial",
        )
        assert code == 1
        assert "error non_reductive:" in out

    def test_unadapted_is_computation_error(self, capsys):
        code, out, _ = _run(
            capsys, "involution", "--group", "A1", "--subalgebra", "span:1,1,0",
            "--fiber", "trivial",
        )
        assert code == 1
        assert "error not_adapted:" in out


class TestIsotypic:
    def test_su2_passes(self, capsys):
        code, out, _ = _run(capsys, "isotypic", "--degree", "3")
        assert code == 0
        assert "projector algebra within tolerance: True" in out
        assert "series within tolerance: True" in out

    def test_su2_structured_support_bounded(self, capsys):
        code, out, _ = _run(
            capsys, "isotypic", "--degree", "3", "--format", "structured"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["projector"]["within_tolerance"] is True
        assert all(0 <= int(d) <= 3 for d in payload["series"]["support"])

    def test_torus_domain(self, capsys):
        code, out, _ = _run(
            capsys, "isotypic", "--domain", "torus", "--rank", "3", "--degree", "2"
        )
        assert code == 0
        assert "series within tolerance: True" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--degree", "-1"],
            ["--degree", "200"],
            ["--domain", "torus", "--rank", "0", "--degree", "2"],
            ["--domain", "torus", "--rank", "4", "--degree", "2"],
            ["--seed", "-1"],
            ["--domain", "torus", "--seed", "-1"],
        ],
        ids=[
            "degree_below_0", "degree_above_cap", "rank_below_1", "rank_above_3",
            "seed_below_0", "torus_seed_below_0",
        ],
    )
    def test_out_of_range_is_refused_before_sampling(self, capsys, monkeypatch, argv):
        import weylkit.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("sampling started for an out-of-range input")

        monkeypatch.setattr(cli, "su2_quadrature", refuse)
        monkeypatch.setattr(cli, "torus_sample", refuse)
        code, out, _ = _run(capsys, "isotypic", *argv)
        assert code == 1
        assert "error degenerate_input:" in out


_MF_PROBE = {
    "mf_truncated": {
        "verdict": "multiplicity_free_up_to_D",
        "provenance": "derived_oracle",
        "note": "probe",
    }
}


class TestCatalog:
    def test_run_all_agrees(self, capsys):
        code, out, _ = _run(capsys, "catalog", "run", "--all")
        assert code == 0
        assert "disagreements: 0" in out
        assert "MISMATCH" not in out

    def test_run_single_check(self, capsys):
        code, out, _ = _run(capsys, "catalog", "run", "--checks", "fibration")
        assert code == 0
        assert "spherical" not in [line.split()[2].rstrip(":") for line in out.splitlines() if line.startswith("ok")]

    def test_list_action(self, capsys):
        code, out, _ = _run(capsys, "catalog", "list")
        assert code == 0
        assert "a1-cartan (A1):" in out

    def test_disagreement_exits_one(self, capsys, tmp_path):
        doc = {
            "schema_version": 1,
            "entries": [
                {
                    "id": "wrong-on-purpose",
                    "group": "A2",
                    "subalgebra": "cartan",
                    "expected": {
                        "spherical": {
                            "verdict": "spherical",
                            "provenance": "paper_statement",
                            "note": "deliberately wrong to exercise the mismatch path",
                        }
                    },
                }
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = _run(capsys, "catalog", "run", "--catalog", str(path))
        assert code == 1
        assert "MISMATCH" in out
        assert "computed=not_spherical expected=spherical" in out

    def test_env_var_points_at_catalog(self, capsys, tmp_path, monkeypatch):
        doc = {
            "schema_version": 1,
            "entries": [
                {
                    "id": "only-entry",
                    "group": "A1",
                    "subalgebra": "borel",
                    "expected": {
                        "fibration": {
                            "verdict": "flag_manifold",
                            "provenance": "derived_oracle",
                            "note": "borel quotient",
                        }
                    },
                }
            ],
        }
        path = tmp_path / "env.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setenv("WEYLKIT_CATALOG", str(path))
        code, out, _ = _run(capsys, "catalog", "run")
        assert code == 0
        assert "only-entry" in out
        assert "checks: 1" in out

    def test_malformed_catalog_reports_code(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out, _ = _run(capsys, "catalog", "run", "--catalog", str(path))
        assert code == 1
        assert "error catalog_format:" in out

    @pytest.mark.parametrize(
        "overrides",
        [
            {"subalgebra": {"span": ["1/0", "0", "0"]}},
            {
                "subalgebra": "cartan",
                "module": {"fiber": ["character", [0.5]]},
                "expected": {
                    "involution": {
                        "verdict": "verified",
                        "provenance": "derived_oracle",
                        "note": "a float is not an exact character value",
                    }
                },
            },
            {"module": {"summands": [[["a"], 1]]}, "expected": _MF_PROBE},
            {"module": {"summands": [[[1], "x"]]}, "expected": _MF_PROBE},
            {"module": {"summands": [[[1], 0]]}, "expected": _MF_PROBE},
            {"module": {"summands": [[1, 1]]}, "expected": _MF_PROBE},
            {"subalgebra": "cartan", "module": {"ambient": [[["a"], 1]]}, "expected": _MF_PROBE},
            {"subalgebra": "cartan", "module": {"ambient": [[[1], "x"]]}, "expected": _MF_PROBE},
            {"module": {"summands": [[[1], 1]], "degree_bound": "2"}, "expected": _MF_PROBE},
            {"module": {"summands": [[[1], 1]], "degree_bound": 0}, "expected": _MF_PROBE},
            {"module": {"summands": [[[1], 1]], "degree_bound": 13}, "expected": _MF_PROBE},
        ],
    )
    def test_malformed_catalog_literal_reports_code(self, capsys, tmp_path, overrides):
        entry = {
            "id": "probe",
            "group": "A1",
            "expected": {
                "spherical": {"verdict": "spherical", "provenance": "derived_oracle", "note": "probe"}
            },
        }
        entry.update(overrides)
        path = tmp_path / "literal.json"
        path.write_text(json.dumps({"schema_version": 1, "entries": [entry]}))
        code, out, _ = _run(capsys, "catalog", "run", "--catalog", str(path))
        assert code == 1
        assert "error catalog_format:" in out

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = _run(capsys, "catalog", "run", "--checks", "bogus")
        assert code == 2
        assert "unknown_name" in err


class TestUsageErrors:
    def test_bad_group(self, capsys):
        code, _, err = _run(capsys, "spherical", "--group", "Z9", "--subalgebra", "cartan")
        assert code == 2
        assert "unsupported_type" in err

    def test_bad_subalgebra_name(self, capsys):
        code, _, err = _run(capsys, "spherical", "--group", "A1", "--subalgebra", "mystery")
        assert code == 2
        assert "unknown_name" in err

    def test_bad_module_token(self, capsys):
        code, _, err = _run(capsys, "mf", "--group", "A1", "--module", "bogus")
        assert code == 2
        assert "parse_error" in err

    def test_mf_needs_exactly_one_source(self, capsys):
        code, _, err = _run(capsys, "mf", "--group", "A1")
        assert code == 2
        code, _, err = _run(
            capsys, "mf", "--group", "A1", "--module", "defining",
            "--subalgebra", "cartan",
        )
        assert code == 2

    def test_ambient_requires_subalgebra_form(self, capsys):
        code, _, _ = _run(
            capsys, "mf", "--group", "A1", "--module", "defining",
            "--ambient", "defining",
        )
        assert code == 2

    def test_bad_fiber_spec(self, capsys):
        code, _, err = _run(
            capsys, "involution", "--group", "A1", "--subalgebra", "cartan",
            "--fiber", "mystery:3",
        )
        assert code == 2

    def test_bad_span_width(self, capsys):
        code, _, err = _run(
            capsys, "fibration", "--group", "A1", "--subalgebra", "span:1,0"
        )
        assert code == 2
        assert "parse_error" in err

    @pytest.mark.parametrize("span", ["span:1/0,0,0", "span:a,0,0"])
    def test_malformed_span_literal(self, capsys, span):
        code, _, err = _run(capsys, "spherical", "--group", "A1", "--subalgebra", span)
        assert code == 2
        assert "parse_error" in err

    def test_malformed_character_literal(self, capsys):
        code, _, err = _run(
            capsys, "involution", "--group", "A1", "--subalgebra", "cartan",
            "--fiber", "character:x",
        )
        assert code == 2
        assert "parse_error" in err

    def test_unknown_verb_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogusverb"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["spherical", "--group", "A1"])
        assert exc.value.code == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("spherical", "--group", "A1", "--subalgebra", "cartan"),
            ("mf", "--group", "B2", "--module", "adjoint", "--degree", "2"),
            ("isotypic", "--degree", "3"),
            ("isotypic", "--domain", "torus", "--rank", "2", "--degree", "3"),
            ("catalog", "run", "--checks", "adapted,involution"),
        ],
    )
    def test_structured_output_byte_identical(self, capsys, argv):
        first = _run(capsys, *argv, "--format", "structured")
        second = _run(capsys, *argv, "--format", "structured")
        assert first == second
        json.loads(first[1])  # well-formed

    def test_different_seeds_change_witness(self, capsys):
        _, out0, _ = _run(
            capsys, "spherical", "--group", "A1", "--subalgebra", "full",
            "--format", "structured",
        )
        _, out9, _ = _run(
            capsys, "spherical", "--group", "A1", "--subalgebra", "full",
            "--seed", "9", "--format", "structured",
        )
        w0 = json.loads(out0)["certificate"]["witness"]
        w9 = json.loads(out9)["certificate"]["witness"]
        assert json.loads(out0)["status"] == json.loads(out9)["status"] == "spherical"
        assert w0 != w9
