"""End-to-end checks of the command-line front end.

Exit discipline under test: 0 for a computed verdict (catalog: all
expectations met), 1 for disagreements or computation failures, 2 for
usage errors.  Structured output must be byte-identical across runs.
"""

import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weylkit.errors as errors_mod
from weylkit import involution
from weylkit.catalog import load_catalog, run_catalog
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


def _cli_process(argv, flags=(), env=None, **kwargs):
    """Run ``python <flags> -m weylkit.cli <argv>`` on this checkout's sources."""
    src = str(Path(errors_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, **(env or {})}
    return subprocess.run(
        [sys.executable, *flags, "-m", "weylkit.cli", *argv], env=env, text=True, **kwargs
    )


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

    def test_orbit_form_refuses_a_span_that_is_no_subalgebra(self, capsys):
        code, out, _ = _run(
            capsys, "mf", "--group", "A1", "--subalgebra", "span:0,1,0;0,0,1", "--degree", "3",
        )
        assert code == 1
        assert "error not_subalgebra:" in out

    def test_degree_at_cap_is_computed(self, capsys):
        code, out, _ = _run(
            capsys, "mf", "--group", "A1", "--module", "defining", "--degree", "12"
        )
        assert code == 0
        assert "multiplicity_free_up_to_D (degree bound 12)" in out

    def test_g2_adjoint_at_cap_is_frozen(self, capsys):
        # the slowest module-form call: 14 decompositions of G2 symmetric
        # powers, up to degree 12
        code, out, _ = _run(
            capsys, "mf", "--group", "G2", "--module", "adjoint", "--degree", "12",
            "--format", "structured",
        )
        assert code == 0
        assert json.loads(out)["witness"] == {"degree": 12, "label": [2, 2], "multiplicity": 42}
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4eca6890b4b5a228e41734cc74778b89091fb3e8f88c8cee526765c4f3b15aec"
        )


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

    # the A1 and B2 cartan fibers decide nu through the identity test
    # (no single kernel vector squares to a scalar); G2 full runs the largest
    # fiber bracket check
    FROZEN_FIBERS = [
        ("A1", "cartan", "restriction:w[20]", "e15ebb7a1adce70c08161f9dc632bf22116e2529bcc872e779e9961c701905ac"),
        ("A1", "full", "restriction:w[20]", "b37299848cf6e6bb21567f4f82baf983538704836042b2df48c736a2fe102ef9"),
        ("B2", "cartan", "restriction:w[1,1]", "0e6886ead793dd8665252be6c59cd6066fd95355ddef5b254488ab50d294c21d"),
        ("G2", "full", "restriction:adjoint", "e03f8edbb3ef9ea9a265d4609c5ca48a88cb2730bf835a2011c707cf03c36ef2"),
        # nu is not symmetric and has entries 2 and 1/2
        ("A2", "principal", "restriction:w[1,1]", "ca20f370680acdf752b4697b800250d1e9835600d52fd1ad315e518ef0861d47"),
        # nu is a permutation other than the identity
        ("A1xA1", "diagonal", "restriction:w[1,1]", "4507316284050f83be0baf8d34e09e5eefd621453fa921232f86734f092ab2a8"),
    ]

    @pytest.mark.parametrize("group,subalgebra,fiber,digest", FROZEN_FIBERS, ids=lambda x: x[:24])
    def test_structured_certificate_is_frozen(self, capsys, group, subalgebra, fiber, digest):
        code, out, _ = _run(
            capsys, "involution", "--group", group, "--subalgebra", subalgebra, "--fiber", fiber,
            "--format", "structured",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_non_reductive_is_computation_error(self, capsys):
        code, out, _ = _run(
            capsys, "involution", "--group", "A1", "--subalgebra", "nilradical",
            "--fiber", "trivial",
        )
        assert code == 1
        assert "error non_reductive:" in out

    # [e, f] = h: the character's value 1 on h is not 0 = [rho e, rho f];
    # span{e, f} of A1 lacks h, so it is no subalgebra; a label past the cap
    # of 64 is refused as the module is built, whatever its unknowns
    FIBER_REFUSALS = [
        ("full", "character:1,0,0", "degenerate_input"),
        ("span:0,1,0;0,0,1", "trivial", "not_subalgebra"),
        ("full", "restriction:w[64]", "dimension_cap"),
        ("full", "restriction:w[1000]", "dimension_cap"),
    ]

    @pytest.mark.parametrize("subalgebra,fiber,code", FIBER_REFUSALS)
    def test_fiber_that_is_no_module_is_refused(self, capsys, subalgebra, fiber, code):
        rc, out, err = _run(
            capsys, "involution", "--group", "A1", "--subalgebra", subalgebra, "--fiber", fiber,
        )
        assert rc == 2
        assert out == ""
        assert f"usage error ({code}):" in err

    @pytest.mark.parametrize("subalgebra,fiber,code", FIBER_REFUSALS)
    def test_fiber_refusal_survives_python_O(self, subalgebra, fiber, code):
        argv = ["involution", "--group", "A1", "--subalgebra", subalgebra, "--fiber", fiber]
        proc = _cli_process(argv, flags=["-O"], capture_output=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert f"usage error ({code}):" in proc.stderr

    def test_oversized_system_over_adapted_h_refused_before_nullspace(self, capsys, monkeypatch):
        real_nullspace = involution.nullspace

        def small_nullspace(cols):
            # the adaptedness check solves over h; the 64-dim fiber's system
            # would have 4096 unknowns
            if len(cols) >= 64:
                raise AssertionError("the intertwiner system reached nullspace")
            return real_nullspace(cols)

        monkeypatch.setattr(involution, "nullspace", small_nullspace)
        # the span of e + f is adapted and has no Cartan part, so the weight
        # test drops none of the 64^2 unknowns
        code, out, _ = _run(
            capsys, "involution", "--group", "A1", "--subalgebra", "span:0,1,1",
            "--fiber", "restriction:w[63]",
        )
        assert code == 1
        assert "error degenerate_input: intertwiner system of 4096 unknowns" in out

    # every standard name of A1 but diagonal (which needs two simple
    # factors), and the spans of e + f, of h + e and of {h, e}
    AGREEMENT_SUBALGEBRAS = [
        "full", "zero", "cartan", "borel", "nilradical", "principal",
        "span:0,1,1", "span:1,1,0", "span:1,0,0;0,1,0",
    ]
    # on both sides of the size bound: a fiber of dimension 28 or more over
    # an h with no Cartan part is refused
    AGREEMENT_LABELS = [0, 1, 5, 26, 27, 40, 63]

    @pytest.mark.parametrize("subalgebra", AGREEMENT_SUBALGEBRAS)
    def test_cli_and_catalog_agree_at_every_fiber_size(self, capsys, tmp_path, subalgebra):
        spec = subalgebra
        if spec.startswith("span:"):
            spec = {"span": [[int(x) for x in v.split(",")] for v in spec[len("span:"):].split(";")]}
        entries = [
            {
                "id": f"w{k:02d}",
                "group": "A1",
                "subalgebra": spec,
                "module": {"fiber": ["restriction", [k]]},
                "expected": {"involution": {"verdict": "verified", "provenance": "derived_oracle", "note": "probe"}},
            }
            for k in self.AGREEMENT_LABELS
        ]
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"schema_version": 1, "entries": entries}))
        rows = run_catalog(load_catalog(str(path)))["rows"]
        catalog = [row["verdict"] for row in rows]
        cli = []
        for k in self.AGREEMENT_LABELS:
            code, out, err = _run(
                capsys, "involution", "--group", "A1", "--subalgebra", subalgebra,
                "--fiber", f"restriction:w[{k}]", "--format", "structured",
            )
            if code == 2:
                cli.append("error:" + re.match(r"usage error \((\w+)\)", err).group(1))
            else:
                payload = json.loads(out)
                cli.append("verified" if code == 0 else "error:" + payload["error"])
        assert cli == catalog
        # a refusal of h itself comes before the size bound, so it reads the
        # same at every fiber size
        if cli[0] != "verified":
            assert set(cli) == {cli[0]}

    def test_weight_test_admits_a_64_dimensional_fiber(self, capsys):
        # the Cartan rows keep 172 of the 64^2 unknowns, so the system fits
        # the bound that all 4096 would exceed
        code, out, _ = _run(
            capsys, "involution", "--group", "G2", "--subalgebra", "cartan",
            "--fiber", "restriction:w[1,1]", "--format", "structured",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fiber_dim"] == 64
        assert payload["checks"] and all(payload["checks"].values())

    def test_weight_test_sees_the_cartan_part_of_rows_outside_it(self, capsys):
        # the same sl2 with first row h + e: no echelon row lies in the Cartan
        # span, but the rows combine to h, which keeps the system as small as
        # over full, and the certificate is the same
        argv = ["involution", "--group", "A1", "--fiber", "restriction:w[26]"]
        code, out, _ = _run(capsys, *argv, "--subalgebra", "span:1,1,0;0,1,0;0,0,1")
        assert code == 0
        assert (code, out) == _run(capsys, *argv, "--subalgebra", "full")[:2]

    def test_fiber_over_the_zero_subalgebra_keeps_its_dimension(self, capsys):
        # the tables of a fiber over h = 0 are empty, so its dimension comes
        # from the module: the 2-dimensional fiber is fixed by nu = I_2
        code, out, _ = _run(
            capsys, "involution", "--group", "A1", "--subalgebra", "zero",
            "--fiber", "restriction:w[1]", "--format", "structured",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fiber_dim"] == 2
        assert payload["nu_matrix"] == [["1", "0"], ["0", "1"]]
        assert all(payload["checks"].values())

    def test_large_fiber_over_the_zero_subalgebra_is_refused(self, capsys):
        # over h = 0 the kernel is every one of the 41^2 dense matrices
        code, out, _ = _run(
            capsys, "involution", "--group", "A1", "--subalgebra", "zero",
            "--fiber", "restriction:w[40]", "--format", "structured",
        )
        assert code == 1
        assert json.loads(out)["error"] == "degenerate_input"

    def test_zero_subalgebra_refusal_names_the_kernel_size(self, capsys):
        # no rows to count over h = 0: the bound is on 41^2 kernel vectors
        # of 41^2 entries each
        code, out, _ = _run(
            capsys, "involution", "--group", "A1", "--subalgebra", "zero",
            "--fiber", "restriction:w[40]",
        )
        assert code == 1
        assert out.endswith(
            "error degenerate_input: intertwiner kernel over the zero subalgebra "
            "of 1681 vectors of 1681 entries each exceeds 600000 entries\n"
        )

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

    # buffered, the write fails at the final flush; unbuffered, in print
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_closed_stdout_ends_without_traceback(self, unbuffered):
        # the reader is gone before the command writes anything, as when
        # `| head` has already exited
        r, w = os.pipe()
        os.close(r)
        try:
            proc = _cli_process(
                ["isotypic", "--degree", "3", "--format", "structured"],
                env={"PYTHONUNBUFFERED": unbuffered}, stdout=w, stderr=subprocess.PIPE,
            )
        finally:
            os.close(w)
        assert proc.returncode == 1
        assert proc.stderr == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["isotypic", "--degree", "8"],
        ["isotypic", "--degree", "8", "--format", "structured"],
        ["catalog", "run", "--all", "--format", "structured"],
    ],
    ids=["isotypic_table", "isotypic_structured", "catalog_structured"],
)
def test_output_is_the_same_at_one_and_two_blas_threads(argv):
    outs = []
    for threads in ("1", "2"):
        proc = _cli_process(
            argv, env={"OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


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
            {"group": "A1+T" + "9" * 5000},
            {
                "subalgebra": "cartan",
                "module": {"fiber": ["restriction", 5]},
                "expected": {
                    "involution": {
                        "verdict": "verified",
                        "provenance": "derived_oracle",
                        "note": "a fiber label is a list",
                    }
                },
            },
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


# ---- fuzzing: generated malformed and oversized input -------------------------


def _mostly(valid, malformed):
    """valid nine times as often as malformed, so that most examples get past
    the parser and a few carry one fault each."""
    return st.sampled_from([False] * 9 + [True]).flatmap(lambda bad: malformed if bad else valid)


_ENTRY = _mostly(
    st.integers(-1, 2).map(str),
    st.sampled_from(["", " ", "x", "1.5", "1/2", "-0", "+1", "1_0", "64", "10" * 20, "9" * 3000, "9" * 5000]),
)
_LITERAL = _mostly(
    st.fractions(min_value=-3, max_value=3, max_denominator=4).map(str),
    st.sampled_from(
        ["", "x", "1/0", "1.5", "nan", "inf", "1e3", "2E-5", "1_000", "7" * 400, "7" * 401, "1e999", "1e9999",
         "1e999999999"]
    ),
)
_GROUP_DIMS = {"A1": 3, "A2": 8, "A1+T1": 4}
_GROUPS = _mostly(
    st.sampled_from(sorted(_GROUP_DIMS)),
    st.sampled_from(
        [" A1 ", "", "A", "E8", "A1x", "A1+T", "T0", "a1", "A1xA1xA1xA1", "T" + "9" * 5000, "A1+T" + "9" * 5000]
    ),
)


@st.composite
def _module_specs(draw):
    def token():
        simple = ",".join(draw(st.lists(_ENTRY, min_size=1, max_size=3)))
        torus = draw(st.one_of(st.none(), st.lists(_ENTRY, max_size=2).map(",".join)))
        return "w[" + simple + ("" if torus is None else "|" + torus) + "]"

    named = _mostly(st.sampled_from(["defining", "adjoint", "trivial"]), st.sampled_from(["", "w[", "w[1", "bogus"]))
    tokens = [token() if draw(st.booleans()) else draw(named) for _ in range(draw(st.integers(1, 3)))]
    return "+".join(tokens)


@st.composite
def _subalgebras(draw, dim):
    if draw(st.booleans()):
        names = st.sampled_from(["cartan", "borel", "full", "nilradical", "principal"])
        return draw(_mostly(names, st.sampled_from(["bogus", "", "span:"])))
    chunks = []
    for _ in range(draw(st.integers(1, 2))):
        size = draw(_mostly(st.just(dim), st.integers(0, 9)))
        chunks.append(",".join(draw(st.lists(_LITERAL, min_size=size, max_size=size))))
    return "span:" + ";".join(chunks)


@st.composite
def _fibers(draw):
    kind = draw(_mostly(st.sampled_from(["trivial", "character", "restriction"]), st.just("bogus")))
    if kind == "character":
        return "character:" + ",".join(draw(st.lists(_LITERAL, min_size=1, max_size=4)))
    if kind == "restriction":
        return "restriction:" + draw(_module_specs())
    return kind


@st.composite
def _cli_argv(draw):
    name = draw(_GROUPS)
    group = "--group=" + name
    verb = draw(st.sampled_from(["spherical", "fibration", "mf", "mf-orbit", "involution"]))
    fmt = "--format=" + draw(st.sampled_from(["table", "structured"]))
    sub = "--subalgebra=" + draw(_subalgebras(_GROUP_DIMS.get(name.strip(), 3)))
    if verb == "spherical":
        return ["spherical", group, sub, "--trials", str(draw(st.integers(0, 2))), fmt]
    if verb == "fibration":
        return ["fibration", group, sub, fmt]
    degree = "--degree=" + str(draw(_mostly(st.integers(1, 3), st.integers(-1, 0))))
    if verb == "mf":
        return ["mf", group, "--module=" + draw(_module_specs()), degree, fmt]
    if verb == "mf-orbit":
        return ["mf", group, sub, degree, fmt]
    return ["involution", group, sub, "--fiber=" + draw(_fibers()), fmt]


@settings(max_examples=60, deadline=None)
@given(_cli_argv())
# inputs that once ended in a traceback or a runaway expansion: an empty
# spec skipped the parser, a nine-digit exponent expanded into a
# billion-digit integer, values past Python's 4300-digit limit on
# int-to-str conversion could not be printed, and a torus suffix past that
# limit could not be converted
@example(["mf", "--group=A1", "--subalgebra=", "--degree=1"])
@example(["mf", "--group=A1", "--module=", "--degree=1"])
@example(["fibration", "--group=A1", "--subalgebra=span:1e999999999,0,0"])
@example(["involution", "--group=A1", "--subalgebra=cartan", "--fiber=character:1e9999", "--format=structured"])
@example(["mf", "--group=A2", "--module=w[" + "9" * 3000 + ",1]", "--degree=2"])
@example(["spherical", "--group=T" + "9" * 5000, "--subalgebra=cartan"])
def test_generated_input_exits_with_a_known_code(argv):
    out, err = io.StringIO(), io.StringIO()
    # a smaller intertwiner bound keeps every admitted fiber cheap; larger
    # ones take the same refusal path
    with mock.patch.object(involution, "MAX_NU_ENTRIES", 20_000):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        text = out.getvalue()
        if "--format=structured" in argv:
            found = json.loads(text)["error"]
        else:
            found = re.search(r"^error (\w+):", text, re.M).group(1)
        assert found in KNOWN_ERROR_CODES
    elif code == 2:
        usage = re.fullmatch(r"usage error \((\w+)\): .*\n", err.getvalue(), re.S)
        assert usage.group(1) in KNOWN_ERROR_CODES
