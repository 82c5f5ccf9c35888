import contextlib
import copy
import hashlib
import io
import json
import math
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadplate.modal
from quadplate import InvalidCaseError
from quadplate.cases import (
    Report,
    builtin_case_names,
    case_meshes,
    emit,
    load_case,
    run_mapcheck,
    run_modal,
    run_sectprops,
)
from quadplate.cli import _parser, main
from quadplate.modal import (
    apply_bcs,
    assemble,
    mode_shape_samples,
    solve_modes,
)
from quadplate.quadrature import gauss_rule

RECORDED_OMEGA = json.loads(
    (pathlib.Path(__file__).parent / "data" / "builtin_omega.json")
    .read_text())
#: SHA-256 digests of ``sectprops``/``mapcheck`` stdout, with exit codes
#: and warnings, recorded from the one-point evaluator that the array one
#: replaced.
RECORDED_REPORTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "mapping_reports.json")
    .read_text())

BUILTINS = ("paper-quad", "cantilever-isosceles", "clamped-isosceles",
            "clamped-equilateral", "clamped-quad", "cantilever-quad")


def write_square_case(tmp_path, edit=None):
    """A clamped unit-square modal case file, optionally edited."""
    doc = {
        "material": {"E": 1365.0, "nu": 0.3, "t": 0.2, "rho": 5.0},
        "geometry": {"quad": {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
                              "meshes": [[2, 2]],
                              "clamped_edges": [0, 1, 2, 3]}},
        "analysis": {"modes": 1},
    }
    if edit is not None:
        edit(doc)
    path = tmp_path / "case.json"
    path.write_text(json.dumps(doc))
    return str(path)


def centered_grid(center):
    """A 2x2 unit-square mesh geometry block with its center node moved."""
    nodes = [[x, y] for y in (0.0, 0.5, 1.0) for x in (0.0, 0.5, 1.0)]
    nodes[4] = center
    return {"mesh": {"nodes": nodes,
                     "elements": [[0, 1, 4, 3], [1, 2, 5, 4],
                                  [3, 4, 7, 6], [4, 5, 8, 7]]}}


def square_mesh(boundary_sets, elements=([0, 1, 2, 3],),
                nodes=([0, 0], [1, 0], [1, 1], [0, 1])):
    """An explicit one-element unit-square mesh geometry block."""
    return {"mesh": {"nodes": list(nodes),
                     "elements": list(elements),
                     "boundary_sets": boundary_sets}}


class TestCaseLoading:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtin_materials_are_normalized(self, name):
        case = load_case(name)
        assert case.material.E == 1365.0
        assert case.material.nu == 0.3
        assert case.material.t == 0.2
        assert case.material.rho == 5.0
        # flexural rigidity and rho * t * a^4 both equal one
        assert case.material.rigidity == pytest.approx(1.0)
        a = case.reference_length
        assert case.material.rho * case.material.t * a ** 4 == \
            pytest.approx(1.0)

    def test_unknown_case_rejected(self):
        with pytest.raises(InvalidCaseError):
            load_case("not-a-case")

    def test_case_file_from_disk(self, tmp_path):
        doc = {
            "name": "disk-case",
            "material": {"E": 1365.0, "nu": 0.3, "t": 0.2, "rho": 5.0},
            "geometry": {"quad": {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
                                  "meshes": [[2, 2]],
                                  "clamped_edges": [0, 1, 2, 3]}},
            "analysis": {"modes": 3, "normalization": "per_pi2"},
        }
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        case = load_case(str(path))
        report = run_modal(case)
        assert len(report.tables["rows"]) == 3

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InvalidCaseError):
            load_case(str(path))

    def test_two_geometry_sources_rejected(self):
        doc = {
            "material": {"E": 1.0, "nu": 0.3, "t": 0.1, "rho": 1.0},
            "geometry": {"quad": {"vertices": []},
                         "triangle": {"vertices": []}},
        }
        from quadplate.cases import parse_case
        with pytest.raises(InvalidCaseError):
            parse_case(doc)

    @pytest.mark.parametrize("length", [0, -1.0])
    def test_nonpositive_reference_length_rejected_on_load(self, tmp_path,
                                                           length):
        # rejected with the case, not after every mesh has been solved
        path = write_square_case(tmp_path, lambda doc: doc["geometry"].update(
            reference_length=length))
        with pytest.raises(InvalidCaseError, match="reference_length"):
            load_case(path)

    def test_random_quad_depends_on_seed(self):
        first = load_case("random-quad", seed=1)
        second = load_case("random-quad", seed=2)
        assert first.geometry != second.geometry
        again = load_case("random-quad", seed=1)
        assert first.geometry == again.geometry


class TestSectprops:
    def test_paper_quad_all_schemes(self):
        report = run_sectprops(load_case("paper-quad"))
        assert len(report.tables["schemes"]) == 3
        for row in report.tables["schemes"]:
            assert row["area"] == pytest.approx(22.0, abs=1e-9)
            assert row["i_x1"] == pytest.approx(99.6667, abs=5e-5)
            assert row["i_x2"] == pytest.approx(250.6667, abs=5e-5)
            assert row["i_x1x2"] == pytest.approx(84.6667, abs=5e-5)
            for key in ("area", "i_x1", "i_x2", "i_x1x2"):
                assert abs(row[f"delta_{key}"]) < 1e-6

    def test_clockwise_input_warns_same_magnitudes(self):
        case = load_case("paper-quad")
        case.geometry["quad"]["vertices"] = [[0, 0], [0, 5], [4, 3], [8, 0]]
        with pytest.warns(UserWarning, match="clockwise"):
            report = run_sectprops(case)
        assert report.tables["schemes"][0]["area"] == pytest.approx(22.0,
                                                                    abs=1e-9)

    def test_multi_element_geometry_rejected(self):
        with pytest.raises(InvalidCaseError):
            run_sectprops(load_case("clamped-quad"))


class TestMapcheck:
    def test_paper_quad(self):
        report = run_mapcheck(load_case("paper-quad"))
        poles = report.tables["poles"]
        np.testing.assert_allclose(poles["p5_xy"], [10.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(poles["p6_xy"], [0.0, 6.0], atol=1e-12)
        assert poles["parallel_flags"] == [False, False]
        pascal = report.tables["schemes"]["pascal6"]
        assert pascal["pole_round_trip_residual"] <= 1e-9
        assert pascal["condition_estimate"] < 1e6
        for entry in report.tables["schemes"].values():
            assert entry["partition_of_unity_residual"] <= 1e-12
            assert entry["kronecker_residual"] <= 1e-10
            assert entry["max_map_deviation_relative"] <= 1e-9

    def test_trapezoid_reports_fallback_without_failing(self):
        case = load_case("paper-quad")
        case.geometry["quad"]["vertices"] = [[0, 0], [2, 0], [1.5, 1],
                                             [0.5, 1]]
        with pytest.warns(UserWarning, match="falls back"):
            report = run_mapcheck(case)
        poles = report.tables["poles"]
        assert poles["parallel_flags"] == [True, False]
        assert report.tables["schemes"]["pascal6"]["fallback"] is True

    def test_parallelogram_reports_both_flags(self):
        case = load_case("paper-quad")
        case.geometry["quad"]["vertices"] = [[0, 0], [2, 0], [3, 1], [1, 1]]
        with pytest.warns(UserWarning, match="falls back"):
            report = run_mapcheck(case)
        assert report.tables["poles"]["parallel_flags"] == [True, True]
        assert report.tables["poles"]["p5_xy"] is None


class TestRecordedReports:
    @pytest.mark.parametrize("entry", RECORDED_REPORTS,
                             ids=[e["id"] for e in RECORDED_REPORTS])
    def test_matches_recorded_report(self, tmp_path, capsys, entry):
        case = entry["case"]
        if isinstance(case, dict):
            path = tmp_path / "case.json"
            path.write_text(json.dumps(case))
            case = str(path)
        argv = [entry["verb"], "--case", case, "--format", entry["format"]]
        if entry["seed"] is not None:
            argv += ["--seed", str(entry["seed"])]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        out = capsys.readouterr().out
        assert code == entry["exit"]
        assert [str(w.message) for w in caught] == entry["warnings"]
        assert hashlib.sha256(out.encode()).hexdigest() \
            == entry["stdout_sha256"]


class TestModalReports:
    def test_rows_carry_both_normalizations(self):
        case = load_case("clamped-quad")
        case.geometry["quad"]["meshes"] = [[2, 2]]
        case.analysis["modes"] = 3
        report = run_modal(case)
        assert len(report.tables["rows"]) == 3
        for row in report.tables["rows"]:
            assert row["param_plain"] == pytest.approx(
                row["param_per_pi2"] * np.pi ** 2, rel=1e-12)
            assert set(row) == {"mesh", "mode", "omega", "param_plain",
                                "param_per_pi2"}

    def test_csv_contract_and_determinism(self):
        case = load_case("clamped-quad")
        case.geometry["quad"]["meshes"] = [[2, 2], [4, 4]]
        case.analysis["modes"] = 3
        first = run_modal(case).to_csv()
        second = run_modal(case).to_csv()
        assert first == second
        lines = first.strip().split("\n")
        assert lines[0] == "mesh,mode,omega,param_plain,param_per_pi2"
        assert lines[1].startswith("2x2,1,")
        assert len(lines) == 1 + 6

    def test_mode_count_capped_at_mesh_dofs(self):
        # the 2x2 fully clamped mesh has 3 DOFs; requesting 6 modes yields
        # 3 rows for that mesh (coarse table cells stay blank)
        case = load_case("clamped-quad")
        case.geometry["quad"]["meshes"] = [[2, 2]]
        case.analysis["modes"] = 6
        report = run_modal(case)
        assert len(report.tables["rows"]) == 3

    def test_plot_without_samples_rejected(self):
        case = load_case("clamped-quad")
        case.geometry["quad"]["meshes"] = [[2, 2]]
        case.analysis["modes"] = 1
        report = run_modal(case)
        with pytest.raises(InvalidCaseError):
            report.to_plot()

    def test_empty_spectrum_gives_header_only_csv(self):
        case = load_case("clamped-quad")
        case.geometry["quad"]["meshes"] = [[2, 2]]
        case.analysis["modes"] = 0
        csv = run_modal(case).to_csv()
        assert csv == "mesh,mode,omega,param_plain,param_per_pi2\n"

    def test_json_round_trip(self):
        case = load_case("clamped-quad")
        case.geometry["quad"]["meshes"] = [[2, 2]]
        case.analysis["modes"] = 3
        report = run_modal(case)
        recovered = Report.from_dict(json.loads(report.to_json()))
        assert recovered == report

    def test_mode_shape_samples_for_plot(self):
        # a skew quad mesh and a triangle mesh whose apex row consists of
        # collapsed-tip elements
        for name, kind, key, value, n_elements in (
                ("clamped-quad", "quad", "meshes", [[2, 2]], 4),
                ("cantilever-isosceles", "triangle", "levels", [1], 3)):
            case = load_case(name)
            case.geometry[kind][key] = value
            case.analysis["modes"] = 3
            case.analysis["mode_shapes"] = True
            report = run_modal(case)
            blocks = report.to_plot().strip().split("\n\n")
            assert len(blocks) == 3
            for block_text in blocks:
                lines = block_text.split("\n")
                assert lines[0].startswith("#")
                assert len(lines) == 1 + n_elements * 25  # 5x5 grid each
                assert len(lines[1].split()) == 3

            # all modes in one pass sample exactly what one mode at a
            # time does
            (_, mesh), = case_meshes(case)
            rule = gauss_rule(3)
            reduced = apply_bcs(assemble(mesh, case.material, rule), mesh)
            modes = solve_modes(reduced, 3).modes
            samples = mode_shape_samples(mesh, rule, reduced, modes)
            assert len(samples) == 3
            for j, entry in enumerate(report.tables["mode_shapes"]):
                assert entry["points"] == samples[j]
                assert samples[j] == mode_shape_samples(
                    mesh, rule, reduced, modes[:, [j]])[0]

    def test_modal_run_builds_no_element_scheme(self, monkeypatch):
        # assembly and mode-shape sampling work on all elements at once
        calls = []

        def counting(function):
            def wrapper(*args, **kwargs):
                calls.append(function.__name__)
                return function(*args, **kwargs)
            return wrapper

        for name in ("build_scheme", "element_matrices"):
            monkeypatch.setattr(quadplate.modal, name,
                                counting(getattr(quadplate.modal, name)))
        case = load_case("cantilever-isosceles")
        case.geometry["triangle"]["levels"] = [2]
        case.analysis["modes"] = 3
        case.analysis["mode_shapes"] = True
        report = run_modal(case)
        assert len(report.tables["mode_shapes"]) == 3
        assert calls == []

    @pytest.mark.parametrize("rotary", [False, True],
                             ids=["default", "rotary"])
    @pytest.mark.parametrize("name", sorted(RECORDED_OMEGA))
    def test_builtin_omega_match_recorded(self, name, rotary):
        # first six frequencies per mesh, recorded from the scalar
        # per-element assembly; collapsed-tip triangle pencils are
        # ill-conditioned, so round-off in K may move them by ~1e-8
        report = run_modal(load_case(name, overrides={"rotary": rotary}))
        got = {}
        for row in report.tables["rows"]:
            got.setdefault(row["mesh"], []).append(row["omega"])
        want = RECORDED_OMEGA[name]["rotary" if rotary else "default"]
        assert list(got) == list(want)
        for mesh, omega in want.items():
            np.testing.assert_allclose(got[mesh], omega, rtol=1e-8,
                                       err_msg=mesh)


class TestCli:
    def test_sectprops_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["sectprops", "--case", "paper-quad",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "scheme,area,i_x1,i_x2,i_x1x2"
        assert lines[1].startswith("exact,22.000000,")

    def test_modal_csv_to_stdout(self, capsys):
        code = main(["modal", "--case", "clamped-quad", "--modes", "2",
                     "--scheme", "bilinear"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "mesh,mode,omega,param_plain,param_per_pi2"
        assert len(lines) == 1 + 4 * 2

    def test_parser_carries_no_state_between_calls(self, tmp_path, capsys):
        path = write_square_case(tmp_path)
        _parser.cache_clear()
        assert main(["modal", "--case", path]) == 0
        fresh = capsys.readouterr().out
        assert main(["modal", "--case", path, "--rotary"]) == 0
        assert capsys.readouterr().out != fresh
        assert main(["modal", "--case", path]) == 0
        assert capsys.readouterr().out == fresh
        # a seed given for random-quad is not applied to a later case
        assert main(["sectprops", "--case", "random-quad",
                     "--seed", "3"]) == 0
        assert main(["sectprops", "--case", "paper-quad"]) == 0
        # a usage error leaves the next call unaffected
        with pytest.raises(SystemExit) as exc:
            main(["modal", "--case", path, "--modes", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["modal", "--case", path]) == 0
        assert capsys.readouterr().out == fresh

    @pytest.mark.parametrize("verb,edit,code,message", [
        ("sectprops", lambda doc: doc.update(geometry={"quad": {
            "vertices": [[0, 0], [4e160, 0], [3e160, 2e160], [0, 3e160]]}}),
         2, "invalid input: vertex coordinates span 4.000e+160"),
        ("mapcheck", lambda doc: doc.update(geometry={"quad": {
            "vertices": [[0, 0], [4e-170, 0], [3e-170, 2e-170],
                         [0, 3e-170]]}}),
         2, "invalid input: vertex coordinates span 4.000e-170"),
        ("modal", lambda doc: doc["material"].update(t=1e160),
         3, "numerical failure: (34, 'Numerical result out of range') "
            "(input magnitudes beyond the floating-point range)"),
        ("modal", lambda doc: doc["material"].update(E=1e160),
         3, "numerical failure: overflow encountered in "),
    ], ids=["quad-1e160", "quad-1e-170", "thickness-1e160", "E-1e160"])
    def test_magnitudes_beyond_double_range_exit_cleanly(
            self, tmp_path, capsys, verb, edit, code, message):
        # no numpy warning escapes, and no OverflowError traceback
        path = write_square_case(tmp_path, edit)
        assert main([verb, "--case", path]) == code
        assert message in capsys.readouterr().err

    def test_unknown_case_exit_two(self, capsys):
        assert main(["sectprops", "--case", "missing"]) == 2
        assert "invalid input" in capsys.readouterr().err

    def test_numerical_failure_exit_three(self, tmp_path, capsys):
        doc = {
            "material": {"E": 1365.0, "nu": 0.3, "t": 0.2, "rho": 5.0},
            "geometry": {"mesh": {
                "nodes": [[0, 0], [1, 0], [0.05, 0.05], [0, 1]],
                "elements": [[0, 1, 2, 3]],
                "boundary_sets": {},
            }},
            "analysis": {"modes": 1, "scheme": "bilinear"},
        }
        path = tmp_path / "folded.json"
        path.write_text(json.dumps(doc))
        assert main(["modal", "--case", str(path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["analysis"].update(gauss="abc"),
        lambda doc: doc["material"].update(E="x"),
        lambda doc: doc["material"].update(E=float("nan")),
        lambda doc: doc["geometry"]["quad"].pop("vertices"),
        lambda doc: doc["analysis"].update(scheem="bilinear"),
        lambda doc: doc["analysis"].update(rotary="yes"),
        lambda doc: doc["analysis"].update(mode_shapes=1),
        lambda doc: doc.update(analysis=[1]),
        lambda doc: doc["geometry"]["quad"].update(
            vertices=[["a", 0], [1, 0], [1, 1], [0, 1]]),
        lambda doc: doc["geometry"]["quad"].update(meshes=[[2]]),
        lambda doc: doc["geometry"]["quad"].update(clamped_edges=["x"]),
        lambda doc: doc.update(geometry=square_mesh(
            {"edge": {"nodes": [0, 1]}})),
        lambda doc: doc.update(geometry=square_mesh([1])),
        lambda doc: doc.update(geometry=square_mesh(
            {"edge": {"condition": "clamped", "nodes": "01"}})),
        lambda doc: doc["geometry"].update(reference_length=float("nan")),
        lambda doc: doc["geometry"].update(reference_length=float("inf")),
        lambda doc: doc["geometry"].update(reference_length=0),
        lambda doc: doc["geometry"].update(reference_length=-1.0),
        lambda doc: doc["analysis"].update(gauss=3.7),
        lambda doc: doc["analysis"].update(modes=2.5),
        lambda doc: doc["analysis"].update(modes=True),
        lambda doc: doc["geometry"]["quad"].update(meshes=[[2.5, 2]]),
        lambda doc: doc.update(geometry={"triangle": {
            "vertices": [[0, 0], [1, 0.25], [0, 0.5]], "levels": "12"}}),
        lambda doc: doc["geometry"]["quad"].update(clamped_edges=[0.7]),
        lambda doc: doc.update(geometry=square_mesh(
            {}, elements=[[0.5, 1, 2, 3]])),
        lambda doc: doc["material"].update(t=True),
        lambda doc: doc["material"].update(E="1365"),
        lambda doc: doc["geometry"].update(reference_length="2"),
        lambda doc: doc["geometry"]["quad"].update(
            vertices=[[False, 0], [1, 0], [1, 1], [0, 1]]),
        lambda doc: doc["geometry"]["quad"].update(
            vertices=[["0", 0], [1, 0], [1, 1], [0, 1]]),
        lambda doc: doc.update(geometry={"triangle": {
            "vertices": [["0", 0], [1, 0.25], [0, 0.5]], "levels": [1]}}),
        lambda doc: doc.update(geometry=square_mesh(
            {}, nodes=[[0, 0], [1, 0], [1, True], [0, 1]])),
        lambda doc: doc.update(geometry=square_mesh(
            {"edge": {"condition": "clamped", "nodes": [0, 1]}},
            nodes=[[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])),
        lambda doc: doc["material"].update(E=[1365]),
        lambda doc: doc["material"].update(E=[1, 2]),
        lambda doc: doc["geometry"].update(reference_length=[2]),
        lambda doc: doc["geometry"].update(reference_length=[1, 2]),
        lambda doc: doc["geometry"]["quad"].update(
            vertices=[[[0], 0], [1, 0], [1, 1], [0, 1]]),
        lambda doc: doc["geometry"]["quad"].update(
            vertices=[[0, 0], [1, 0], [1, 1e-10], [0, 1e-10]]),
    ], ids=["gauss-text", "E-text", "E-nan", "quad-without-vertices",
            "analysis-unknown-key", "rotary-text", "mode-shapes-number",
            "analysis-list", "vertices-text", "mesh-size-not-pair",
            "clamped-edge-text", "boundary-set-without-condition",
            "boundary-sets-list", "boundary-nodes-text",
            "reference-length-nan", "reference-length-inf",
            "reference-length-zero", "reference-length-negative",
            "gauss-fraction", "modes-fraction", "modes-bool",
            "mesh-size-fraction", "levels-text", "clamped-edge-fraction",
            "element-node-fraction", "t-bool", "E-numeric-text",
            "reference-length-text", "vertex-bool", "vertex-numeric-text",
            "triangle-vertex-numeric-text", "mesh-node-bool",
            "mesh-unused-node", "E-list", "E-pair", "reference-length-list",
            "reference-length-pair", "vertex-coordinate-list",
            "quad-too-thin"])
    def test_invalid_case_values_exit_two(self, tmp_path, capsys, edit):
        path = write_square_case(tmp_path, edit)
        assert main(["modal", "--case", path]) == 2
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["sectprops", "mapcheck"])
    def test_single_quad_text_vertices_exit_two(self, tmp_path, capsys,
                                                verb):
        path = write_square_case(tmp_path, lambda doc: doc.update(geometry={
            "quad": {"vertices": [["a", 0], [1, 0], [1, 1], [0, 1]]}}))
        assert main([verb, "--case", path]) == 2
        assert "invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["sectprops", "mapcheck"])
    @pytest.mark.parametrize("corner", [[False, 0], ["0", 0]],
                             ids=["bool", "numeric-text"])
    def test_single_quad_number_like_vertices_exit_two(self, tmp_path,
                                                       capsys, verb, corner):
        path = write_square_case(tmp_path, lambda doc: doc.update(geometry={
            "quad": {"vertices": [corner, [1, 0], [1, 1], [0, 1]]}}))
        assert main([verb, "--case", path]) == 2
        assert "vertex coordinate must be a number" in capsys.readouterr().err

    def test_folded_element_in_mesh_exit_three(self, tmp_path, capsys):
        # a 2x2 grid whose center node is pushed towards the far corner:
        # every element keeps a positive area, element 3 folds
        path = write_square_case(tmp_path, lambda doc: doc.update(
            geometry=centered_grid([0.95, 0.95])))
        assert main(["modal", "--case", path]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: element 3: folded element" in err
        assert "theta=" in err
        assert "np.float64" not in err

    def test_folded_element_in_a_later_chunk_exit_three(self, tmp_path,
                                                        capsys, monkeypatch):
        # every element is checked before the first chunk is integrated,
        # and the fault names the element's index in the mesh
        monkeypatch.setattr(quadplate.modal, "_ASSEMBLY_CHUNK", 2)
        path = write_square_case(tmp_path, lambda doc: doc.update(
            geometry=centered_grid([0.95, 0.95])))
        assert main(["modal", "--case", path]) == 3
        assert "numerical failure: element 3: folded element" in \
            capsys.readouterr().err

    def test_element_folded_only_at_a_corner_exit_three(self, tmp_path,
                                                         capsys):
        # element 3 folds at theta = (-1, -1) while det J stays positive
        # at every Gauss point
        path = write_square_case(tmp_path, lambda doc: doc.update(
            geometry=centered_grid([0.77, 0.77])))
        assert main(["modal", "--case", path]) == 3
        assert "numerical failure: element 3: folded element: det J = " \
            "-5.000e-03 at theta=(-1.0, -1.0)" in capsys.readouterr().err

    @pytest.mark.parametrize("geometry,message", [
        (square_mesh({}, nodes=([0, 0], [0.5, 0], [1, 0], [0, 1])),
         "element 0: degenerate corner: det J = 0.000e+00 at "
         "theta=(1.0, -1.0)"),
        (centered_grid([0.75, 0.75]),
         "element 3: degenerate corner: det J = 0.000e+00 at "
         "theta=(-1.0, -1.0)"),
    ], ids=["straight-corner-element", "straight-corner-center-node"])
    def test_flat_corner_exit_two(self, tmp_path, capsys, geometry, message):
        path = write_square_case(tmp_path,
                                 lambda doc: doc.update(geometry=geometry))
        assert main(["modal", "--case", path]) == 2
        assert f"invalid input: {message}" in capsys.readouterr().err

    def test_non_finite_mesh_node_exit_two(self, tmp_path, capsys):
        path = write_square_case(tmp_path, lambda doc: doc.update(
            geometry=centered_grid([0.5, float("nan")])))
        assert main(["modal", "--case", path]) == 2
        assert "invalid input: node 4 has a non-finite coordinate" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("vertices,corner", [
        ([[0, 0], [4, 0], [1, 1], [0, 4]], 3),
        ([[0, 0], [4, 0], [1.9, 1.9], [0, 4]], 3),
        ([[0, 0], [0.5, 0], [1, 0], [0, 1]], 2),
    ], ids=["folded", "folded-near-diagonal", "straight-corner"])
    def test_mapcheck_of_irregular_quad_exit_three(self, tmp_path, capsys,
                                                   vertices, corner):
        path = write_square_case(tmp_path, lambda doc: doc.update(geometry={
            "quad": {"vertices": vertices}}))
        assert main(["mapcheck", "--case", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure: bilinear map is not regular at corner " \
            f"{corner}: det J = " in captured.err

    def test_folded_single_quad_exit_three(self, tmp_path, capsys):
        # sectprops applies mapcheck's corner rule; the second quad folds
        # only between the Gauss points, where det J stays positive
        for third, det in (([1, 1], "-2.000e+00"), ([1.9, 1.9], "-2.000e-01")):
            path = write_square_case(tmp_path, lambda doc: doc.update(
                geometry={"quad": {"vertices": [[0, 0], [4, 0], third,
                                                [0, 4]]}}))
            assert main(["sectprops", "--case", path]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "numerical failure: bilinear map is not regular at " \
                f"corner 3: det J = {det}" in captured.err
            assert "np.float64" not in captured.err

    @pytest.mark.parametrize("verb", ["sectprops", "mapcheck", "modal"])
    def test_negative_seed_exit_two(self, capsys, verb):
        assert main([verb, "--case", "random-quad", "--seed", "-1"]) == 2
        assert "invalid input: seed must be non-negative" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("verb,source", [
        ("modal", "clamped-quad"), ("sectprops", "paper-quad"),
        ("mapcheck", "paper-quad"), ("modal", "file")],
        ids=["modal-builtin", "sectprops-builtin", "mapcheck-builtin",
             "case-file"])
    def test_seed_for_other_case_exit_two(self, tmp_path, capsys, verb,
                                          source):
        if source == "file":
            source = write_square_case(tmp_path)
        assert main([verb, "--case", source, "--seed", "7"]) == 2
        assert "invalid input: --seed applies only to the random-quad case" \
            in capsys.readouterr().err

    def test_workers_option_removed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["modal", "--case", "clamped-quad", "--workers", "2"])
        assert exc.value.code == 2
        path = write_square_case(
            tmp_path, lambda doc: doc["analysis"].update(workers=2))
        assert main(["modal", "--case", path]) == 2
        assert "unknown analysis keys ['workers']" in capsys.readouterr().err

    def test_compare_verb_removed(self, capsys):
        # every scheme gives the modal path the same bilinear
        # transformation, so there is no second modal run to compare
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--case", "clamped-quad"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["modal", "--case", "clamped-quad",
                     "--scheme", "all"]) == 2
        err = capsys.readouterr().err
        assert "modal runs use one scheme" in err
        assert "compare" not in err

    def test_json_format(self, capsys):
        code = main(["mapcheck", "--case", "paper-quad", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "mapcheck"

    def test_builtin_listing_is_stable(self):
        names = builtin_case_names()
        for name in BUILTINS:
            assert name in names

    def test_emit_rejects_unknown_format(self):
        with pytest.raises(InvalidCaseError):
            emit(Report(kind="modal", tables={"rows": []}), fmt="xml")


# ---------------------------------------------------------------------------
# case-document fuzzing
# ---------------------------------------------------------------------------

_MATERIAL = {"E": 1365.0, "nu": 0.3, "t": 0.2, "rho": 5.0}
_SINGLE_QUAD = {"name": "fuzz", "material": _MATERIAL,
                "geometry": {"quad": {"vertices": [[0, 0], [8, 0], [4, 3],
                                                   [0, 5]]}},
                "analysis": {"scheme": "all", "gauss": 3}}
_MODAL_DOCS = (
    {"name": "fuzz-quad", "material": _MATERIAL,
     "geometry": {"quad": {"vertices": [[0, 0], [1, 0], [1.2, 0.9], [0, 1]],
                           "meshes": [[2, 2], [3, 4]],
                           "clamped_edges": [0], "ss_edges": [2]},
                  "reference_length": 1.0},
     "analysis": {"modes": 2, "scheme": "pascal6", "gauss": 3,
                  "normalization": "per_pi2", "rotary": False}},
    {"name": "fuzz-triangle", "material": _MATERIAL,
     "geometry": {"triangle": {"vertices": [[0, 0], [1, 0.25], [0, 0.5]],
                               "levels": [1, 2], "clamped_edges": [2]}},
     "analysis": {"modes": 2}},
    {"name": "fuzz-mesh", "material": _MATERIAL,
     "geometry": {"mesh": dict(centered_grid([0.5, 0.45])["mesh"],
                               boundary_sets={"left": {
                                   "condition": "clamped",
                                   "nodes": [0, 3, 6]}})},
     "analysis": {"modes": 1, "mode_shapes": True}},
)
# Replacement values: every type a JSON document can hold, non-finite
# numbers, and no integer above 4, so a mutated mesh stays at most 4x4.
_SWAPS = (None, True, False, "x", "2", [], {}, [1], [[0, 0]], 0, -1, 2.5,
          4, math.nan, math.inf, -math.inf)


def _paths(node, path=()):
    """Every position in a JSON document, the root first."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, path + (index,))


def _scale_numbers(node, factor):
    if isinstance(node, list):
        return [_scale_numbers(value, factor) for value in node]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return node * factor
    return node


def _swap(data):
    return copy.deepcopy(data.draw(st.sampled_from(_SWAPS)))


def _mutate(doc, data):
    """One mutation of ``doc`` at a drawn position: a type swap, a removed
    or an extra entry, a nesting in a list, or every number in it scaled
    by 1e+-160 (a scaled mesh size is fractional or too large to
    allocate, so meshes stay small)."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    kind = data.draw(st.sampled_from(
        ("swap", "remove", "extra", "nest", "scale")))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else doc
    if kind == "swap":
        node = _swap(data)
    elif kind == "remove" and path:
        del parent[path[-1]]
        return doc
    elif kind == "extra" and isinstance(node, dict):
        node[data.draw(st.sampled_from(("extra", "E", "quad", "meshes")))] \
            = _swap(data)
    elif kind == "extra" and isinstance(node, list):
        node.append(copy.deepcopy(node[-1]) if node else _swap(data))
    elif kind == "nest":
        node = [node]
    elif kind == "scale":
        node = _scale_numbers(
            node, data.draw(st.sampled_from((1e160, 1e-160))))
    if not path:
        return node
    parent[path[-1]] = node
    return doc


class TestCaseFuzzing:
    """Mutated case documents end in exit 0, 2 or 3, never an exception;
    the only warnings allowed are the program's own notices."""

    @pytest.mark.filterwarnings("ignore:vertices given clockwise")
    @pytest.mark.filterwarnings("ignore:parallel edge pair")
    @pytest.mark.parametrize("verb", ["sectprops", "mapcheck", "modal"])
    @settings(derandomize=True, max_examples=150, deadline=None,
              database=None)
    @given(data=st.data())
    def test_mutated_documents_exit_cleanly(self, verb, data):
        doc = copy.deepcopy(data.draw(st.sampled_from(_MODAL_DOCS))
                            if verb == "modal" else _SINGLE_QUAD)
        for _ in range(data.draw(st.integers(1, 3))):
            doc = _mutate(doc, data)
        with tempfile.TemporaryDirectory() as directory:
            path = pathlib.Path(directory) / "case.json"
            path.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([verb, "--case", str(path), "--format", "json"])
        assert code in (0, 2, 3), err.getvalue()
