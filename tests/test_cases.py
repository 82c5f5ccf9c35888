import json

import numpy as np
import pytest

from quadplate import InvalidCaseError
from quadplate.cases import (
    Report,
    builtin_case_names,
    emit,
    load_case,
    run_compare,
    run_mapcheck,
    run_modal,
    run_sectprops,
)
from quadplate.cli import main

BUILTINS = ("paper-quad", "cantilever-isosceles", "clamped-isosceles",
            "clamped-equilateral", "clamped-quad", "cantilever-quad")


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
        case = load_case("clamped-quad")
        case.geometry["quad"]["meshes"] = [[2, 2]]
        case.analysis["modes"] = 1
        case.analysis["mode_shapes"] = True
        report = run_modal(case)
        text = report.to_plot()
        blocks = text.strip().split("\n\n")
        assert len(blocks) == 1
        lines = blocks[0].split("\n")
        assert lines[0].startswith("#")
        assert len(lines) == 1 + 4 * 25  # 4 elements, 5x5 grid each
        assert len(lines[1].split()) == 3

    def test_compare_schemes_agree_for_straight_edges(self):
        case = load_case("clamped-quad")
        case.geometry["quad"]["meshes"] = [[2, 2]]
        case.analysis["modes"] = 3
        report = run_compare(case, schemes=("bilinear", "pascal6"))
        for row in report.tables["rows"]:
            assert row["rel_diff"] == 0.0
        csv = report.to_csv()
        assert csv.startswith("mesh,mode,param_bilinear,param_pascal6,")


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
    ], ids=["gauss-text", "E-text", "E-nan", "quad-without-vertices"])
    def test_invalid_case_values_exit_two(self, tmp_path, capsys, edit):
        doc = {
            "material": {"E": 1365.0, "nu": 0.3, "t": 0.2, "rho": 5.0},
            "geometry": {"quad": {"vertices": [[0, 0], [1, 0], [1, 1],
                                               [0, 1]],
                                  "meshes": [[2, 2]],
                                  "clamped_edges": [0, 1, 2, 3]}},
            "analysis": {"modes": 1},
        }
        edit(doc)
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        assert main(["modal", "--case", str(path)]) == 2
        assert "invalid input" in capsys.readouterr().err

    def test_workers_flag_is_a_deprecated_no_op(self, capsys):
        argv = ["modal", "--case", "clamped-quad", "--modes", "2"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        with pytest.warns(FutureWarning, match="deprecated"):
            assert main(argv + ["--workers", "2"]) == 0
        assert capsys.readouterr().out.encode() == plain.encode()

    def test_compare_unknown_scheme_exit_two(self, capsys):
        assert main(["compare", "--case", "clamped-quad",
                     "--schemes", "bilinear,quartic"]) == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_compare_verb(self, capsys):
        code = main(["compare", "--case", "clamped-quad", "--modes", "2",
                     "--schemes", "bilinear,pascal6"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("mesh,mode,param_bilinear,param_pascal6")

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
