import contextlib
import copy
import enum
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadplate.cases
import quadplate.mapping
import quadplate.modal
from quadplate import GlobalSystem, InvalidCaseError, ValidationError
from quadplate.cases import (
    Report,
    _e6_words,
    _json_text,
    builtin_case_names,
    case_meshes,
    emit,
    load_case,
    parse_case,
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
#: replaced; the outputs that depend on the pole natural coordinates
#: (``sectprops`` JSON, ``mapcheck`` CSV and JSON of every quad that
#: builds pascal6) re-recorded from their closed form.
RECORDED_REPORTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "mapping_reports.json")
    .read_text())
#: SHA-256 digests of the ``modal`` CSV of every modal built-in, default
#: and ``--rotary``, recorded from the eigensolver that shifted the dense
#: pencil by 1e-3 ||K|| / ||M||.
RECORDED_MODAL_CSV = json.loads(
    (pathlib.Path(__file__).parent / "data" / "modal_csv.json").read_text())
#: SHA-256 digests of ``modal --shapes`` stdout (``plot`` and ``json``,
#: default and ``--rotary``) of every modal built-in, recorded with BLAS on
#: one thread from the per-line f-string plot formatter.
RECORDED_SHAPES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "modal_shapes.json")
    .read_text())
#: Exit code, stdout and stderr of the CLI's parse-time outcomes (help,
#: an unknown argument, a bad choice, a missing --case, per verb) at
#: COLUMNS=80, recorded when one top-level ``parse_args`` parsed every
#: verb's arguments.
RECORDED_USAGE = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_usage.json").read_text())

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


def _nested_geometry(depth: int) -> dict:
    """A quad geometry block whose containers nest ``depth`` deep, the
    block itself counted: its vertices are lists nested depth - 2 deep."""
    vertices = []
    for _ in range(depth - 3):
        vertices = [vertices]
    return {"quad": {"vertices": vertices}}


class TestCaseCopy:
    """``parse_case`` keeps its own copy of the geometry block, and rejects
    a block nested deeper than any valid one."""

    MATERIAL = {"E": 1.0, "nu": 0.3, "t": 1.0, "rho": 1.0}

    def test_caller_mutation_leaves_the_case_unchanged(self):
        geometry = {"quad": {"vertices": ([0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                          [0.0, 1.0]),
                             "meshes": [[2, 2]], "clamped_edges": [0]}}
        before = copy.deepcopy(geometry)
        case = parse_case({"material": self.MATERIAL, "geometry": geometry})
        geometry["quad"]["vertices"][0][0] = 9.0  # a list inside a tuple
        geometry["quad"]["meshes"][0][1] = 7  # a nested list
        geometry["quad"]["clamped_edges"].append(1)
        geometry["quad"]["ss_edges"] = [2]
        assert case.geometry == before
        assert type(case.geometry["quad"]["vertices"]) is tuple

    def test_depth_bound(self):
        bound = quadplate.cases._GEOMETRY_DEPTH
        assert bound == 5
        parse_case({"material": self.MATERIAL,
                    "geometry": _nested_geometry(bound)})
        with pytest.raises(InvalidCaseError,
                           match="geometry block is nested too deeply"):
            parse_case({"material": self.MATERIAL,
                        "geometry": _nested_geometry(bound + 1)})

    def test_deepest_valid_block_is_at_the_bound(self):
        # geometry, mesh, boundary_sets, one set and its nodes
        mesh = {"nodes": [[0, 0], [1, 0], [1, 1], [0, 1]],
                "elements": [[0, 1, 2, 3]],
                "boundary_sets": {"edge": {"condition": "clamped",
                                           "nodes": [0, 1]}}}
        case = parse_case({"material": self.MATERIAL,
                           "geometry": {"mesh": mesh}})
        [(_, built)] = case_meshes(case)
        assert built.boundary_sets["edge"].nodes == (0, 1)
        mesh["boundary_sets"]["edge"]["nodes"] = [[0], 1]
        with pytest.raises(InvalidCaseError, match="nested too deeply"):
            parse_case({"material": self.MATERIAL,
                        "geometry": {"mesh": mesh}})

    def test_very_deep_block_raises_invalid_case(self):
        vertices = []
        for _ in range(10_000):
            vertices = [vertices]
        with pytest.raises(InvalidCaseError, match="nested too deeply"):
            parse_case({"material": self.MATERIAL,
                        "geometry": {"quad": {"vertices": vertices}}})


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

    @pytest.mark.parametrize("vertices,code,message", [
        ([[0, 0], [4e-160, 0], [3e-160, 2e-160], [0, 3e-160]], 2,
         "invalid input: vertex coordinates span 4.000e-160, too small"),
        ((np.array([[0, 0], [8, 0], [4, 3], [0, 5]]) * 1e-50).tolist(), 0,
         ""),
    ], ids=["quad-4e-160", "paper-quad-1e-50"])
    def test_moments_below_the_normal_range_exit_two(
            self, tmp_path, capsys, vertices, code, message):
        # the moments scale as size^4: about 1e-639 for the first quad,
        # which double holds as 0, and 1e-198 for the second
        path = write_square_case(tmp_path, lambda doc: doc.update(
            geometry={"quad": {"vertices": vertices}}))
        assert main(["sectprops", "--case", path]) == code
        assert message in capsys.readouterr().err

    def test_csv_prints_small_moments_in_exponent_form(self, tmp_path,
                                                       capsys):
        # moments of about 1e-10, which fixed point prints as 0.000000
        path = write_square_case(tmp_path, lambda doc: doc.update(geometry={
            "quad": {"vertices": [[0, 0], [0.008, 0], [0.004, 0.003],
                                  [0, 0.005]]}}))
        assert main(["sectprops", "--case", path, "--scheme", "all",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "scheme,area,i_x1,i_x2,i_x1x2"
        assert [line.split(",")[:3] for line in lines[1:]] == [
            [kind, "0.000022", "9.966667e-11"]
            for kind in ("exact", "bilinear", "serendipity8", "pascal6")]


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

    def test_fixed_residuals_are_a_fresh_computation(self):
        fixed = quadplate.cases._FIXED_RESIDUALS
        shape_sets = (quadplate.mapping._BILINEAR_SHAPES,
                      quadplate.mapping._SERENDIPITY_SHAPES)
        assert set(fixed) == set(shape_sets)
        for shapes in shape_sets:
            unity = shapes.coeffs.sum(axis=0)
            unity[0] -= 1.0
            # on a copy of the nodes, outside the shared monomial tables
            kron = shapes.evaluate(np.array(shapes.nodes)) \
                - np.eye(shapes.coeffs.shape[0])
            assert fixed[shapes] == (float(np.abs(unity).max()),
                                     float(np.abs(kron).max()))

    @pytest.mark.parametrize("vertices", [
        [[0, 0], [4, 0], [3, 1], [1, 1]], [[0, 0], [2, 0], [3, 1], [1, 1]]],
        ids=["trapezoid", "parallelogram"])
    def test_fallback_reports_the_bilinear_residuals(self, vertices):
        # pascal6 falls back to the bilinear shape set: 0.0 and 0.0, as
        # recorded before the fixed sets' residuals became constants
        case = parse_case({"material": TestCaseCopy.MATERIAL,
                           "geometry": {"quad": {"vertices": vertices}}})
        with pytest.warns(UserWarning, match="falls back"):
            schemes = run_mapcheck(case).tables["schemes"]
        assert schemes["pascal6"]["fallback"] is True
        for entry in schemes.values():
            assert entry["partition_of_unity_residual"] == 0.0
            assert entry["kronecker_residual"] == 0.0

    def test_pascal6_residuals_stay_per_quad(self):
        # recorded before the fixed sets' residuals became constants
        case = parse_case({"material": TestCaseCopy.MATERIAL,
                           "geometry": {"quad": {"vertices": [
                               [0, 0], [2, 0], [2.5, 1], [0.5, 1.2]]}}})
        pascal = run_mapcheck(case).tables["schemes"]["pascal6"]
        assert pascal["partition_of_unity_residual"] == 3.5058107486276136e-17
        assert pascal["kronecker_residual"] == 1.7763568394002505e-15

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


@pytest.fixture(scope="module")
def shape_digests():
    """SHA-256 of ``modal --shapes`` stdout for every recorded built-in,
    keyed as ``RECORDED_SHAPES``.  Run in one child process with BLAS on
    one thread, as recorded: the JSON carries the mode shapes to the last
    bit, and those bits follow the BLAS thread count."""
    code = """
import contextlib, hashlib, io, json, sys
from quadplate.cli import main
digests = {}
for name in json.loads(sys.argv[1]):
    for fmt in ("plot", "json"):
        for rotary in ("default", "rotary"):
            argv = ["modal", "--case", name, "--shapes", "--format", fmt]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv + ["--rotary"] * (rotary == "rotary")) == 0
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            digests.setdefault(name, {})[f"{fmt}-{rotary}"] = digest
print(json.dumps(digests))
"""
    src = str(pathlib.Path(__file__).parents[1] / "src")
    one_thread = dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(sorted(RECORDED_SHAPES))],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, **one_thread})
    return json.loads(done.stdout)


def lattice_coordinates() -> np.ndarray:
    """x and y of the mode-shape samples on the 8x8 clamped-quad mesh;
    199 of these 3200 lie within 1e-6 of a half when scaled to seven
    digits (0.02055312499999999 among them)."""
    case = load_case("clamped-quad",
                     overrides={"modes": 1, "mode_shapes": True})
    case.geometry["quad"]["meshes"] = [[8, 8]]
    points = run_modal(case).tables["mode_shapes"][0]["points"]
    return points[:, :2].ravel()


def _e6_cells(values) -> np.ndarray:
    """The (n, 14) ASCII cells of ``_e6_words``, a view of its bytes."""
    return _e6_words(values, " ").view(np.uint8).reshape(-1, 16)[:, :14]


class TestPlotNumbers:
    """``_e6_words``, the plot's number encoder, against ``'%.6e'``."""

    @staticmethod
    def printed(values) -> list:
        cells = _e6_cells(values)
        ends = np.full((len(cells), 1), ord("\n"), dtype=np.uint8)
        text = np.hstack([cells, ends]).tobytes().replace(b"\0", b"")
        return text.decode().split("\n")[:-1]

    def test_matches_printf_byte_for_byte(self):
        rng = np.random.default_rng(24)
        # every bit pattern class: both signs, subnormals, nan payloads
        bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64)
        spread = 10.0 ** rng.uniform(-323.3, 308.25, 50_000) \
            * rng.choice([-1.0, 1.0], 50_000)
        # decimal halves for seven digits, and the doubles next to them
        halves = np.array([
            float(f"{d}5e{k}") for d, k in zip(
                rng.integers(10 ** 6, 10 ** 7, 20_000),
                rng.integers(-330, 301, 20_000))])
        carries = np.array([9.9999995e-6, 9999999.5, 9.9999995, 0.99999995,
                            99999995.0, 9.9999995e100, 9.9999995e-100,
                            9.99999949e289, 9.9999995e-291])
        special = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                   5e-324, -5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, -1.7976931348623157e308,
                   1e-290, 1e290, 1e-289, 9.999999e289]
        near = np.concatenate([halves, carries])
        values = np.concatenate([
            bits.view(np.float64), spread, near, np.nextafter(near, np.inf),
            np.nextafter(near, -np.inf), special, lattice_coordinates()])
        assert values.size >= 200_000
        want = ["%.6e" % v for v in values.tolist()]
        got = self.printed(values)
        wrong = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
        assert len(got) == len(want) and not wrong, \
            [(values[i], got[i], want[i]) for i in wrong[:5]]

    def test_empty_and_shaped_input(self):
        assert _e6_cells(np.empty(0)).shape == (0, 14)
        assert self.printed(np.array([[1.5, -2.0], [0.25, 1e-7]])) == [
            "1.500000e+00", "-2.000000e+00", "2.500000e-01", "1.000000e-07"]

    @pytest.mark.parametrize("separator", [" ", "\n"])
    def test_words_end_in_the_separator(self, separator):
        values = np.array([1.5, -2.0, -1e-300, math.nan, 9.9999995e-6])
        words = _e6_words(values, separator)
        assert words.dtype == np.dtype("<u8") and words.shape == (5, 2)
        cells = words.view(np.uint8).reshape(-1, 16)
        assert np.all(cells[:, 14] == ord(separator))
        assert np.all(cells[:, 15] == 0)
        assert np.array_equal(cells[:, :14], _e6_cells(values))
        assert words.tobytes().replace(b"\0", b"").decode() == "".join(
            "%.6e" % v + separator for v in values.tolist())


class _Level(enum.IntEnum):
    LOW = -3
    HIGH = 2 ** 70


class _Text(str):
    pass


#: JSON documents with the values that print in more than one way: signed
#: zeros, subnormals, the ends of the double range, nan and inf, integers
#: beyond 64 bits, bools, tuples, empty containers at every depth, and
#: strings (keys too) with non-ASCII and control characters.  Subclasses
#: of int and str, and bools and None as list items and dict values, take
#: the writer's recursive path beside the exact types it writes inline.
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 200, 2 ** 200),
    st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.8e308,
                                  -1.8e308, math.nan, math.inf, -math.inf]),
    st.text(), st.sampled_from(["", "\x00\t\n\x1f\x7f", "é ü",
                                "\u2028\U0001f600", '"\\/']),
    st.sampled_from(list(_Level)), st.text().map(_Text),
    st.just([True, None, 1, False, "a", 0.5]),
    st.just({"t": True, "n": None, "i": 0, "f": False, "s": "", "x": 1.0}),
    st.just([]), st.just(()), st.just({}))
_JSON_DOCUMENTS = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=40)


class TestJsonText:
    """``_json_text``, the report writer, against ``json.dumps(indent=2,
    sort_keys=True)``."""

    @staticmethod
    def dumps(value) -> str:
        return json.dumps(value, indent=2, sort_keys=True)

    @settings(derandomize=True, max_examples=400, deadline=None,
              database=None)
    @given(_JSON_DOCUMENTS)
    def test_matches_json_dumps_byte_for_byte(self, document):
        assert _json_text(document) == self.dumps(document)

    def test_numpy_floats_print_as_json_prints_them(self):
        document = {"a": np.float64(0.1), "b": [np.float64(-0.0),
                                                np.float64(math.nan),
                                                np.float64(-math.inf)],
                    "c": {"d": np.float64(1e-320)}}
        assert _json_text(document) == self.dumps(document)
        report = Report("sectprops", meta={"x": np.float64(2.5)})
        assert report.to_json() == self.dumps(report.to_dict()) + "\n"

    @pytest.mark.parametrize("value", [
        object(), {1, 2}, np.int64(3), np.bool_(True), np.array([1.0]),
        {"a": [1, {"b": b"bytes"}]}], ids=[
        "object", "set", "int64", "bool_", "ndarray", "nested-bytes"])
    def test_non_json_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            self.dumps(value)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _json_text(value)


class TestModalReports:
    @pytest.mark.parametrize("rotary", ["default", "rotary"])
    @pytest.mark.parametrize("name", sorted(RECORDED_MODAL_CSV))
    def test_builtin_csv_matches_recorded(self, capsys, name, rotary):
        argv = ["modal", "--case", name, "--format", "csv"]
        assert main(argv + (["--rotary"] if rotary == "rotary" else [])) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() \
            == RECORDED_MODAL_CSV[name][rotary]

    @pytest.mark.parametrize("key", ["plot-default", "plot-rotary",
                                     "json-default", "json-rotary"])
    @pytest.mark.parametrize("name", sorted(RECORDED_SHAPES))
    def test_builtin_shapes_match_recorded(self, shape_digests, name, key):
        assert shape_digests[name][key] == RECORDED_SHAPES[name][key]

    def test_plot_matches_per_line_formula(self):
        # the old per-line f-string, on values at the edges of the double
        # range, decimal halves and their neighbours, carries into the
        # exponent and sampled lattice coordinates that sit within 1e-6 of
        # a half when scaled; two meshes labelled alike with other
        # coordinates (one differing only in the sign of a zero), a mesh
        # labelled otherwise with the first one's coordinates and a block
        # without samples
        def per_line(shapes):
            return "\n\n".join(
                "\n".join([f"# {e['mesh']} mode {e['mode']}"]
                          + [f"{x:.6e} {y:.6e} {z:.6e}"
                             for x, y, z in e["points"].tolist()])
                for e in shapes) + "\n"

        half = float("10553125e-9")
        odd = [-0.0, 1e-300, -1e100, 5e-324, 0.1, half,
               np.nextafter(half, 1.0), np.nextafter(half, 0.0),
               9.9999995e-6, -9999999.5, 0.999999951, math.nan, -math.inf,
               *lattice_coordinates()[:40], 0.0, 1.0]
        first = list(zip(odd, odd[::-1]))
        signed = [(-x if x == 0.0 else x, y) for x, y in first]
        moved = [(x + 1.0, y) for x, y in first]
        shapes = []
        for mesh, xy in (("2x2", first), ("2x2", signed), ("2x2", moved),
                         ("level1", first), ("empty", [])):
            for mode in (1, 2):
                z = odd[mode:] + odd[:mode]
                shapes.append({"mesh": mesh, "mode": mode, "points": np.array(
                    [(x, y, u) for (x, y), u in zip(xy, z)]).reshape(-1, 3)})
        report = Report(kind="modal", tables={"mode_shapes": shapes})
        assert report.to_plot() == per_line(shapes)
        assert "-0.000000e+00 1.000000e+00" in report.to_plot()
        assert "\n0.000000e+00 1.000000e+00" in report.to_plot()

    def test_json_lists_the_sample_arrays(self):
        points = np.array([[0.5, -0.0, 1e-300], [1.0, 2.0, -3.5]])
        shapes = [{"mesh": "1x1", "mode": 1, "points": points}]
        report = Report(kind="modal", tables={"mode_shapes": shapes})
        listed = report.to_dict()["tables"]["mode_shapes"][0]["points"]
        assert listed == points.tolist()
        assert json.loads(report.to_json())["tables"]["mode_shapes"][0] \
            == {"mesh": "1x1", "mode": 1, "points": points.tolist()}
        assert report.tables["mode_shapes"][0]["points"] is points

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

    def test_csv_numbers_outside_fixed_range_in_exponent_form(self):
        values = [0.0, 1e-6, 9.99e-7, -3.2e-199, 999999999999999.9, 1e15,
                  -2.5e301]
        rows = [{"mesh": "m", "mode": 1, "omega": value,
                 "param_plain": value, "param_per_pi2": value}
                for value in values]
        csv = Report(kind="modal", tables={"rows": rows}).to_csv()
        printed = [line.split(",")[2] for line in csv.splitlines()[1:]]
        assert printed == ["0.000000", "0.000001", "9.990000e-07",
                           "-3.200000e-199", "999999999999999.875000",
                           "1.000000e+15", "-2.500000e+301"]

    @pytest.mark.parametrize("length, plain", [
        (1e-100, "3.222322e-199"), (1e150, "3.222322e+301")])
    def test_csv_of_extreme_reference_length(self, tmp_path, capsys, length,
                                             plain):
        path = write_square_case(tmp_path, lambda doc: doc["geometry"]
                                 .update(reference_length=length))
        assert main(["modal", "--case", path]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[3] == plain
        assert float(row[3]) == pytest.approx(float(row[4]) * np.pi ** 2,
                                              rel=1e-6)

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
        assert json.loads(report.to_json()) == report.to_dict()

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
            samples = mode_shape_samples(reduced, modes)
            assert samples.shape == (3, n_elements * 25, 3)
            for j, entry in enumerate(report.tables["mode_shapes"]):
                assert np.array_equal(entry["points"].view(np.uint64),
                                      samples[j].view(np.uint64))
                alone = mode_shape_samples(reduced, modes[:, [j]])[0]
                assert np.array_equal(alone.view(np.uint64),
                                      samples[j].view(np.uint64))
                # every mode samples at the same coordinates
                assert np.array_equal(samples[j, :, :2], samples[0, :, :2])

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

    @pytest.mark.parametrize("name", ["clamped-quad",
                                      "cantilever-isosceles"])
    def test_one_geometry_pass_per_mesh(self, monkeypatch, name):
        # assembly's element geometry rides on the system to the sampler
        real = quadplate.modal._element_geometry
        calls = []

        def counting(mesh):
            calls.append(mesh)
            return real(mesh)

        monkeypatch.setattr(quadplate.modal, "_element_geometry", counting)
        case = load_case(name)
        case.analysis["mode_shapes"] = True
        report = run_modal(case)
        meshes = [entry["mesh"] for entry in report.tables["meshes"]]
        assert len(meshes) == len(case_meshes(case)) > 1
        assert {entry["mesh"] for entry in report.tables["mode_shapes"]} \
            == set(meshes)
        assert len(calls) == len(meshes)
        assert len({id(mesh) for mesh in calls}) == len(meshes)

    def test_system_without_geometry_rejected(self):
        # apply_bcs carries assembly's elements and geometry; a hand-built
        # system has none to sample
        case = load_case("clamped-quad")
        (_, mesh), *_ = case_meshes(case)
        system = assemble(mesh, case.material)
        reduced = apply_bcs(system, mesh)
        assert reduced.geometry is system.geometry
        assert reduced.geometry[0] is mesh.elements
        hand_built = GlobalSystem(k=reduced.k, m=reduced.m,
                                  dof_map=reduced.dof_map,
                                  scale=reduced.scale)
        modes = solve_modes(hand_built, 1).modes
        with pytest.raises(ValidationError, match="element geometry"):
            mode_shape_samples(hand_built, modes)

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


class TestCsvColumns:
    """``Report.to_csv`` of hand-built reports: the ``modal`` and
    ``sectprops`` layouts print their columns in a fixed order and every
    float by ``%.6f``, or ``%.6e`` outside 1e-6 <= |x| < 1e15."""

    def test_modal_row(self):
        row = {"param_per_pi2": 2e15, "omega": 0.0, "mode": 3,
               "param_plain": 5e-7, "mesh": "8x8"}
        assert Report(kind="modal", tables={"rows": [row]}).to_csv() == (
            "mesh,mode,omega,param_plain,param_per_pi2\n"
            "8x8,3,0.000000,5.000000e-07,2.000000e+15\n")

    def test_sectprops_rows(self):
        exact = {"area": 22.0, "i_x1": 1e-10, "i_x2": 250.0, "i_x1x2": -0.5}
        schemes = [dict(exact, scheme=kind, i_x1=value, delta_i_x1=1e-9)
                   for kind, value in (("bilinear", 3e-7), ("pascal6", 4.0))]
        report = Report(kind="sectprops",
                        tables={"exact": exact, "schemes": schemes})
        assert report.to_csv() == (
            "scheme,area,i_x1,i_x2,i_x1x2\n"
            "exact,22.000000,1.000000e-10,250.000000,-0.500000\n"
            "bilinear,22.000000,3.000000e-07,250.000000,-0.500000\n"
            "pascal6,22.000000,4.000000,250.000000,-0.500000\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidCaseError, match="no CSV layout"):
            Report(kind="compare", tables={"rows": []}).to_csv()

    def test_modal_without_rows_gives_header(self):
        csv = Report(kind="modal", tables={"rows": []}).to_csv()
        assert csv == "mesh,mode,omega,param_plain,param_per_pi2\n"
        assert len(csv.encode()) == 42


class TestCli:
    @pytest.mark.parametrize("name", sorted(RECORDED_USAGE))
    def test_parse_bytes_match_recording(self, name, monkeypatch, capsys):
        # an unknown argument is the top-level parser's error: its usage
        # line, not the verb's
        monkeypatch.setenv("COLUMNS", "80")
        entry = RECORDED_USAGE[name]
        try:
            code = main(entry["argv"])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == (entry["exit"], entry["stdout"],
                                    entry["stderr"])

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
         2, "invalid input: plate magnitudes beyond the double range: "
            "D = inf, rho t = 5.000e+160"),
        ("modal", lambda doc: doc["material"].update(E=1e160),
         2, "invalid input: plate magnitudes beyond the double range: "
            "D = 7.326e+156"),
        ("modal", lambda doc: doc["geometry"]["quad"].update(
            vertices=[[0, 0], [1e-160, 0], [1e-160, 1e-160], [0, 1e-160]]),
         2, "D / (rho t L^4) = inf"),
        ("modal", lambda doc: doc["geometry"]["quad"].update(
            vertices=[[0, 0], [1e150, 0], [1e150, 1e150], [0, 1e150]]),
         2, "D / (rho t L^4) = 0.000e+00"),
    ], ids=["quad-1e160", "quad-1e-170", "thickness-1e160", "E-1e160",
            "mesh-1e-160", "mesh-1e150"])
    def test_magnitudes_beyond_double_range_exit_cleanly(
            self, tmp_path, capsys, verb, edit, code, message):
        # no numpy warning escapes, and no OverflowError traceback
        path = write_square_case(tmp_path, edit)
        assert main([verb, "--case", path]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["material"].update(E=1e150), None),
        (lambda doc: doc["material"].update(E=1e-160), None),
        (lambda doc: doc["geometry"]["quad"].update(
            vertices=[[0, 0], [1e-50, 0], [1e-50, 1e-50], [0, 1e-50]]), None),
        (lambda doc: doc["material"].update(E=1e155),
         "overflow encountered in dot"),
        (lambda doc: doc["material"].update(E=1e-170),
         "float division by zero"),
        (lambda doc: doc["geometry"]["quad"].update(
            vertices=[[0, 0], [1e-60, 0], [1e-60, 1e-60], [0, 1e-60]]),
         "overflow encountered in dot"),
        (lambda doc: doc["geometry"]["quad"].update(
            vertices=[[0, 0], [1e-70, 0], [1e-70, 1e-70], [0, 1e-70]]),
         "overflow encountered in dot"),
    ], ids=["E-1e150", "E-1e-160", "mesh-1e-50", "E-1e155", "E-1e-170",
            "mesh-1e-60", "mesh-1e-70"])
    def test_plates_inside_the_range_rule(self, tmp_path, capsys, edit,
                                          message):
        # characterization, not a goal: these plates pass the range rule
        # of the plate magnitudes, and some of them still overflow in the
        # solve (the norm of K, the eigen-residual norms) or divide by
        # zero; a change to the rule or to the solve shows up here
        def cantilever(doc):
            doc["geometry"]["quad"]["clamped_edges"] = [0]
            edit(doc)

        path = write_square_case(tmp_path, cantilever)
        code = main(["modal", "--case", path])
        err = capsys.readouterr().err
        if message is None:
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (3, f"quadplate: numerical failure: "
                                      f"{message} (input magnitudes beyond "
                                      "the floating-point range)\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["geometry"]["quad"].update(meshes=[]),
         "quad meshes lists no mesh size"),
        (lambda doc: doc.update(geometry={"triangle": {
            "vertices": [[0, 0], [1, 0.25], [0, 0.5]], "levels": []}}),
         "triangle levels lists no level"),
    ], ids=["quad-meshes", "triangle-levels"])
    def test_empty_mesh_list_exit_two(self, tmp_path, capsys, edit, message):
        # a case without a mesh is bad input, not a header-only table
        path = write_square_case(tmp_path, edit)
        assert main(["modal", "--case", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

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
            "reference-length-pair", "vertex-coordinate-list"])
    def test_invalid_case_values_exit_two(self, tmp_path, capsys, edit):
        path = write_square_case(tmp_path, edit)
        assert main(["modal", "--case", path]) == 2
        assert "invalid input" in capsys.readouterr().err

    def test_thin_quad_exit_zero(self, tmp_path, capsys):
        # grid lines 5e-11 apart, within 1e-9 of the unit-length edges:
        # each clamped edge still takes only its 3 lattice nodes, leaving
        # the center node's 3 DOFs
        path = write_square_case(tmp_path, lambda doc: doc["geometry"]["quad"]
                                 .update(vertices=[[0, 0], [1, 0], [1, 1e-10],
                                                   [0, 1e-10]]))
        assert main(["modal", "--case", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tables"]["meshes"][0]["n_dofs"] == 3
        [(_, mesh)] = case_meshes(load_case(path))
        assert [len(bset.nodes) for bset in mesh.boundary_sets.values()] \
            == [3, 3, 3, 3]

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(nmae="x"), "case keys ['nmae']"),
        (lambda doc: doc["material"].update(G=525.0),
         "material keys ['G']"),
        (lambda doc: doc["geometry"].update(refrence_length=2.0),
         "geometry keys ['refrence_length']"),
        (lambda doc: doc["geometry"]["quad"].update(
            clamped_edge=doc["geometry"]["quad"].pop("clamped_edges")),
         "quad keys ['clamped_edge']"),
        (lambda doc: doc.update(geometry={"triangle": {
            "vertices": [[0, 0], [1, 0.25], [0, 0.5]], "level": [1]}}),
         "triangle keys ['level']"),
        (lambda doc: doc.update(geometry={"mesh": dict(
            square_mesh({})["mesh"], boundary_set={})}),
         "mesh keys ['boundary_set']"),
        (lambda doc: doc.update(geometry=square_mesh({"edge": {
            "condition": "clamped", "nodes": [0, 1], "note": "x"}})),
         "boundary set keys ['note']"),
    ], ids=["case", "material", "geometry", "quad", "triangle", "mesh",
            "boundary-set"])
    def test_unknown_keys_exit_two(self, tmp_path, capsys, edit, message):
        # a misspelled key would otherwise run with its default: a free
        # plate for clamped_edge, a reference length of 1 for
        # refrence_length
        path = write_square_case(tmp_path, edit)
        assert main(["modal", "--case", path]) == 2
        assert f"invalid input: unknown {message}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("verb", ["sectprops", "mapcheck", "modal"])
    @pytest.mark.parametrize("key, value, message", [
        ("meshes", [[True, True]], "mesh size must be an integer, got True"),
        ("clamped_edges", [4], "edge index 4 out of range"),
        ("clamped_edges", [True], "edge index must be an integer, got True"),
        ("ss_edges", [1.5], "edge index must be an integer, got 1.5"),
    ], ids=["mesh-size-bool", "edge-4", "edge-bool", "edge-fraction"])
    def test_quad_block_checked_on_every_verb(self, tmp_path, capsys, verb,
                                              key, value, message):
        def edit(doc):
            block = doc["geometry"]["quad"]
            if verb != "modal":
                del block["meshes"]
            block[key] = value

        path = write_square_case(tmp_path, edit)
        assert main([verb, "--case", path]) == 2
        assert f"invalid input: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["sectprops", "mapcheck"])
    def test_single_quad_verb_names_the_source_it_got(self, capsys, verb):
        assert main([verb, "--case", "cantilever-isosceles"]) == 2
        assert "needs a single-quad geometry, not a triangle" \
            in capsys.readouterr().err

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

    @pytest.mark.parametrize("vertices,det", [
        ([[0, 0], [4, 0], [1, 1], [0, 4]], "-2.000e+00"),
        ([[0, 0], [4, 0], [1.9, 1.9], [0, 4]], "-2.000e-01"),
    ], ids=["folded", "folded-near-diagonal"])
    def test_mapcheck_of_irregular_quad_exit_three(self, tmp_path, capsys,
                                                   vertices, det):
        path = write_square_case(tmp_path, lambda doc: doc.update(geometry={
            "quad": {"vertices": vertices}}))
        assert main(["mapcheck", "--case", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure: element 0: folded element: det J = " \
            f"{det} at theta=(1.0, 1.0)" in captured.err

    def test_folded_single_quad_exit_three(self, tmp_path, capsys):
        # sectprops applies the corner rule of mesh elements; the second
        # quad folds only between the Gauss points, where det J stays
        # positive
        for third, det in (([1, 1], "-2.000e+00"), ([1.9, 1.9], "-2.000e-01")):
            path = write_square_case(tmp_path, lambda doc: doc.update(
                geometry={"quad": {"vertices": [[0, 0], [4, 0], third,
                                                [0, 4]]}}))
            assert main(["sectprops", "--case", path]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "numerical failure: element 0: folded element: det J = " \
                f"{det} at theta=(1.0, 1.0)" in captured.err
            assert "np.float64" not in captured.err

    @pytest.mark.parametrize("verb", ["sectprops", "mapcheck", "modal"])
    @pytest.mark.parametrize("vertices,code,message", [
        ([[0, 0], [0.5, 0], [1, 0], [0, 1]], 2,
         "invalid input: element 0: degenerate corner: det J = 0.000e+00 "
         "at theta=(1.0, -1.0)"),
        ([[0, 0], [4, 0], [1, 1], [0, 4]], 3,
         "numerical failure: element 0: folded element: det J = "
         "-2.000e+00 at theta=(1.0, 1.0)"),
    ], ids=["straight-corner", "folded"])
    def test_single_quad_corner_rule_matches_mesh(self, tmp_path, capsys,
                                                  verb, vertices, code,
                                                  message):
        # a single quad meets the corner rule of a 1x1 modal mesh
        path = write_square_case(tmp_path, lambda doc: doc.update(geometry={
            "quad": {"vertices": vertices}}))
        assert main([verb, "--case", path]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("content", [
        b"\xff\xfe", b"[" * 200_000 + b"]" * 200_000, None,
    ], ids=["non-utf8", "deep-nesting", "directory"])
    def test_unreadable_case_file_exit_two(self, tmp_path, capsys, content):
        path = tmp_path
        if content is not None:
            path = tmp_path / "case.json"
            path.write_bytes(content)
        assert main(["sectprops", "--case", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"invalid input: cannot read case file {path}: " in err
        assert "Traceback" not in err

    def test_deeply_nested_geometry_exit_two(self, tmp_path, capsys):
        # within the JSON decoder's nesting limit, beyond deepcopy's
        path = write_square_case(tmp_path, lambda doc: doc.update(geometry={
            "quad": {"vertices": json.loads("[" * 600 + "]" * 600)}}))
        assert main(["sectprops", "--case", path]) == 2
        assert "invalid input: geometry block is nested too deeply" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["sectprops", "mapcheck", "modal"])
    def test_negative_seed_exit_two(self, capsys, verb):
        assert main([verb, "--case", "random-quad", "--seed", "-1"]) == 2
        assert "invalid input: seed must be non-negative" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["sectprops", "mapcheck"])
    def test_far_pole_quad_exit_zero(self, capsys, verb):
        # a valid convex quad whose p6 lies about 1.3e5 diameters away
        assert main([verb, "--case", "random-quad", "--seed", "2532"]) == 0
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("scheme", ["bilinear", "all"])
    def test_scheme_for_mapcheck_exit_two(self, capsys, scheme):
        assert main(["mapcheck", "--case", "paper-quad",
                     "--scheme", scheme]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid input: mapcheck reports every scheme" \
            in captured.err

    def test_gauss_for_mapcheck_exit_two(self, capsys):
        # mapcheck compares maps point by point and integrates nothing
        assert main(["mapcheck", "--case", "paper-quad", "--gauss", "5"]) \
            == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid input: mapcheck uses no quadrature" in captured.err

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

    @pytest.mark.parametrize("verb", ["sectprops", "mapcheck"])
    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-11])
    def test_near_parallel_edges_fall_back_exit_zero(self, tmp_path, capsys,
                                                     verb, eps):
        # p5 is finite but so far out that the pascal interpolation matrix
        # is rejected: pascal6 falls back as for exactly parallel edges
        path = write_square_case(tmp_path, lambda doc: doc.update(geometry={
            "quad": {"vertices": [[0, 0], [2, 0], [1.5, 1],
                                  [0.5, 1 + eps]]}}))
        with pytest.warns(UserWarning, match="falls back"):
            code = main([verb, "--case", path, "--format", "json"])
        assert code == 0
        tables = json.loads(capsys.readouterr().out)["tables"]
        if verb == "mapcheck":
            assert tables["schemes"]["pascal6"]["fallback"] is True
            assert tables["poles"]["parallel_flags"] == [False, False]
        else:
            assert [row["scheme"] for row in tables["schemes"]] == ["pascal6"]

    @pytest.mark.parametrize("generator", ["mesh_quad", "mesh_triangle"])
    def test_mesh_beyond_memory_exit_two(self, tmp_path, capsys, monkeypatch,
                                         generator):
        # a mesh such as meshes [[1000000, 1000000]] cannot be allocated;
        # the generator is stubbed so that nothing large is allocated here
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(quadplate.cases, generator, refuse)
        path = write_square_case(tmp_path, lambda doc: doc.update(geometry={
            "triangle": {"vertices": [[0, 0], [1, 0.25], [0, 0.5]],
                         "levels": [1]}}) if generator == "mesh_triangle"
            else None)
        assert main(["modal", "--case", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("quadplate: invalid input: case too large "
                                "for the available memory (Unable to "
                                "allocate 7.28 TiB for an array)\n")

    @pytest.mark.parametrize("length,code", [
        (1e154, 2), (1e-160, 2), (1e-170, 2), (1e153, 0), (1e-100, 0)])
    def test_reference_length_range(self, tmp_path, capsys, length, code):
        # 1e154 overflows the parameter, 1e-160 makes it subnormal and
        # 1e-170 rounds it to 0
        path = write_square_case(tmp_path, lambda doc: doc["geometry"]
                                 .update(reference_length=length))
        assert main(["modal", "--case", path, "--format", "json"]) == code
        captured = capsys.readouterr()
        if code:
            assert "invalid input: reference_length" in captured.err
            assert captured.out == ""
        else:
            assert captured.err == ""
            rows = json.loads(captured.out)["tables"]["rows"]
            assert rows and all(
                np.finfo(float).tiny <= row[key] < math.inf
                for row in rows for key in ("param_plain", "param_per_pi2"))

    @pytest.mark.parametrize("verb,analysis,message", [
        ("mapcheck", {"gauss": 9}, "Gauss order must be in 1..6, got 9"),
        ("sectprops", {"gauss": 0}, "Gauss order must be in 1..6, got 0"),
        ("sectprops", {"modes": -1}, "mode count must be non-negative"),
        ("mapcheck", {"modes": -1}, "mode count must be non-negative"),
    ], ids=["mapcheck-gauss", "sectprops-gauss", "sectprops-modes",
            "mapcheck-modes"])
    def test_unread_analysis_values_checked(self, tmp_path, capsys, verb,
                                            analysis, message):
        # every verb checks gauss and modes, also those that do not use them
        path = write_square_case(tmp_path, lambda doc: doc.update(
            geometry={"quad": {"vertices": [[0, 0], [8, 0], [4, 3],
                                            [0, 5]]}},
            analysis=analysis))
        assert main([verb, "--case", path]) == 2
        assert f"invalid input: {message}" in capsys.readouterr().err

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
