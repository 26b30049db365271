import json
import math
from collections import Counter

import numpy as np
import pytest

from convexinfo import cli
from convexinfo.errors import LpNumericalError, ValidationError


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"kind": "regular_polygon", "n": 4}))
    return str(path)


@pytest.fixture()
def quad_file(tmp_path):
    path = tmp_path / "quad.json"
    path.write_text(json.dumps({"kind": "custom_polytope",
                                "vertices": [[1, 0], [-1, 0], [0, 1], [0, -2]]}))
    return str(path)


@pytest.fixture()
def ensemble_file(tmp_path):
    path = tmp_path / "zero_plus.json"
    doc = {"weights": [0.5, 0.5],
           "states": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                      [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]]}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def rho_file(tmp_path):
    path = tmp_path / "rho.json"
    path.write_text(json.dumps([[[0.7, 0], [0, 0]], [[0, 0], [0.3, 0]]]))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_entropy_value(capsys):
    code, out, _ = run(capsys, ["entropy", "--pair", "shannon", "--p", "0.5,0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(math.log(2), abs=1e-9)


def test_entropy_bits_flag(capsys):
    code, out, _ = run(capsys, ["entropy", "--pair", "shannon", "--p", "0.5,0.5", "--bits"])
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-9)


def test_entropy_general_on_model(capsys, quad_file):
    code, out, _ = run(capsys, ["entropy", "--model", quad_file, "--state", "0,0",
                                "--general"])
    assert code == 0
    doc = json.loads(out)
    assert doc["spectral_entropy"] == pytest.approx(0.636514, abs=1e-5)
    assert doc["frame_entropy"] == pytest.approx(0.636514, abs=1e-5)
    assert doc["argmin_frame"] == [2, 3]


def test_spectrum_square_center(capsys, square_file):
    code, out, _ = run(capsys, ["spectrum", "--model", square_file, "--state", "0,0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["exists"] is True
    assert doc["weights"] == [0.5, 0.5]


def test_spectrum_no_majorant_plain_and_strict(capsys, quad_file):
    code, out, _ = run(capsys, ["spectrum", "--model", quad_file, "--state", "0.4,0.25"])
    assert code == 0
    assert json.loads(out)["exists"] is False
    code, out, err = run(capsys, ["spectrum", "--model", quad_file,
                                  "--state", "0.4,0.25", "--strict"])
    assert code == 3
    assert out == ""
    assert "majorant" in err


def test_qentropy_min_search(capsys, rho_file):
    argv = ["qentropy", "--rho", rho_file, "--min-search", "--budget", "200",
            "--seed", "7"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(0.610864, abs=1e-6)
    assert doc["search_value"] == pytest.approx(doc["value"], abs=1e-9)


def test_majorize_classical(capsys):
    code, out, _ = run(capsys, ["majorize", "--p", "0.5,0.5", "--q", "1,0"])
    assert json.loads(out)["majorized"] is True
    code, out, _ = run(capsys, ["majorize", "--p", "0.6,0.4", "--q", "0.5,0.5"])
    assert json.loads(out)["majorized"] is False


def test_majorize_on_model(capsys, square_file):
    code, out, _ = run(capsys, ["majorize", "--model", square_file,
                                "--state", "0,0", "--other", "1,0"])
    assert json.loads(out) == {"majorized": True, "defined": True}


def test_majorize_undefined_spectrum(capsys, quad_file):
    argv = ["majorize", "--model", quad_file, "--state", "0,0", "--other", "0.4,0.25"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert json.loads(out) == {"majorized": None, "defined": False}
    code, _, err = run(capsys, argv + ["--strict"])
    assert code == 3


def test_frames_square(capsys, square_file):
    code, out, _ = run(capsys, ["frames", "--model", square_file])
    doc = json.loads(out)
    assert [f["vertices"] for f in doc["frames"]] == [[0, 2], [1, 3]]


def test_holevo(capsys, ensemble_file):
    code, out, _ = run(capsys, ["holevo", "--ensemble", ensemble_file])
    doc = json.loads(out)
    assert doc["chi"] == pytest.approx(0.4164955307, abs=1e-9)
    assert doc["hx"] == pytest.approx(math.log(2), abs=1e-9)
    assert doc["strict_gap"] is True


def test_holevo_bits(capsys, ensemble_file):
    code, out, _ = run(capsys, ["holevo", "--ensemble", ensemble_file, "--bits"])
    doc = json.loads(out)
    assert doc["chi"] == pytest.approx(0.6008760367, abs=1e-9)


def test_separable_pr_box_and_product(capsys, tmp_path, square_file):
    from convexinfo import ProductSpace, build_model, pr_box
    square = build_model("regular_polygon", n=4)
    ps = ProductSpace(square, square)
    box_path = tmp_path / "box.json"
    box_path.write_text(json.dumps({"table": [list(r) for r in pr_box(ps).as_array()]}))
    code, out, _ = run(capsys, ["separable", "--model-a", square_file,
                                "--model-b", square_file, "--joint", str(box_path)])
    doc = json.loads(out)
    assert doc["separable"] is False
    assert doc["max_member"] is True
    assert doc["classification"] == "entangled"

    prod_path = tmp_path / "prod.json"
    table = np.outer(square.vertex_array()[0], square.vertex_array()[1])
    prod_path.write_text(json.dumps([list(r) for r in table]))
    code, out, _ = run(capsys, ["separable", "--model-a", square_file,
                                "--model-b", square_file, "--joint", str(prod_path)])
    doc = json.loads(out)
    assert doc["separable"] is True
    assert doc["witness"] == [{"a": 0, "b": 1, "weight": 1.0}]


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, ["sweep", "--family", "renyi", "--grid", "0.5:0.9:5",
                                "--p", "0.5,0.3,0.2"])
    lines = out.strip().split("\n")
    assert lines[0] == "parameter,value"
    assert len(lines) == 6
    for line in lines[1:]:
        parameter, value = line.split(",")
        float(parameter), float(value)


def test_sweep_bits_divides_each_nat_row_by_ln2(capsys):
    argv = ["sweep", "--family", "tsallis", "--grid", "0.5:2.5:3", "--p", "0.5,0.3,0.2"]
    _, nats, _ = run(capsys, argv)
    code, bits, _ = run(capsys, [*argv, "--bits"])
    assert code == 0
    nat_rows, bit_rows = ([[float(x) for x in line.split(",")] for line in out.split()[1:]]
                          for out in (nats, bits))
    assert len(bit_rows) == 3
    assert bit_rows == [[parameter, pytest.approx(value / math.log(2), rel=1e-11)]
                        for parameter, value in nat_rows]


@pytest.mark.parametrize("argv, shown", [
    (["sweep", "--family", "renyi", "--grid", "a:1:3", "--p", "0.5,0.5"],
     "--grid expects numbers in start:stop:count, got 'a:1:3'"),
    (["sweep", "--family", "renyi", "--grid", "0.5:1:0", "--p", "0.5,0.5"],
     "--grid count must be >= 1"),
    (["holevo", "--ensemble", "MISSING"], "--ensemble: cannot read 'MISSING': "),
    (["holevo", "--ensemble", "NO_STATES"],
     "--ensemble expects {weights: [...], states: [matrix, ...]}"),
    (["entropy"], "entropy needs --p, or --model with --state"),
    (["entropy", "--model", "SQUARE", "--state", "0,0"],
     "model entropies need --general (prints both definitions)"),
    (["majorize", "--p", "0.5,0.5"], "majorize needs --p/--q, or --model/--state/--other"),
], ids=["non-numeric grid", "grid count 0", "unreadable json", "ensemble without states",
        "entropy without input", "model entropy without --general", "majorize without pairs"])
def test_usage_problems_exit_2_with_their_message(capsys, tmp_path, square_file, argv, shown):
    no_states = tmp_path / "no_states.json"
    no_states.write_text(json.dumps({"weights": [0.5, 0.5]}))
    files = {"MISSING": str(tmp_path / "missing.json"), "NO_STATES": str(no_states),
             "SQUARE": square_file}
    shown = shown.replace("MISSING", files["MISSING"])
    code, out, err = run(capsys, [files.get(arg, arg) for arg in argv])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {shown}")


def test_validation_errors_exit_2(capsys, square_file):
    code, _, err = run(capsys, ["entropy", "--pair", "shannon", "--p", "0.5,0.6"])
    assert code == 2 and "error" in err
    code, _, err = run(capsys, ["entropy", "--pair", "renyi:1.0", "--p", "0.5,0.5"])
    assert code == 2
    code, _, err = run(capsys, ["entropy", "--pair", "shannon", "--p", "a,b"])
    assert code == 2 and "--p" in err
    code, _, err = run(capsys, ["spectrum", "--model", square_file, "--state", "5,5"])
    assert code == 2
    code, _, err = run(capsys, ["sweep", "--family", "renyi", "--grid", "bad",
                                "--p", "0.5,0.5"])
    assert code == 2 and "--grid" in err


@pytest.mark.parametrize("argv, shown", [
    (["sweep", "--family", "renyi", "--grid", "1.5:3:1000000000000", "--p", "0.5,0.5"],
     "--grid count 1000000000000 exceeds the cap 10000"),
    (["sweep", "--family", "renyi", "--grid", "1.5:3:10001", "--p", "0.5,0.5"],
     "--grid count 10001 exceeds the cap 10000"),
    (["qentropy", "--min-search", "--budget", "1000000000000"],
     "budget 1000000000000 exceeds the cap 100000"),
])
def test_sizes_over_their_caps_exit_2_before_any_work(capsys, rho_file, argv, shown):
    # rejected before anything of that size is allocated or looped over
    if argv[0] == "qentropy":
        argv = [*argv, "--rho", rho_file]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "") and shown in err


def test_sweep_at_its_cap(capsys):
    code, out, _ = run(capsys, ["sweep", "--family", "tsallis", "--grid",
                                f"0.5:0.9:{cli.MAX_GRID_POINTS}", "--p", "0.5,0.5"])
    assert code == 0 and len(out.strip().split("\n")) == cli.MAX_GRID_POINTS + 1


def test_non_finite_state_exits_2(capsys, square_file):
    code, out, err = run(capsys, ["spectrum", "--model", square_file, "--state", "nan,0"])
    assert code == 2 and out == "" and "[nan, 0.0] is not finite" in err


def test_lp_numerical_error_exits_4(capsys, monkeypatch, square_file):
    # a numerical failure on a valid model is not bad input
    def failing(space):
        raise LpNumericalError("solution violates a >= constraint")

    monkeypatch.setattr(cli, "enumerate_frames", failing)
    code, out, err = run(capsys, ["frames", "--model", square_file])
    assert code == 4 and out == "" and "violates a >= constraint" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["spectrum"])  # missing required flags
    assert err.value.code == 2


def test_deterministic_output(capsys, square_file, rho_file):
    outputs = set()
    for _ in range(5):
        _, out, _ = run(capsys, ["spectrum", "--model", square_file, "--state", "0,0"])
        outputs.add(out)
        _, out2, _ = run(capsys, ["qentropy", "--rho", rho_file, "--min-search",
                                  "--budget", "150", "--seed", "9"])
        outputs.add(out2)
    assert len(outputs) == 2


def test_round12_rejects_non_finite():
    with pytest.raises(ValidationError):
        cli._round12(float("inf"))
    with pytest.raises(ValidationError):
        cli._round12({"x": float("nan")})


def test_custom_pair_file(capsys, tmp_path):
    xs = list(np.linspace(0.0, 1.0, 2001))
    desc = {
        "regime": "h-increasing/phi-concave",
        "phi": {"x": xs, "y": [-x * math.log(x) if x > 0 else 0.0 for x in xs]},
        "h": {"x": [0.0, math.log(16)], "y": [0.0, math.log(16)]},
        "name": "tabulated",
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(desc))
    code, out, _ = run(capsys, ["entropy", "--pair-file", str(path), "--p", "0.5,0.5"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(math.log(2), abs=1e-5)


def test_holevo_with_povm_file(capsys, tmp_path, ensemble_file):
    povm_path = tmp_path / "povm.json"
    povm_path.write_text(json.dumps([
        [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
        [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
    ]))
    code, out, _ = run(capsys, ["holevo", "--ensemble", ensemble_file,
                                "--povm", str(povm_path)])
    doc = json.loads(out)
    assert doc["accessible"] == pytest.approx(0.215761, abs=1e-5)
    assert doc["accessible"] <= doc["chi"] + 1e-9


def test_entropy_general_handles_missing_spectrum(capsys, quad_file):
    argv = ["entropy", "--model", quad_file, "--state", "0.4,0.25", "--general"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["spectral_entropy"] is None
    assert doc["frame_entropy"] > 0.0
    code, _, err = run(capsys, argv + ["--strict"])
    assert code == 3


def test_lp_debug_subcommand(capsys, tmp_path):
    path = tmp_path / "lp.json"
    path.write_text(json.dumps({
        "objective": [1.0],
        "constraints": [[[1.0], "<=", 3.0]],
        "maximize": True,
    }))
    code, out, _ = run(capsys, ["lp", "--file", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "optimal"
    assert doc["value"] == 3.0


def _write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_model_document_missing_n_exits_2(capsys, tmp_path):
    model = _write_json(tmp_path, "m.json", {"kind": "regular_polygon"})
    code, out, err = run(capsys, ["spectrum", "--model", model, "--state", "0,0"])
    assert code == 2 and out == "" and "'n'" in err


def test_model_document_missing_vertices_exits_2(capsys, tmp_path):
    model = _write_json(tmp_path, "m.json", {"kind": "custom_polytope"})
    code, out, err = run(capsys, ["frames", "--model", model])
    assert code == 2 and out == "" and "'vertices'" in err


def test_model_document_with_fractional_n_exits_2(capsys, tmp_path):
    model = _write_json(tmp_path, "m.json", {"kind": "regular_polygon", "n": 4.7})
    code, out, err = run(capsys, ["frames", "--model", model])
    assert code == 2 and out == "" and "integer n" in err


def test_model_document_not_an_object_exits_2(capsys, tmp_path):
    model = _write_json(tmp_path, "m.json", [[1, 0], [0, 1]])
    code, out, err = run(capsys, ["frames", "--model", model])
    assert code == 2 and out == "" and "object" in err


def test_separable_non_numeric_cell_exits_2(capsys, tmp_path, square_file):
    table = [[0.25] * 3 for _ in range(3)]
    table[1][2] = "x"
    joint = _write_json(tmp_path, "joint.json", {"table": table})
    code, out, err = run(capsys, ["separable", "--model-a", square_file,
                                  "--model-b", square_file, "--joint", joint])
    assert code == 2 and out == "" and "--joint" in err


def test_lp_file_without_constraints_exits_2(capsys, tmp_path):
    path = _write_json(tmp_path, "lp.json", {"objective": [1.0], "maximize": True})
    code, out, err = run(capsys, ["lp", "--file", path])
    assert code == 2 and out == "" and "--file" in err


def test_sweep_failing_row_prints_nothing(capsys):
    # alpha = 1 is not a Renyi parameter; the rows before it must not leak out
    code, out, err = run(capsys, ["sweep", "--family", "renyi", "--grid", "0.5:1.0:3",
                                  "--p", "0.5,0.5"])
    assert code == 2 and out == "" and "error" in err


@pytest.mark.parametrize("verdict", ["entangled", "not-a-state"])
def test_separable_decides_max_tensor_membership_once(capsys, tmp_path, monkeypatch,
                                                      square_file, verdict):
    from convexinfo import ProductSpace, build_model, composites, pr_box
    square = build_model("regular_polygon", n=4)
    if verdict == "entangled":
        table = pr_box(ProductSpace(square, square)).as_array()
    else:
        table = np.outer([2.0, 0.0, 1.0], square.vertex_array()[0])  # outside A's square
    calls = Counter()
    for name in ("separable_witness", "max_tensor_member"):
        def counted(*args, _name=name, _original=getattr(composites, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(composites, name, counted)
        monkeypatch.setattr(cli, name, counted)
    joint = _write_json(tmp_path, "joint.json", table.tolist())
    code, out, _ = run(capsys, ["separable", "--model-a", square_file,
                                "--model-b", square_file, "--joint", joint])
    doc = json.loads(out)
    assert code == 0
    assert (doc["separable"], doc["max_member"], doc["classification"]) == \
        (False, verdict == "entangled", verdict)
    assert calls == {"separable_witness": 1, "max_tensor_member": 1}


@pytest.mark.parametrize("case", ["non-numeric weights", "non-numeric pair grid",
                                  "infinite renyi parameter"])
def test_malformed_input_exits_2(capsys, tmp_path, case):
    if case == "non-numeric weights":
        doc = {"weights": "ab", "states": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]] * 2}
        argv = ["holevo", "--ensemble", _write_json(tmp_path, "ensemble.json", doc)]
    elif case == "non-numeric pair grid":
        doc = {"regime": "h-increasing/phi-concave",
               "phi": {"x": ["a", 1], "y": [0, 0]}, "h": {"x": [0, 1], "y": [0, 1]}}
        argv = ["entropy", "--p", "0.5,0.5",
                "--pair-file", _write_json(tmp_path, "pair.json", doc)]
    else:
        argv = ["entropy", "--p", "0.5,0.5", "--pair", "renyi:inf"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("grid, values, problem", [
    ("phi.x", [0.0, 1.0, 0.5], "strictly increasing"),
    ("phi.x", [0.0, 0.5, 0.5], "strictly increasing"),
    ("h.x", [0.0, float("nan")], "finite"), ("phi.y", [0.0, float("inf"), 0.0], "finite"),
    ("h.y", [0.0, float("nan")], "finite")])
def test_pair_file_grids_must_be_finite_and_increasing(capsys, tmp_path, grid, values, problem):
    # an unsorted phi.x once gave np.interp's undefined values: "h(phi(1)) = 0.25"
    doc = {"regime": "h-increasing/phi-concave",
           "phi": {"x": [0.0, 0.5, 1.0], "y": [0.0, 0.25, 0.0]},
           "h": {"x": [0.0, 2.0], "y": [0.0, 2.0]}}
    argv = ["entropy", "--p", "0.5,0.5", "--pair-file"]
    code, out, _ = run(capsys, argv + [_write_json(tmp_path, "pair.json", doc)])
    assert code == 0 and json.loads(out)["value"] == 0.5
    name, axis = grid.split(".")
    doc[name][axis] = values
    code, out, err = run(capsys, argv + [_write_json(tmp_path, "pair.json", doc)])
    assert (code, out, err) == (2, "", f"error: grid {grid} must be {problem}\n")


RAGGED = [[[1, 0], [0, 0]], [[0, 0]]]


@pytest.mark.parametrize("flag", ["--rho", "--ensemble", "--povm"])
def test_ragged_matrix_exits_2(capsys, tmp_path, ensemble_file, flag):
    if flag == "--rho":
        argv = ["qentropy", "--rho", _write_json(tmp_path, "rho.json", RAGGED)]
    elif flag == "--ensemble":
        doc = {"weights": [0.5, 0.5], "states": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]], RAGGED]}
        argv = ["holevo", "--ensemble", _write_json(tmp_path, "ensemble.json", doc)]
    else:
        argv = ["holevo", "--ensemble", ensemble_file,
                "--povm", _write_json(tmp_path, "povm.json", [RAGGED, RAGGED])]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "") and err == "error: matrix rows differ in length\n"


def test_min_search_negative_seed_exits_2(capsys, rho_file):
    code, out, err = run(capsys, ["qentropy", "--rho", rho_file, "--min-search", "--seed", "-1"])
    assert (code, out) == (2, "")
    assert err == "error: seed must be a non-negative integer, got -1\n"


def test_matrix_cell_that_is_an_object_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, ["qentropy", "--rho",
                                  _write_json(tmp_path, "rho.json", [[{"re": 1}]])])
    assert (code, out) == (2, "")
    assert err == "error: matrices are nested arrays of [re, im] pairs\n"


def test_povm_that_is_not_a_list_exits_2(capsys, tmp_path, ensemble_file):
    code, out, err = run(capsys, ["holevo", "--ensemble", ensemble_file,
                                  "--povm", _write_json(tmp_path, "povm.json", 5)])
    assert (code, out) == (2, "") and err == "error: --povm expects a list of matrices\n"


@pytest.mark.parametrize("model, coords", [
    ({"kind": "regular_polygon", "n": 4}, [-0.8558403892525833, 0.14415961305183836]),
    ({"kind": "simplex", "n": 4}, [-9.989480237700709e-10, 0.5162299004960569,
                                   0.48377010150183924, -9.989480237700709e-10]),
    ({"kind": "regular_polygon", "n": 16}, [0.483058003315312, -0.8568113944082681]),
    ({"kind": "regular_polygon", "n": 7}, [0.7126937973334068, 0.5965974973125786]),
], ids=["polygon4", "simplex4", "polygon16", "polygon7"])
def test_state_near_the_boundary_is_rejected_or_has_a_spectrum(capsys, tmp_path, model, coords):
    # points within 1e-8 of an edge: membership and the spectrum agree
    argv = ["spectrum", "--model", _write_json(tmp_path, "model.json", model),
            "--state=" + ",".join(map(repr, coords))]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "") and "is outside the model" in err or (
        code == 0 and "exists" in json.loads(out))


@pytest.mark.parametrize("argv", [
    ["frames", "--seed", "1"],
    ["spectrum", "--state", "0,0", "--bits"],
    ["separable", "--model-a", "a", "--model-b", "b", "--joint", "j", "--strict"],
    ["holevo", "--ensemble", "e", "--budget", "5"],
])
def test_flag_the_subcommand_does_not_read_exits_2(capsys, square_file, argv):
    if argv[0] in ("frames", "spectrum"):
        argv = [*argv, "--model", square_file]
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--model", "SQUARE", "--state", "-0.5,0.1"],
    ["entropy", "--general", "--model", "SQUARE", "--state", "-0.5,-0.1"],
    ["majorize", "--model", "SQUARE", "--state", "0.1,0.2", "--other", "-0.5,0.1"],
    ["majorize", "--p", "-0.5,1.5", "--q", "0.5,0.5"],
    ["majorize", "--p", "0.5,0.5", "--q", "-1e-3,1.001"],
], ids=["state", "state-general", "other", "p", "q"])
def test_negative_number_list_is_the_flag_value(capsys, square_file, argv):
    # "--flag -0.5,0.1" reads as "--flag=-0.5,0.1", not as an unknown option
    argv = [square_file if a == "SQUARE" else a for a in argv]
    i = next(i for i, a in enumerate(argv) if a[0] == "-" and a[1].isdigit())
    attached = run(capsys, [*argv[:i - 1], f"{argv[i - 1]}={argv[i]}", *argv[i + 1:]])
    assert run(capsys, argv) == attached
    code, out, err = attached
    if argv[i - 1] in ("--p", "--q"):  # not probabilities
        assert (code, out) == (2, "") and err.startswith("error: ")
    else:
        assert code == 0 and json.loads(out)


@pytest.mark.parametrize("argv, shown", [
    (["sweep", "--family", "renyi", "--grid", "1.5:inf:3", "--p", "0.5,0.5"],
     "error: --grid start and stop must be finite, got '1.5:inf:3'\n"),
    (["sweep", "--family", "renyi", "--grid", "nan:2:3", "--p", "0.5,0.5"],
     "error: --grid start and stop must be finite, got 'nan:2:3'\n"),
    (["separable", "--model-a", "SQUARE", "--model-b", "SQUARE", "--joint", "HALF"],
     "error: u_AB evaluates to 0.5, not 1\n"),
], ids=["grid-inf", "grid-nan", "u_AB"])
def test_error_names_the_value_given(capsys, tmp_path, square_file, argv, shown):
    half = _write_json(tmp_path, "joint.json", [[1, 0, 0], [0, 1, 0], [0, 0, 0.5]])
    argv = [{"SQUARE": square_file, "HALF": half}.get(a, a) for a in argv]
    assert run(capsys, argv) == (2, "", shown)


def test_separable_beyond_the_factor_cap_exits_2(capsys, tmp_path):
    # simplex 9 is classical, and the cap holds on its route too
    model_a = _write_json(tmp_path, "a.json", {"kind": "simplex", "n": 9})
    model_b = _write_json(tmp_path, "b.json", {"kind": "simplex", "n": 2})
    table = np.zeros((10, 3))
    table[0, 0] = table[0, 2] = table[9, 0] = table[9, 2] = 1.0  # vertex 0 x vertex 0
    joint = _write_json(tmp_path, "joint.json", {"table": table.tolist()})
    code, out, err = run(capsys, ["separable", "--model-a", model_a, "--model-b", model_b,
                                  "--joint", joint])
    assert code == 2 and out == "" and "cap" in err
