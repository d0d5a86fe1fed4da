import contextlib
import io
import json
import os
import tempfile
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mft.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_gen_scene_schema(capsys):
    code, obj = run(capsys, "gen-scene", "--views", "2", "--seed", "3")
    assert code == 0
    assert obj["schema"] == "mft/1"
    assert len(obj["frames"]) == 2


def test_gen_scene_rational_mode(capsys):
    code, obj = run(capsys, "--mode", "rational", "gen-scene", "--seed", "1")
    assert code == 0
    assert obj["motions"][0]["repr"] == "rational"


def test_tensor_and_check_pipeline(tmp_path, capsys):
    code, scene = run(capsys, "--mode", "rational", "gen-scene", "--views", "3", "--seed", "5")
    assert code == 0
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene))

    code, tens = run(capsys, "tensor", str(scene_path))
    assert code == 0
    assert tens["invariant"] == "trifocal"
    tensor_path = tmp_path / "tensor.json"
    tensor_path.write_text(json.dumps(tens))

    code, rep = run(capsys, "check", str(tensor_path))
    assert code == 0
    assert rep["report"]["pass"] is True


def test_check_fails_on_garbage_tensor(tmp_path, capsys):
    import random

    from mft.focal import FocalTensor

    rng = random.Random(0)
    t = FocalTensor.from_flat(4, (2, 1, 2), [rng.gauss(0, 1) for _ in range(27)])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"tensor": t.to_json()}))
    code, rep = run(capsys, "check", str(path))
    assert code == 1
    assert rep["report"]["pass"] is False


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_check_rejects_non_finite_scalar(tmp_path, capsys, token):
    _, scene = run(capsys, "gen-scene", "--views", "3", "--seed", "5")
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene))
    _, tens = run(capsys, "tensor", str(scene_path))
    tens["tensor"]["data"][0][0][0] = float(token)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(tens))  # Python's json writes the bare token
    assert token in path.read_text()
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: non-finite number")
    assert captured.err.count("\n") == 1


def test_check_rejects_zero_denominator(tmp_path, capsys):
    _, scene = run(capsys, "--mode", "rational", "gen-scene", "--views", "3", "--seed", "5")
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene))
    _, tens = run(capsys, "tensor", str(scene_path))
    tens["tensor"]["data"][0][0][0] = "1/0"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(tens))
    code = main(["--mode", "rational", "check", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: zero denominator in scalar '1/0'\n"


def test_missing_file_is_usage_error(capsys):
    code = main(["check", "/nonexistent/tensor.json"])
    assert code == 2


def test_estimate_round_trip(capsys):
    code, obj = run(capsys, "estimate", "--views", "2", "--seed", "7")
    assert code == 0
    assert obj["pass"] is True
    assert obj["rank"] == 8


def test_estimate_rational(capsys):
    code, obj = run(capsys, "--mode", "rational", "estimate", "--views", "2", "--seed", "2")
    assert code == 0
    assert obj["alignment_error"] in (0, "0/1", "0")


def test_verify_identities(capsys):
    code, obj = run(capsys, "--mode", "rational", "verify-identities", "--trials", "2")
    assert code == 0
    assert obj["pass"] is True
    assert obj["max_residual"] == 0


def test_verify_cartan(capsys):
    code, obj = run(capsys, "verify-cartan")
    assert code == 0
    assert obj["failures"] == []


def test_invariant_dump(capsys):
    code, obj = run(capsys, "invariant", "trifocal", "--weight")
    assert code == 0
    assert obj["weight"] == -2
    assert len(obj["invariant"]["coeffs"]) == 12


def test_unknown_invariant_is_usage_error(capsys):
    code = main(["invariant", "bogus"])
    assert code == 2


def test_env_mode(monkeypatch, capsys):
    monkeypatch.setenv("MFT_MODE", "rational")
    code, obj = run(capsys, "gen-scene", "--seed", "4")
    assert code == 0
    assert obj["mode"] == "rational"


@pytest.mark.parametrize("command", ["estimate", "gen-scene"])
def test_unknown_env_mode_is_one_error_line(monkeypatch, capsys, command):
    monkeypatch.setenv("MFT_MODE", "bogus")
    assert _exits_2_with_one_line(capsys, [command]) == (
        "error: MFT_MODE must be float or rational, got 'bogus'\n")


@pytest.mark.parametrize("argv, message", [
    (["check", "--tol", "x", "t.json"],
     "error: mft check: argument --tol: invalid float value: 'x'\n"),
    (["check"], "error: mft check: the following arguments are required: tensor\n"),
    (["--mode", "exact", "estimate"],
     "error: mft: argument --mode: invalid choice: 'exact' (choose from 'float', 'rational')\n"),
    ([], "error: mft: the following arguments are required: command\n"),
], ids=["bad-float", "missing-positional", "bad-choice", "no-command"])
def test_usage_errors_are_one_error_line(capsys, argv, message):
    assert _exits_2_with_one_line(capsys, argv) == message


@pytest.mark.parametrize("command, doc, message", [
    ("tensor", {}, "error: missing key 'frames'\n"),
    ("check", {"tensor": {"dim": 4, "signature": [2, 1, 2]}}, "error: missing key 'data'\n"),
])
def test_a_missing_key_is_named(tmp_path, capsys, command, doc, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert _exits_2_with_one_line(capsys, [command, str(path)]) == message


def test_help_exits_0(capsys):
    assert main(["check", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: mft check") and captured.err == ""


def test_one_parser_serves_repeated_mains_alike(tmp_path, capsys):
    from mft.cli import build_parser

    assert build_parser() is build_parser()
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps({"dim": 4, "signature": [2, 1, 2],
                                "data": [[[i + j - k for k in range(3)] for j in range(3)]
                                         for i in range(3)]}))
    calls = [["check", "--help"], ["--help"], ["check", "--tol", "x", str(path)], ["check"],
             ["check", "--tol", "0.5", str(path)], ["check", str(path)], ["gen-scene"]]
    first = []
    for argv in calls:
        code = main(argv)
        first.append((code, capsys.readouterr()))
    for argv, seen in zip(calls * 2, first * 2):  # again, each after the others
        code = main(argv)
        assert (code, capsys.readouterr()) == seen


def test_a_rebound_command_runs_after_the_parser_is_built(monkeypatch):
    import mft.cli

    assert main(["--help"]) == 0  # builds the parser
    monkeypatch.setattr(mft.cli, "cmd_verify_cartan", lambda args: 7)
    assert main(["verify-cartan"]) == 7


@pytest.mark.parametrize("mode", ["float", "rational"])
@pytest.mark.parametrize("zero", [0, 0.0, "0/1"])
def test_check_on_the_zero_tensor_is_one_error_line(tmp_path, capsys, mode, zero):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"dim": 4, "signature": [2, 1, 2], "data": [[[zero] * 3] * 3] * 3}))
    assert _exits_2_with_one_line(capsys, ["--mode", mode, "check", str(path)]) == (
        "error: the zero tensor is not a point of projective space\n")


def _rational_trifocal_json(capsys, tmp_path):
    _, scene = run(capsys, "--mode", "rational", "gen-scene", "--views", "3", "--seed", "5")
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(scene))
    _, tens = run(capsys, "tensor", str(scene_path))
    return tens


def _short_row(data):
    data[2][1] = data[2][1][:2]


def _nested_cell(data):
    data[0][0][0] = [1, 2]


def _bool_cell(data):
    data[0][0][0] = True


@pytest.mark.parametrize("damage, message", [
    (_short_row, "error: tensor data does not match axes [3, 3, 3]\n"),
    (_nested_cell, "error: not a scalar: [1, 2]\n"),
    (_bool_cell, "error: not a scalar: True\n"),
])
def test_check_rejects_malformed_tensor_data(tmp_path, capsys, damage, message):
    tens = _rational_trifocal_json(capsys, tmp_path)
    damage(tens["tensor"]["data"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(tens))
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message


def test_tensor_rejects_a_one_frame_scene(tmp_path, capsys):
    _, scene = run(capsys, "gen-scene", "--views", "2", "--seed", "5")
    scene["frames"] = scene["frames"][:1]
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code = main(["tensor", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: mft tensor needs a scene of 2 to 4 frames, got 1\n"


def _exits_2_with_one_line(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("frames, message", [
    ([5, 5], "error: a frame must be a list of rows of scalars, got 5\n"),
    (5, "error: scene frames must be a list of frames, got 5\n"),
    # strings and objects are iterable, but they are not rows of a frame
    ([["1000", "0100", "0010", "0001"]] * 2,
     "error: a frame must be a list of rows of scalars, got ['1000', '0100', '0010', '0001']\n"),
    ([{"1000": 0, "0100": 0, "0010": 0, "0001": 0}] * 2,
     "error: a frame must be a list of rows of scalars, "
     "got {'1000': 0, '0100': 0, '0010': 0, '0001': 0}\n"),
], ids=["number-frames", "number-frame-list", "string-rows", "object-frames"])
def test_tensor_rejects_frames_that_are_not_lists_of_rows(tmp_path, capsys, frames, message):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"frames": frames}))
    assert _exits_2_with_one_line(capsys, ["tensor", str(path)]) == message


@pytest.mark.parametrize("command, doc, message", [
    ("tensor", [1, 2], "input.json does not hold a JSON object"),
    ("tensor", [[1, 0], [0, 1]], "input.json does not hold a JSON object"),
    ("check", [1, 2], "input.json does not hold a JSON object"),
    ("check", 5, "input.json does not hold a JSON object"),
    ("check", {"tensor": 5}, "input.json: the tensor must be a JSON object"),
    ("check", {"tensor": [1, 2]}, "input.json: the tensor must be a JSON object"),
], ids=["tensor-list", "tensor-matrix", "check-list", "check-number", "check-number-tensor",
        "check-list-tensor"])
def test_input_that_is_not_a_json_object_exits_2(tmp_path, capsys, command, doc, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert _exits_2_with_one_line(capsys, [command, str(path)]).endswith(message + "\n")


@pytest.mark.parametrize("doc", [
    {"dim": 150, "signature": [3], "data": []},
    {"dim": 200, "signature": [200, 3], "data": []},
    {"dim": 2**20, "signature": [3], "data": []},
    {"dim": 4, "signature": [1, 1], "data": [[0] * 3] * 3},
    {"signature": [2, 1, 2], "data": []},
], ids=["dim-150", "dim-200", "dim-2**20", "bifocal", "no-dim"])
def test_check_rejects_other_shapes_before_building_subsets(tmp_path, capsys, monkeypatch, doc):
    # C(2**20 - 1, 3) is about 1.9e17 subsets: the shape is rejected before
    # any of them is built
    import mft.focal

    def no_subsets(*args, **kwargs):
        raise AssertionError("index subsets built before the shape was checked")

    monkeypatch.setattr(mft.focal, "index_subsets", no_subsets)
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps({"tensor": doc}))
    err = _exits_2_with_one_line(capsys, ["check", str(path)])
    assert err == "error: check_all expects a dim-4 tensor of signature (2,1,2)\n"


@pytest.mark.parametrize("argv, message", [
    (["estimate", "--count", "0"], "error: --count must be at least 1, got 0\n"),
    (["estimate", "--views", "2", "--count", "-5"], "error: --count must be at least 1, got -5\n"),
    (["estimate", "--views", "2", "--count", "3"],
     "error: --count must be at least 8 for 2 views, got 3\n"),
    (["estimate", "--views", "3", "--count", "25"],
     "error: --count must be at least 26 for 3 views, got 25\n"),
    (["estimate", "--views", "4", "--count", "79"],
     "error: --count must be at least 80 for 4 views, got 79\n"),
    (["verify-identities", "--trials", "0"], "error: --trials must be at least 1, got 0\n"),
    (["verify-identities", "--trials", "-1"], "error: --trials must be at least 1, got -1\n"),
    (["invariant", "wedge:4,-1,3"],
     "error: wedge pair needs p1, p2 >= 0 and p1+p2+2 == m, got (4, -1, 3)\n"),
    (["invariant", "wedge:4,3,-1"],
     "error: wedge pair needs p1, p2 >= 0 and p1+p2+2 == m, got (4, 3, -1)\n"),
    (["invariant", "wedge:8,3,3", "--weight"], "error: wedge invariants need m <= 7, got 8\n"),
    (["invariant", "wedge:10,4,4", "--weight"], "error: wedge invariants need m <= 7, got 10\n"),
    (["invariant", "wedge:7,3,2", "--weight", "--trials", "11"],
     "error: --trials must be between 1 and 10, got 11\n"),
    (["invariant", "wedge:7,3,2", "--trials", "0"],
     "error: --trials must be between 1 and 10, got 0\n"),
], ids=["count-0", "count-negative", "count-3-of-8", "count-25-of-26", "count-79-of-80",
        "identity-trials-0", "identity-trials-negative",
        "wedge-negative-p1", "wedge-negative-p2", "wedge-m-8", "wedge-m-10", "weight-trials-11",
        "weight-trials-0"])
def test_out_of_range_counts_and_sizes_exit_2(capsys, monkeypatch, argv, message):
    # each case is rejected before any index subset or correspondence is built
    import mft.cli
    import mft.invariants

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(mft.invariants, "index_subsets", refuse)
    monkeypatch.setattr(mft.cli, "random_scene", refuse)
    assert _exits_2_with_one_line(capsys, argv) == message


def test_largest_accepted_wedge_and_trial_count(capsys):
    code, obj = run(capsys, "invariant", "wedge:7,5,0", "--weight", "--trials", "10")
    assert code == 0
    assert obj["invariant"]["signature"] == [6, 1]
    assert isinstance(obj["weight"], int)


@pytest.mark.parametrize("command", ["check", "verify-identities"])
@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_tol_must_be_finite_and_not_negative(tmp_path, capsys, monkeypatch, command, tol):
    # a perturbed float tensor passed `check --tol inf`, and `--tol nan` or
    # `--tol -1` failed true identities; each is rejected before any work
    import mft.cli

    def refuse(*args, **kwargs):
        raise AssertionError("work started before --tol was checked")

    monkeypatch.setattr(mft.cli, "_load_json", refuse)
    monkeypatch.setattr(mft.cli, "random_motion", refuse)
    argv = [command, f"--tol={tol}"] + ([str(tmp_path / "t.json")] if command == "check" else [])
    err = _exits_2_with_one_line(capsys, argv)
    assert err == f"error: --tol must be finite and at least 0, got {float(tol)}\n"


def test_tol_zero_is_accepted(capsys):
    code, obj = run(capsys, "--mode", "rational", "verify-identities", "--trials", "1",
                    "--tol", "0")
    assert code == 0 and obj["pass"] is True


good_cell = st.one_of(st.floats(-1e3, 1e3, allow_nan=False), st.integers(-9, 9),
                     st.sampled_from(["1/3", "-2/7"]))
bad_cell = st.sampled_from(["1/0", "x", True, None, [1]])
any_json = st.recursive(
    st.one_of(good_cell, bad_cell, st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)


def _shaped(shape, cell, slack=0):
    """Nested lists of the given shape; with slack, each level may be that
    much shorter or longer."""
    if not shape:
        return cell
    return st.lists(_shaped(shape[1:], cell, slack), min_size=max(shape[0] - slack, 0),
                    max_size=shape[0] + slack)


def _mostly(good, bad):
    """good in about nine draws of ten, else bad."""
    return st.integers(0, 9).flatmap(lambda n: bad if n == 0 else good)


tensor_docs = st.fixed_dictionaries({
    "dim": _mostly(st.just(4), st.sampled_from([3, 5, -1, "4", None])),
    "signature": _mostly(st.just([2, 1, 2]), st.sampled_from([[1, 1], [2, 2], [], [2, -1, 2]])),
    "data": _mostly(_shaped((3, 3, 3), good_cell),
                    _shaped((3, 3, 3), st.one_of(good_cell, bad_cell), slack=1)),
})
check_inputs = _mostly(st.one_of(tensor_docs, st.fixed_dictionaries({"tensor": tensor_docs})), any_json)
invertible = _shaped((4, 4), st.integers(-5, 5)).map(  # diagonally dominant
    lambda g: [[v + 30 * (i == j) for j, v in enumerate(row)] for i, row in enumerate(g)])
frames = _mostly(st.lists(invertible, min_size=2, max_size=4),
                st.lists(_shaped((4, 4), st.one_of(good_cell, bad_cell), slack=1), max_size=5))
scene_inputs = _mostly(st.fixed_dictionaries({"frames": frames}), any_json)
tol_values = _mostly(st.none(), st.one_of(st.sampled_from(["0", "inf", "-inf", "nan", "-1", "x"]),
                                          st.floats().map(repr)))


def _ends_in_an_answer_or_one_error_line(argv, mode=None):
    """Run main on argv with MFT_MODE set to mode (unset for None): exit 0
    or 1 with mft/1 JSON and no stderr, or exit 2 with exactly one stderr
    line, an error: line, and no stdout; within 10 s."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ):
        os.environ.pop("MFT_MODE", None)
        if mode is not None:
            os.environ["MFT_MODE"] = mode
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < 10
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert out.getvalue() == ""
    else:
        assert json.loads(out.getvalue())["schema"] == "mft/1"
        assert err.getvalue() == ""


@given(st.one_of(st.tuples(st.just("check"), check_inputs, tol_values),
                 st.tuples(st.just("tensor"), scene_inputs, st.none())))
@example(("check", {}, "x"))  # argparse's own usage error
@settings(max_examples=200, deadline=None)
def test_check_and_tensor_end_in_an_answer_or_one_error_line(case):
    command, doc, tol = case
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/input.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = [command, path] + ([] if tol is None else [f"--tol={tol}"])
        _ends_in_an_answer_or_one_error_line(argv)


SUBCOMMANDS = ["gen-scene", "tensor", "check", "estimate", "verify-identities", "verify-cartan",
               "invariant"]
# small values only, so that every accepted argv runs in well under a second
small = st.sampled_from(["-1", "0", "1", "2", "3", "4", "x"])
option = st.one_of(
    st.tuples(st.sampled_from(["--views", "--seed", "--count", "--trials"]), small),
    st.tuples(st.just("--tol"), st.sampled_from(["0", "1e-3", "inf", "x"])),
    st.tuples(st.sampled_from(["--verbose", "--weight"])),
    st.tuples(st.just("--invariant"), st.sampled_from(["trifocal", "wedge:5,1,2", "bogus"])))
# the positional argument each subcommand takes, or none
POSITIONALS = {"tensor": ["SCENE", "TENSOR", "/nonexistent.json"],
               "check": ["TENSOR", "SCENE", "/nonexistent.json"],
               "invariant": ["trifocal", "bifocal", "wedge:5,1,2", "bogus"]}
argvs = st.tuples(
    st.sampled_from([[], ["--mode", "float"], ["--mode", "rational"], ["--mode", "x"]]),
    st.sampled_from(SUBCOMMANDS).flatmap(lambda cmd: st.tuples(
        st.just([cmd]), st.lists(st.sampled_from(POSITIONALS.get(cmd, ["x"])), max_size=1))),
    st.lists(option, max_size=3).map(lambda opts: [a for opt in opts for a in opt]),
    _mostly(st.just([]), st.lists(st.sampled_from(SUBCOMMANDS + ["-x", "3", "--mode"]),
                                  min_size=1, max_size=2)),
).map(lambda parts: parts[0] + parts[1][0] + parts[1][1] + parts[2] + parts[3])
env_modes = _mostly(st.sampled_from([None, "float", "rational"]),
                    st.text(alphabet="abflortin-", max_size=8))


@given(argvs, env_modes)
@settings(max_examples=150, deadline=None)
def test_any_argv_and_env_mode_end_in_an_answer_or_one_error_line(argv, mode):
    with tempfile.TemporaryDirectory() as tmp:
        files = {"SCENE": f"{tmp}/scene.json", "TENSOR": f"{tmp}/tensor.json"}
        frames = [[[int(i == j) + (i == 0 and j == k) for j in range(4)] for i in range(4)]
                  for k in range(1, 4)]
        with open(files["SCENE"], "w") as fh:
            json.dump({"frames": frames}, fh)
        with open(files["TENSOR"], "w") as fh:
            json.dump({"dim": 4, "signature": [2, 1, 2],
                       "data": [[[i + j - k for k in range(3)] for j in range(3)] for i in range(3)]},
                      fh)
        _ends_in_an_answer_or_one_error_line([files.get(a, a) for a in argv], mode)
