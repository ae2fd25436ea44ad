import contextlib
import copy
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import weakref

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import pathmeas as pm
from pathmeas.cli import main

ALLONES = {"kind": "stationary", "vertices": {"type": "finite", "count": 2},
           "matrices": [{"triplets": [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]]}]}
FIB = {"kind": "stationary", "vertices": {"type": "finite", "count": 2},
       "matrices": [{"triplets": [[0, 0, 1], [0, 1, 1], [1, 0, 1]]}]}
ZERO_ROW = {"kind": "stationary", "vertices": {"type": "finite", "count": 2},
            "matrices": [{"triplets": [[0, 0, 1], [0, 1, 1]]}]}
KERNEL = {"cells0": ["a", "b"], "cells1": ["a", "b"],
          "edges": [["a", "a", 0.3], ["a", "b", 0.2],
                    ["b", "a", 0.25], ["b", "b", 0.25]]}
NAT = {"kind": "stationary", "vertices": {"type": "naturals"},
       "matrices": [{"triplets": [[-1, 0, 1], [0, 0, 1], [1, 0, 1]]}]}
TRI_Z = {"kind": "stationary", "vertices": {"type": "integers", "band": 1},
         "matrices": [{"triplets": [[-1, 0, 1], [0, 0, 1], [1, 0, 1]]}]}
IFS = {"type": "ifs", "p": [[0, 0, 0.5], [0, 1, 0.5], [1, 0, 0.5], [1, 1, 0.5]]}
TAIL = {"type": "tail"}
HALF = [[w, v, 0, 0.5] for w in (0, 1) for v in (0, 1)]
MARKOV2 = {"type": "markov", "q": [0.5, 0.5], "P_levels": [HALF, HALF]}
TAIL3 = {"type": "tail", "vectors": [[0.5, 0.5], [0.25, 0.25], [0.125, 0.125]]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, obj in [("allones", ALLONES), ("fib", FIB), ("zerorow", ZERO_ROW),
                      ("nat", NAT), ("tri_z", TRI_Z), ("kernel", KERNEL), ("ifs", IFS), ("tail", TAIL),
                      ("markov2", MARKOV2), ("tail3", TAIL3)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    return paths


def run(args):
    return CliRunner().invoke(main, args)


def test_validate_ok(files):
    res = run(["validate", "--diagram", files["fib"]])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["valid"]


def test_validate_zero_row_exit1(files):
    res = run(["validate", "--diagram", files["zerorow"]])
    assert res.exit_code == 1
    assert not json.loads(res.output)["valid"]


@pytest.mark.parametrize("triplets", [[[1, 0, 1]], [[0, 1, 1]]])
def test_validate_naturals_boundary_exit1(tmp_path, triplets):
    path = tmp_path / "nat.json"
    path.write_text(json.dumps({"kind": "stationary", "vertices": {"type": "naturals"},
                                "matrices": [{"triplets": triplets}]}))
    res = run(["validate", "--diagram", str(path)])
    assert res.exit_code == 1
    out = json.loads(res.output)
    assert not out["valid"] and len(out["errors"]) == 1


def test_malformed_json_exit2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run(["validate", "--diagram", str(bad)])
    assert res.exit_code == 2
    assert "error" in json.loads(res.output)


def test_missing_file_exit2():
    res = run(["eigen", "--diagram", "/nonexistent.json"])
    assert res.exit_code == 2


def test_eigen_fib(files):
    res = run(["eigen", "--diagram", files["fib"]])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert abs(out["lambda"] - 1.6180339887498949) < 1e-10
    assert out["tol"] == 1e-10
    assert "residual" in out and "summable" in out


def test_eigen_bracket(files):
    out = json.loads(run(["eigen", "--diagram", files["fib"]]).output)
    lo, hi = out["bracket"]
    assert lo <= out["lambda"] <= hi and hi - lo <= 1e-8 * hi
    assert json.loads(run(["eigen", "--diagram", files["nat"]]).output)["bracket"] is None


@pytest.mark.parametrize("count", [-1, 1.5])
@pytest.mark.parametrize("command", ["validate", "eigen"])
def test_bad_edge_count_exit1(tmp_path, command, count):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "stationary",
                                "vertices": {"type": "finite", "count": 2},
                                "matrices": [{"triplets": [[0, 0, count], [0, 1, 1],
                                                           [1, 0, 1]]}]}))
    res = run([command, "--diagram", str(path)])
    assert res.exit_code == 1
    assert json.loads(res.output)["error"]["kind"] == "DiagramError"


def test_eigen_csv(files):
    res = run(["eigen", "--diagram", files["fib"], "--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "iteration,residual"
    assert len(lines) > 2


def test_eigen_stencil_window(files):
    out = json.loads(run(["eigen", "--diagram", files["tri_z"], "--window", "8"]).output)
    assert len(out["t"]) == 17 and out["window"] == 8
    assert out["lambda"] == 3.0 and out["residual"] == 0.0


def test_eigen_stencil_csv_is_header_only(files):
    res = run(["eigen", "--diagram", files["nat"], "--format", "csv"])
    assert res.exit_code == 0
    assert res.output == "iteration,residual\n"


def test_eigen_negative_window_exit1(files):
    res = run(["eigen", "--diagram", files["tri_z"], "--window", "-1"])
    assert res.exit_code == 1
    assert json.loads(res.output)["error"]["kind"] == "WindowTooSmall"


NAN = float("nan")


@pytest.mark.parametrize("measure", [
    {"type": "markov", "q": [NAN, 0.5], "P": HALF},
    {"type": "markov", "q": [0.5, 0.5], "P": [[0, 0, 0, -0.5], [0, 1, 0, 1.5]] + HALF[2:]},
    {"type": "tail", "vectors": [[-2, -2], [-1, -1]]},
    {"type": "ifs", "p": [[0, 0, NAN]] + IFS["p"][1:]},
])
def test_bad_mass_exit1(files, tmp_path, measure):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(measure))
    res = run(["measure", "eval", "--diagram", files["allones"], "--measure", str(path),
               "--len", "1"])
    assert res.exit_code == 1
    assert json.loads(res.output)["error"]["kind"] == "MeasureError"


def test_bad_kernel_mass_exit1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**KERNEL, "edges": [["a", "a", NAN]] + KERNEL["edges"][1:]}))
    res = run(["kernel", "disintegrate", "--kernel", str(path)])
    assert res.exit_code == 1
    assert json.loads(res.output)["error"]["kind"] == "MeasureError"


@pytest.mark.parametrize("index", [1.7, NAN, "x"])
def test_bad_vertex_index_exit1(tmp_path, index):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**FIB, "matrices": [{"triplets": [[0, 0, 1], [0, index, 1],
                                                                  [1, 0, 1]]}]}))
    res = run(["validate", "--diagram", str(path)])
    assert res.exit_code == 1
    assert json.loads(res.output)["error"]["kind"] == "DiagramError"


CYCLE3 = [[0, 0, 1], [1, 0, 1], [2, 1, 1], [0, 2, 1]]


@pytest.mark.parametrize("count, code", [(3.7, 1), (-1, 1), (NAN, 1), ("3", 1), (3.0, 0)])
def test_vertex_count_validate(tmp_path, count, code):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"kind": "stationary", "vertices": {"type": "finite", "count": count},
                                "matrices": [{"triplets": CYCLE3}]}))
    res = run(["validate", "--diagram", str(path)])
    assert res.exit_code == code
    out = json.loads(res.output)
    assert out["valid"] if code == 0 else out["error"]["kind"] == "DiagramError"


def test_eigen_deterministic_bytes(files):
    a = run(["eigen", "--diagram", files["fib"]]).output
    b = run(["eigen", "--diagram", files["fib"]]).output
    assert a == b


def test_measure_eval_path(files):
    res = run(["measure", "eval", "--diagram", files["allones"],
               "--measure", files["ifs"], "--path", "0-1-0"])
    out = json.loads(res.output)
    assert out["value"] == pytest.approx(0.25, abs=1e-12)


def test_measure_eval_len(files):
    res = run(["measure", "eval", "--diagram", files["allones"],
               "--measure", files["ifs"], "--len", "2"])
    out = json.loads(res.output)
    assert len(out["values"]) == 8
    assert all(v == pytest.approx(0.25, abs=1e-12) for v in out["values"].values())


QUAD4 = {"kind": "stationary", "vertices": {"type": "finite", "count": 4},
         "matrices": [{"triplets": [[0, 0, 1], [1, 0, 1], [2, 1, 1], [3, 2, 1], [0, 2, 1],
                                    [1, 3, 1], [2, 3, 1], [3, 3, 1]]}]}
QUAD4_MARKOV = {"type": "markov", "q": [0.1, 0.2, 0.3, 0.4],
                "P": [[0, 0, 0, 0.3], [0, 1, 0, 0.7], [1, 2, 0, 1.0], [2, 3, 0, 0.55],
                      [2, 0, 0, 0.45], [3, 1, 0, 0.2], [3, 2, 0, 0.3], [3, 3, 0, 0.5]]}


@pytest.mark.parametrize("diagram,measure", [(FIB, TAIL), (QUAD4, QUAD4_MARKOV)])
@pytest.mark.parametrize("length", [0, 1, 6])
def test_measure_eval_len_bytes(tmp_path, diagram, measure, length):
    """Stdout is what naming and valuing each path on its own prints."""
    (tmp_path / "d.json").write_text(json.dumps(diagram))
    (tmp_path / "m.json").write_text(json.dumps(measure))
    spec = pm.diagram_from_dict(diagram)
    m = pm.measure_from_dict(spec, measure)
    values = {str(p): m.value(p) for p in pm.enumerate_paths(spec, length)}
    expected = json.dumps({"len": length, "values": values}, sort_keys=True,
                          separators=(",", ":")) + "\n"
    res = run(["measure", "eval", "--diagram", str(tmp_path / "d.json"),
               "--measure", str(tmp_path / "m.json"), "--len", str(length)])
    assert res.exit_code == 0
    assert res.output == expected


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(pm.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import pathmeas.cli, sys; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_measure_check_ifs(files):
    res = run(["measure", "check", "--diagram", files["allones"],
               "--measure", files["ifs"], "--what", "ifs", "--len", "4"])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["max_dev"] < 1e-12


def test_measure_check_kolmogorov_tail(files):
    res = run(["measure", "check", "--diagram", files["fib"],
               "--measure", files["tail"], "--what", "kolmogorov"])
    assert res.exit_code == 0
    assert json.loads(res.output)["holds"]


def test_measure_check_shift_condition(files):
    res = run(["measure", "check", "--diagram", files["fib"],
               "--measure", files["tail"], "--what", "shift-condition"])
    out = json.loads(res.output)
    assert not out["holds"]
    assert out["heights"] == {"0": 2, "1": 1}


def test_sample_reproducible(files):
    args = ["measure", "sample", "--diagram", files["allones"],
            "--measure", files["ifs"], "--len", "10", "--seed", "7",
            "--count", "3"]
    a = run(args)
    b = run(args)
    assert a.exit_code == 0
    assert a.output == b.output
    assert len(json.loads(a.output)["paths"]) == 3


def test_sample_count_matches_library(files):
    res = run(["measure", "sample", "--diagram", files["allones"], "--measure",
               files["ifs"], "--len", "6", "--seed", "11", "--count", "4"])
    assert res.exit_code == 0
    m = pm.ifs_measure(pm.diagram_from_dict(ALLONES), IFS["p"])
    want = [str(p) for p in pm.sample_paths(m, 6, 4, 11)]
    assert json.loads(res.output)["paths"] == want


IFS_ASYM = {"type": "ifs", "p": [[0, 0, 0.6], [0, 1, 0.4], [1, 0, 0.4], [1, 1, 0.6]]}
DOUBLE = {"kind": "stationary", "vertices": {"type": "finite", "count": 2},
          "matrices": [{"triplets": [[0, 0, 1], [1, 0, 2], [0, 1, 1], [1, 1, 1]]}]}
MARKOV_DOUBLE = {"type": "markov", "q": [0.25, 0.75],
                 "P": [[0, 0, 0, 0.2], [0, 1, 0, 0.3], [0, 1, 1, 0.5],
                       [1, 0, 0, 0.3], [1, 1, 0, 0.7]]}
# `measure sample --seed 7 --count 5` stdout, recorded once; the seeded
# stream is part of the CLI's contract, so these bytes must never move.
PINNED_SAMPLES = {
    ("allones", "ifs", 3): '{"len":3,"paths":["1-1-1-0:0,0,0","0-1-0-1:0,0,0","1-1-0-0:0,0,0","0-0-0-0:0,0,0","1-1-1-1:0,0,0"],"seed":7}',
    ("allones", "ifs", 10): '{"len":10,"paths":["1-1-1-0-0-1-0-1-1-1-0:0,0,0,0,0,0,0,0,0,0","0-0-0-0-0-1-1-1-1-0-0:0,0,0,0,0,0,0,0,0,0","1-0-0-0-0-1-1-1-1-0-0:0,0,0,0,0,0,0,0,0,0","0-1-0-0-0-1-0-0-1-1-1:0,0,0,0,0,0,0,0,0,0","1-1-0-0-0-1-0-0-0-0-0:0,0,0,0,0,0,0,0,0,0"],"seed":7}',
    ("double", "markov", 3): '{"len":3,"paths":["1-1-1-0:0,0,0","1-1-0-1:0,0,1","1-1-1-0:0,0,0","1-1-1-1:0,0,0","1-1-1-1:0,0,0"],"seed":7}',
    ("double", "markov", 10): '{"len":10,"paths":["1-1-1-0-1-1-0-1-1-1-1:0,0,0,0,0,0,1,0,0,0","1-0-1-1-1-1-1-1-1-0-0:0,0,0,0,0,0,0,0,0,0","1-0-0-1-1-1-1-1-1-0-0:0,0,1,0,0,0,0,0,0,0","0-1-0-1-0-1-0-1-1-1-1:1,0,0,0,1,0,0,0,0,0","1-1-0-1-1-1-1-1-0-1-1:0,0,1,0,0,0,0,0,0,0"],"seed":7}',
    ("fib", "tail", 3): '{"len":3,"paths":["1-0-1-0:0,0,0","0-1-0-1:0,0,0","1-0-0-0:0,0,0","0-0-0-0:0,0,0","1-0-1-0:0,0,0"],"seed":7}',
    ("fib", "tail", 10): '{"len":10,"paths":["1-0-1-0-0-1-0-1-0-0-0:0,0,0,0,0,0,0,0,0,0","0-0-0-0-0-1-0-1-0-0-0:0,0,0,0,0,0,0,0,0,0","0-0-0-0-0-1-0-0-0-0-0:0,0,0,0,0,0,0,0,0,0","0-1-0-0-0-1-0-0-1-0-1:0,0,0,0,0,0,0,0,0,0","1-0-0-0-0-1-0-0-0-0-0:0,0,0,0,0,0,0,0,0,0"],"seed":7}',
}


@pytest.mark.parametrize("case", sorted(PINNED_SAMPLES))
def test_sample_pinned_bytes(tmp_path, case):
    objs = {"allones": ALLONES, "double": DOUBLE, "fib": FIB,
            "ifs": IFS_ASYM, "markov": MARKOV_DOUBLE, "tail": TAIL}
    diagram, measure, length = case
    paths = []
    for name in (diagram, measure):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(objs[name]))
    res = run(["measure", "sample", "--diagram", str(paths[0]), "--measure", str(paths[1]),
               "--len", str(length), "--seed", "7", "--count", "5"])
    assert res.exit_code == 0
    assert res.output.strip() == PINNED_SAMPLES[case]


@pytest.mark.parametrize("args, kind", [
    (["measure", "eval", "--diagram", "allones", "--measure", "markov2", "--len", "3"],
     "MeasureError"),
    (["measure", "sample", "--diagram", "allones", "--measure", "tail3", "--len", "5"],
     "MeasureError"),
    (["sfs", "qstat", "--diagram", "allones", "--measure", "tail3",
      "--path", "0-0-0-0-0-0", "--terms", "4"], "MeasureError"),
    (["measure", "check", "--diagram", "nat", "--measure", "tail",
      "--what", "kolmogorov", "--len", "2"], "WindowTooSmall"),
    (["measure", "sample", "--diagram", "nat", "--measure", "tail", "--len", "3",
      "--start", "64"], "WindowTooSmall"),
    (["sfs", "qstat", "--diagram", "allones", "--measure", "tail",
      "--path", "0-0-0-0-0", "--terms", "4"], "TooShort"),
    (["measure", "sample", "--diagram", "allones", "--measure", "ifs", "--len", "-1"],
     "MeasureError"),
    (["measure", "sample", "--diagram", "allones", "--measure", "ifs", "--count", "-1"],
     "MeasureError"),
    (["measure", "sample", "--diagram", "fib", "--measure", "tail", "--len", "0",
      "--start", "99"], "MeasureError"),
    (["measure", "eval", "--diagram", "fib", "--measure", "tail", "--len", "-1"],
     "PathError"),
    (["measure", "check", "--diagram", "fib", "--measure", "tail", "--what", "kolmogorov",
      "--len", "-1"], "PathError"),
    (["sfs", "rn", "--diagram", "fib", "--measure", "tail", "--edge", "1-0",
      "--path", "0-0-0", "--depth", "0"], "TooShort"),
])
def test_typed_error_exit1(files, args, kind):
    res = run([files.get(a, a) for a in args])
    assert isinstance(res.exception, SystemExit)
    assert res.exit_code == 1
    assert json.loads(res.output)["error"]["kind"] == kind


def test_sfs_rn(files):
    res = run(["sfs", "rn", "--diagram", files["fib"], "--measure", files["tail"],
               "--edge", "1-0", "--path", "0-0-0-0-0-0-0-0-0", "--depth", "8"])
    out = json.loads(res.output)
    assert out["converged"]
    assert out["limit"] == pytest.approx(0.6180339887498949, abs=1e-10)


def test_sfs_qstat(files):
    res = run(["sfs", "qstat", "--diagram", files["fib"],
               "--measure", files["tail"], "--path", "0-0-0-0-0-0", "--terms", "4"])
    assert res.exit_code == 0
    assert json.loads(res.output)["verdict"]


def test_kernel_disintegrate(files):
    res = run(["kernel", "disintegrate", "--kernel", files["kernel"]])
    out = json.loads(res.output)
    assert out["marginal"] == {"a": 0.5, "b": 0.5}
    assert out["rows"]["a"]["a"] == pytest.approx(0.6)


def test_kernel_check(files):
    res = run(["kernel", "check", "--kernel", files["kernel"]])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["passed"] and out["max_residual"] == 0.0


def test_kernel_check_bad_q_exit1(files):
    res = run(["kernel", "check", "--kernel", files["kernel"],
               "--q", '{"a": 1.0, "b": 3.0}'])
    assert res.exit_code == 1
    assert not json.loads(res.output)["passed"]


def test_kernel_eval(files):
    res = run(["kernel", "eval", "--kernel", files["kernel"], "--cells", "a,b"])
    out = json.loads(res.output)
    assert out["value"] == pytest.approx(0.2, abs=1e-12)


def test_kernel_iterate(files):
    res = run(["kernel", "iterate", "--kernel", files["kernel"],
               "--depth", "4", "--iters", "2"])
    out = json.loads(res.output)
    assert out["table"]["a|b"] == pytest.approx(0.2, abs=1e-12)
    assert out["distances"][-1] <= out["distances"][0]


def test_kernel_iterate_csv(files):
    res = run(["kernel", "iterate", "--kernel", files["kernel"],
               "--depth", "4", "--iters", "2", "--format", "csv"])
    lines = res.output.strip().splitlines()
    assert lines[0] == "iteration,distance"
    assert len(lines) == 3


def test_kernel_iterate_depth_exhausted_exit1(files):
    res = run(["kernel", "iterate", "--kernel", files["kernel"],
               "--depth", "2", "--iters", "2"])
    assert res.exit_code == 1
    assert json.loads(res.output)["error"]["kind"] == "DepthExhausted"


# Three cells, missing pairs, edges out of row order.
KERNEL3 = {"cells0": ["x", "y", "z"], "cells1": ["x", "y", "z"],
           "edges": [["y", "x", 0.7], ["x", "z", 0.4], ["z", "z", 1.1],
                     ["x", "x", 0.2], ["y", "z", 0.3], ["z", "y", 0.5]]}

# stdout of the per-cylinder transfer these commands ran before the level code
ITERATE_STDOUT = [
    ("kernel", ["--depth", "4", "--iters", "2"],
     '{"depth":4,"distances":[0.04999999999999999,0.0],"iters":2,"table":{"a":0.5,'
     '"a|a":0.3,"a|b":0.2,"b":0.5,"b|a":0.25,"b|b":0.25}}\n'),
    ("kernel", ["--depth", "4", "--iters", "2", "--format", "csv"],
     "iteration,distance\n1,0.04999999999999999\n2,0.0\n"),
    ("kernel3", ["--depth", "3", "--iters", "1"],
     '{"depth":3,"distances":[0.2777777777777777],"iters":1,"table":{"x":0.19444444444444442,'
     '"x|x":0.11111111111111109,"x|y":0.0,"x|z":0.08333333333333333,"y":0.4513888888888888,'
     '"y|x":0.3888888888888888,"y|y":0.0,"y|z":0.06249999999999999,"z":0.39583333333333337,'
     '"z|x":0.0,"z|y":0.16666666666666666,"z|z":0.22916666666666669}}\n'),
    ("kernel3", ["--depth", "4", "--iters", "3", "--format", "csv"],
     "iteration,distance\n1,0.2777777777777777\n2,0.16203703703703703\n"
     "3,0.016658830054012308\n"),
]


@pytest.mark.parametrize("name,args,stdout", ITERATE_STDOUT)
def test_kernel_iterate_stdout_pinned(files, tmp_path, name, args, stdout):
    path = tmp_path / "kernel3.json"
    path.write_text(json.dumps(KERNEL3))
    kernel = files["kernel"] if name == "kernel" else str(path)
    res = run(["kernel", "iterate", "--kernel", kernel, *args])
    assert res.exit_code == 0
    assert res.output == stdout


FROM_A = {"cells0": ["a", "b"], "cells1": ["a", "b"],
          "edges": [["a", "a", 1.0], ["b", "a", 1.0], ["b", "b", 1.0]]}
OFF_LEVEL = {"cells0": ["a", "b"], "cells1": ["a", "c"],
             "edges": [["a", "a", 0.5], ["b", "c", 0.5]]}


@pytest.mark.parametrize("kernel,args", [
    (OFF_LEVEL, ["iterate", "--depth", "3", "--iters", "1"]),
    (KERNEL, ["eval", "--cells", "a,zz"]),
    (KERNEL, ["eval", "--cells", ""]),
    (KERNEL, ["eval", "--cells", "a", "--q", '{"a": 1.0}']),
    (KERNEL, ["eval", "--cells", "a", "--q", "[1.0, 1.0]"]),
    (FROM_A, ["check", "--q", '{"a": 1.0, "b": NaN}']),
    (FROM_A, ["eval", "--cells", "b,b", "--q", '{"a": 1.0, "b": NaN}']),
    (FROM_A, ["eval", "--cells", "b,b", "--q", '{"a": 1.0, "b": Infinity}']),
    (KERNEL, ["iterate", "--depth", "3", "--iters", "-1"]),
    (KERNEL, ["iterate", "--depth", "-1", "--iters", "0"]),
])
def test_kernel_bad_input_measure_error_exit1(tmp_path, kernel, args):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(kernel))
    res = run(["kernel", args[0], "--kernel", str(path), *args[1:]])
    assert res.exit_code == 1
    assert json.loads(res.output)["error"]["kind"] == "MeasureError"


def test_kernel_iterate_depth0_has_no_cylinders(files):
    res = run(["kernel", "iterate", "--kernel", files["kernel"], "--depth", "0", "--iters", "0"])
    assert res.exit_code == 1
    assert json.loads(res.output)["error"]["kind"] == "DepthExhausted"


def test_in_process_output_stream_released(files):
    # a caller that redirects stdout per command must get its stream back;
    # click.echo keeps every stream it writes to alive, with its output
    refs = []
    for _ in range(3):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main.main(args=["eigen", "--diagram", files["fib"]], prog_name="pathmeas",
                      standalone_mode=False)
        assert json.loads(buf.getvalue())["lambda"] == pytest.approx(1.618033988749895)
        refs.append(weakref.ref(buf))
        del buf
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


# ---------------------------------------------------------------------------
# malformed JSON objects: typed errors, exit 1

@pytest.mark.parametrize("name, obj, kind, says", [
    ("measure", {"typ": "tail"}, "MeasureError", "'type'"),
    ("measure", {"type": "markov", "q": [1, 0]}, "MeasureError", "'P_levels'"),
    ("measure", {"type": "ifs", "p": [[0, 0]]}, "MeasureError", "[0, 0]"),
    ("diagram", {**FIB, "matrices": [{"triplets": [[0, 0]]}]}, "DiagramError", "[0, 0]"),
    ("diagram", {**FIB, "vertices": {"type": "finite"}}, "DiagramError", "'count'"),
    ("kernel", {"cells0": ["a"], "cells1": ["a"], "edges": [["a", "a"]]}, "MeasureError",
     "['a', 'a']"),
])
def test_malformed_object_typed_exit1(tmp_path, files, name, obj, kind, says):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    args = {"measure": ["measure", "eval", "--diagram", files["allones"], "--measure", str(path),
                        "--len", "1"],
            "diagram": ["validate", "--diagram", str(path)],
            "kernel": ["kernel", "disintegrate", "--kernel", str(path)]}[name]
    res = run(args)
    assert res.exit_code == 1
    error = json.loads(res.output)["error"]
    assert error["kind"] == kind and says in error["message"]


MARKOV1 = {"type": "markov", "q": [0.5, 0.5], "P": HALF}
SWAPS = [None, "x", [], {}, [0], 1.5, -1, 0, True]


@st.composite
def mutated(draw, obj):
    """obj with 1-3 mutations at random places: a key dropped, a row
    shortened, or a value swapped for one of another type."""
    obj = json.loads(json.dumps(obj))
    for _ in range(draw(st.integers(1, 3))):
        parent, key = None, None
        node = obj
        while isinstance(node, (dict, list)) and node and (
                parent is None or draw(st.booleans())):
            parent = node
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            node = parent[key]
        if parent is None:
            continue
        if draw(st.booleans()):
            del parent[key]          # a key dropped or a row shortened
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(SWAPS)))
    return obj


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_malformed_objects_fuzz(data):
    # a mutated diagram, measure or kernel exits 0 or 1, never with an
    # untyped Python error
    which = data.draw(st.sampled_from(["diagram", "markov", "ifs", "kernel"]))
    base = {"diagram": data.draw(st.sampled_from([FIB, ALLONES, NAT, TRI_Z])),
            "markov": data.draw(st.sampled_from([MARKOV1, MARKOV2, TAIL3])),
            "ifs": IFS, "kernel": KERNEL}[which]
    obj = data.draw(mutated(base))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "obj.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        fixed = os.path.join(tmp, "fixed.json")
        with open(fixed, "w") as fh:
            json.dump(TAIL if which == "diagram" else ALLONES, fh)
        if which == "kernel":
            calls = [["kernel", "disintegrate", "--kernel", path]]
        elif which == "diagram":
            calls = [["validate", "--diagram", path],
                     ["measure", "check", "--diagram", path, "--measure", fixed, "--len", "2"]]
        else:
            calls = [["measure", "check", "--diagram", fixed, "--measure", path, "--len", "2"]]
        for args in calls:
            res = run(args)
            assert res.exit_code in (0, 1), (obj, res.output)
            out = json.loads(res.output.splitlines()[-1])
            if res.exit_code and "error" in out:     # not a failed check's report
                assert issubclass(getattr(pm.errors, out["error"]["kind"]), pm.PathmeasError)


@pytest.mark.parametrize("measure", ["tail", "markov2"])
def test_ifs_check_of_other_measure_exit1(files, measure):
    res = run(["measure", "check", "--diagram", files["allones"], "--measure", files[measure],
               "--what", "ifs", "--len", "2"])
    assert res.exit_code == 1
    assert json.loads(res.output)["error"]["kind"] == "MeasureError"


@pytest.mark.parametrize("q", ['{"a": "x"}', '{"a": null}', '{"a": [1]}'])
def test_kernel_q_not_a_number_exit1(files, q):
    res = run(["kernel", "check", "--kernel", files["kernel"], "--q", q])
    assert res.exit_code == 1
    assert json.loads(res.output)["error"]["kind"] == "MeasureError"


QUAD4 = {"kind": "stationary", "vertices": {"type": "finite", "count": 4},
         "matrices": [{"triplets": [[0, 0, 1], [1, 0, 1], [2, 1, 1], [3, 2, 1], [0, 2, 1],
                                    [1, 3, 1], [2, 3, 1], [3, 3, 1]]}]}
MARKOV_QUAD4 = {"type": "markov", "q": [0.1, 0.2, 0.3, 0.4],
                "P": [[0, 0, 0, 0.25], [0, 1, 0, 0.75], [1, 2, 0, 1.0], [2, 0, 0, 0.5],
                      [2, 3, 0, 0.5], [3, 1, 0, 0.2], [3, 2, 0, 0.3], [3, 3, 0, 0.5]]}
# `measure eval --len 3` stdout, recorded once: each name is built from a
# row's start vertex, its edges' targets and their multiplicities
PINNED_EVAL = {
    ("fib", "tail"): '{"len":3,"values":{"0-0-0-0:0,0,0":0.14589803375031543,"0-0-0-1:0,0,0":0.09016994374947424,"0-0-1-0:0,0,0":0.14589803375031543,"0-1-0-0:0,0,0":0.14589803375031543,"0-1-0-1:0,0,0":0.09016994374947424,"1-0-0-0:0,0,0":0.14589803375031543,"1-0-0-1:0,0,0":0.09016994374947424,"1-0-1-0:0,0,0":0.14589803375031543}}',
    ("quad4", "markov_quad4"): '{"len":3,"values":{"0-0-0-0:0,0,0":0.0015625,"0-0-0-1:0,0,0":0.004687500000000001,"0-0-1-2:0,0,0":0.018750000000000003,"0-1-2-0:0,0,0":0.037500000000000006,"0-1-2-3:0,0,0":0.037500000000000006,"1-2-0-0:0,0,0":0.025,"1-2-0-1:0,0,0":0.07500000000000001,"1-2-3-1:0,0,0":0.020000000000000004,"1-2-3-2:0,0,0":0.03,"1-2-3-3:0,0,0":0.05,"2-0-0-0:0,0,0":0.009375,"2-0-0-1:0,0,0":0.028124999999999997,"2-0-1-2:0,0,0":0.11249999999999999,"2-3-1-2:0,0,0":0.03,"2-3-2-0:0,0,0":0.0225,"2-3-2-3:0,0,0":0.0225,"2-3-3-1:0,0,0":0.015,"2-3-3-2:0,0,0":0.0225,"2-3-3-3:0,0,0":0.0375,"3-1-2-0:0,0,0":0.04000000000000001,"3-1-2-3:0,0,0":0.04000000000000001,"3-2-0-0:0,0,0":0.015,"3-2-0-1:0,0,0":0.045,"3-2-3-1:0,0,0":0.012,"3-2-3-2:0,0,0":0.018,"3-2-3-3:0,0,0":0.03,"3-3-1-2:0,0,0":0.04000000000000001,"3-3-2-0:0,0,0":0.03,"3-3-2-3:0,0,0":0.03,"3-3-3-1:0,0,0":0.020000000000000004,"3-3-3-2:0,0,0":0.03,"3-3-3-3:0,0,0":0.05}}',
    ("double", "markov_double"): '{"len":3,"values":{"0-0-0-0:0,0,0":0.0020000000000000005,"0-0-0-1:0,0,0":0.0030000000000000005,"0-0-0-1:0,0,1":0.005000000000000001,"0-0-1-0:0,0,0":0.0045,"0-0-1-0:0,1,0":0.0075,"0-0-1-1:0,0,0":0.010499999999999999,"0-0-1-1:0,1,0":0.017499999999999998,"0-1-0-0:0,0,0":0.0045,"0-1-0-0:1,0,0":0.0075,"0-1-0-1:0,0,0":0.00675,"0-1-0-1:0,0,1":0.01125,"0-1-0-1:1,0,0":0.01125,"0-1-0-1:1,0,1":0.01875,"0-1-1-0:0,0,0":0.01575,"0-1-1-0:1,0,0":0.02625,"0-1-1-1:0,0,0":0.03675,"0-1-1-1:1,0,0":0.06124999999999999,"1-0-0-0:0,0,0":0.009,"1-0-0-1:0,0,0":0.0135,"1-0-0-1:0,0,1":0.0225,"1-0-1-0:0,0,0":0.020249999999999997,"1-0-1-0:0,1,0":0.033749999999999995,"1-0-1-1:0,0,0":0.04724999999999999,"1-0-1-1:0,1,0":0.07874999999999999,"1-1-0-0:0,0,0":0.03149999999999999,"1-1-0-1:0,0,0":0.04724999999999999,"1-1-0-1:0,0,1":0.07874999999999999,"1-1-1-0:0,0,0":0.11024999999999997,"1-1-1-1:0,0,0":0.2572499999999999}}',
}


@pytest.mark.parametrize("case", sorted(PINNED_EVAL))
def test_eval_pinned_bytes(tmp_path, case):
    objs = {"fib": FIB, "tail": TAIL, "quad4": QUAD4, "markov_quad4": MARKOV_QUAD4,
            "double": DOUBLE, "markov_double": MARKOV_DOUBLE}
    paths = []
    for name in case:
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(objs[name]))
    res = run(["measure", "eval", "--diagram", str(paths[0]), "--measure", str(paths[1]),
               "--len", "3"])
    assert res.exit_code == 0
    assert res.output.strip() == PINNED_EVAL[case]


# ---------------------------------------------------------------------------
# typed errors for literals, tolerances and declared sizes

@pytest.mark.parametrize("args", [
    ["measure", "eval", "--path", "0-x"],
    ["measure", "eval", "--path", "0-1:y"],
    ["sfs", "rn", "--edge", "1-x", "--path", "0-0-0"],
    ["sfs", "rn", "--edge", "1-0", "--path", "0-0-"],
])
def test_bad_literal_path_error_exit1(files, args):
    # a literal part that is not an integer once exited 2 as a ValueError
    res = run([*args[:2], "--diagram", files["allones"], "--measure", files["ifs"], *args[2:]])
    assert res.exit_code == 1
    error = json.loads(res.output)["error"]
    assert error["kind"] == "PathError" and "path literal" in error["message"]


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_eigen_tolerance_never_met_exit1(files, tol):
    res = run(["eigen", "--diagram", files["fib"], "--tol", tol])
    assert res.exit_code == 1
    error = json.loads(res.output)["error"]
    assert error["kind"] == "SolverError" and "tol" in error["message"]


def test_validate_triplet_outside_count_exit1(tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({**FIB, "matrices": [{"triplets": FIB["matrices"][0]["triplets"]
                                                     + [[5, 0, 1]]}]}))
    res = run(["validate", "--diagram", str(path)])
    assert res.exit_code == 1
    assert json.loads(res.output)["error"]["kind"] == "DiagramError"


# ---------------------------------------------------------------------------
# measure check --what tail / shift

IFS_SKEW = {"type": "ifs", "p": [[0, 0, 0.6], [0, 1, 0.4], [1, 0, 0.6], [1, 1, 0.4]]}
MARKOV_SKEW = {"type": "markov", "q": [0.3, 0.7], "P": HALF}


@pytest.mark.parametrize("what, measure, code", [
    ("tail", "tail", 0), ("tail", "markov_skew", 1), ("tail", "ifs_skew", 1),
    ("shift", "ifs", 0), ("shift", "ifs_skew", 1),
])
def test_measure_check_tail_and_shift(files, tmp_path, what, measure, code):
    # ifs_skew has column sums (1.2, 0.8): neither tail nor shift invariant
    paths = dict(files)
    for name, obj in [("ifs_skew", IFS_SKEW), ("markov_skew", MARKOV_SKEW)]:
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    res = run(["measure", "check", "--diagram", files["allones"], "--measure", paths[measure],
               "--what", what, "--len", "3"])
    assert res.exit_code == code
    out = json.loads(res.output)
    if what == "tail":
        assert set(out) == {"max_spread", "tail_invariant", "ratio_law_deviation", "tol"}
        assert out["tail_invariant"] == (code == 0)
        assert (out["max_spread"] == 0.0) == (code == 0)
    else:
        assert set(out) == {"max_dev", "invariant", "factors", "predicted", "tol"}
        assert out["invariant"] == (code == 0)
        assert out["predicted"] == pytest.approx({"0": 1.0, "1": 1.0} if code == 0
                                                 else {"0": 1.2, "1": 0.8})
        assert out["factors"] == pytest.approx(out["predicted"])
