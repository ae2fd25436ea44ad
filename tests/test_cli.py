import json

import pytest
from click.testing import CliRunner

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
IFS = {"type": "ifs", "p": [[0, 0, 0.5], [0, 1, 0.5], [1, 0, 0.5], [1, 1, 0.5]]}
TAIL = {"type": "tail"}
HALF = [[w, v, 0, 0.5] for w in (0, 1) for v in (0, 1)]
MARKOV2 = {"type": "markov", "q": [0.5, 0.5], "P_levels": [HALF, HALF]}
TAIL3 = {"type": "tail", "vectors": [[0.5, 0.5], [0.25, 0.25], [0.125, 0.125]]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, obj in [("allones", ALLONES), ("fib", FIB), ("zerorow", ZERO_ROW),
                      ("nat", NAT), ("kernel", KERNEL), ("ifs", IFS), ("tail", TAIL),
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


def test_eigen_csv(files):
    res = run(["eigen", "--diagram", files["fib"], "--format", "csv"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "iteration,residual"
    assert len(lines) > 2


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
