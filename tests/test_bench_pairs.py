"""`tools/bench_pairs.py` against two stub checkouts whose `bench/run.py`
prints canned result lines and logs each call, so the test runs no
benchmark."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
ARGS = ["--workload", "federation_estimated", "--seed", "11", "--seconds", "2.0"]

# Each call logs its checkout and arguments to ../log.txt and prints the
# result of its checkout's next entry in runs.json; "crash" exits 3.
STUB = '''import json, sys
from pathlib import Path
here = Path(__file__).resolve().parents[1]
log = here.parent / "log.txt"
done = log.read_text().splitlines() if log.exists() else []
k = sum(line.split()[0] == here.name for line in done)
with log.open("a") as f:
    f.write(" ".join([here.name, *sys.argv[1:]]) + "\\n")
run = json.loads((here / "runs.json").read_text())[k]
if run == "crash":
    sys.exit(3)
print("{}")
print(json.dumps(run))
'''


def _result(run_s, items_per_s, setup_s, correct=True):
    metrics = {"run_s": run_s, "items_per_s": items_per_s, "setup_s": setup_s}
    return {
        "correct": correct,
        "attempted": 5,
        "failed": 0 if correct else 1,
        "metrics": {name: {"value": v, "unit": "s"} for name, v in metrics.items()},
    }


def _checkout(root: Path, name: str, runs: list) -> Path:
    checkout = root / name
    (checkout / "bench").mkdir(parents=True)
    (checkout / "bench" / "run.py").write_text(STUB, encoding="utf-8")
    (checkout / "runs.json").write_text(json.dumps(runs), encoding="utf-8")
    spec = {
        "command": [sys.executable, "bench/run.py"],
        "end_to_end": [
            {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        ],
    }
    (checkout / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    return checkout


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _log(tmp_path) -> list[str]:
    return (tmp_path / "log.txt").read_text().splitlines()


def test_alternates_and_summarises_each_metric(tmp_path, capsys, tool):
    parent = _checkout(tmp_path, "parent", [
        _result(0.040, 500, 0.2), _result(0.038, 520, 0.2),
        _result(0.039, 510, 0.2), _result(0.041, 490, 0.2),
    ])
    change = _checkout(tmp_path, "change", [
        _result(0.035, 560, 0.2), _result(0.036, 550, 0.2),
        _result(0.040, 495, 0.2), _result(0.034, 580, 0.2),
    ])
    assert tool.main([str(parent), str(change), *ARGS, "--pairs", "4"]) == 0
    log = _log(tmp_path)
    order = [line.split()[0] for line in log]
    assert order == ["parent", "change", "change", "parent"] * 2
    assert all(line.split()[1:] == ARGS + ["--trace", "0"] for line in log)
    out = capsys.readouterr().out.splitlines()
    run_s = out.index("run_s (lower is better)")
    assert out[run_s + 2] == "  pair 2: parent 0.038  change 0.036"
    assert out[run_s + 5] == (
        "  median: parent 0.0395 (quartiles 0.03825-0.04075) -> change 0.0355 (-10.1%);"
        " change better in 3 of 4"
    )
    items = out.index("items_per_s (higher is better)")
    assert out[items + 5].endswith("change better in 3 of 4")
    setup = out.index("setup_s")  # not declared: no direction, no count
    assert out[setup + 5] == "  median: parent 0.2 (quartiles 0.2-0.2) -> change 0.2 (+0.0%)"


def test_a_run_that_is_not_correct_exits_1(tmp_path, capsys, tool):
    parent = _checkout(tmp_path, "parent", [_result(0.040, 500, 0.2)] * 2)
    change = _checkout(tmp_path, "change", [_result(0.035, 560, 0.2),
                                            _result(0.036, 550, 0.2, correct=False)])
    assert tool.main([str(parent), str(change), *ARGS, "--pairs", "2"]) == 1
    out = capsys.readouterr().out
    assert "pair 2: change run not correct (1 of 5 failed)" in out
    assert "change better in 2 of 2" in out and out.endswith("1 run(s) not correct\n")


def test_a_run_without_a_result_line_stops_the_tool(tmp_path, tool):
    parent = _checkout(tmp_path, "parent", [_result(0.040, 500, 0.2)] * 2)
    change = _checkout(tmp_path, "change", [_result(0.035, 560, 0.2), "crash"])
    with pytest.raises(SystemExit, match="change: run exited 3 without a result line"):
        tool.main([str(parent), str(change), *ARGS, "--pairs", "2"])
    assert [line.split()[0] for line in _log(tmp_path)] == ["parent", "change", "change"]
