"""Tests of the benchmark itself: tracer arithmetic, output checks, and the
record of the config a command resolved.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import csv
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, install  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt


# ------------------------------------------------------------------ tracer


def test_self_time_of_nested_calls():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def count(tr, args, kwargs):
        clock.tick(100.0)  # bookkeeping: must reach no span
        tr.add("inner.items", args[0])

    inner = tracer.wrap(lambda k: clock.tick(2.0), "inner", count)

    def outer_body():
        clock.tick(1.0)
        inner(3)
        clock.tick(3.0)
        inner(4)
        clock.tick(1.0)

    tracer.wrap(outer_body, "outer")()
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.self_s == {"outer": 5.0, "inner": 4.0}
    assert tracer.root_s == 9.0
    assert sum(tracer.self_s.values()) == tracer.root_s
    assert tracer.counters == {"inner.items": 7}


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fail():
        clock.tick(1.0)
        raise ValueError

    with pytest.raises(ValueError):
        tracer.wrap(fail, "fail")()
    assert tracer.calls == {"fail": 1} and tracer.root_s == 1.0


def test_install_rebinds_every_caller_and_restores():
    from fedsurv import evaluation, experiments

    original = evaluation.pr_curve
    tracer = Tracer()
    with install(tracer):
        assert experiments.pr_curve is evaluation.pr_curve is not original
        window = evaluation.MatchWindow(1, 1)
        truth = evaluation.AlarmSeries.of([2])
        evaluation.pr_curve([0.5, 0.01, 0.2, 0.9], truth, window, [0.05, 0.3])
    assert experiments.pr_curve is evaluation.pr_curve is original
    assert tracer.calls == {
        "evaluation.pr_curve": 1,
        "evaluation.alarms_from_pvalues": 2,
        "evaluation.match_alarms": 2,
    }


def test_binomial_counters():
    from fedsurv import numerics
    import numpy as np

    tracer = Tracer()
    with install(tracer):
        numerics.binomial_cdf(np.array([1, 1, 2, 1]), np.array([3, 3, 3, 4]), 0.5)
        numerics.binomial_cdf(2, 5, 0.5)
    assert tracer.counters == {
        "numerics.binomial_cdf.elements": 5,
        "numerics.binomial_cdf.distinct": 4,
    }


def test_self_time_check_rejects_inconsistent_trace():
    good = {"run_s": 2.0, "trace": {"self_s": {"cli": 0.5, "x": 1.0}, "root_s": 1.5}}
    run._check_self_time(good)
    bad = {"run_s": 2.0, "trace": {"self_s": {"cli": 0.5, "x": 1.2}, "root_s": 1.5}}
    with pytest.raises(run.RepFailure):
        run._check_self_time(bad)


def test_times_scale_to_the_reference_speed():
    ref = run.CAL_REF_S
    # a host twice as slow takes twice as long for the chunk and the command
    assert run.at_reference_speed([4.0, 1.0], [2 * ref, ref]) == [2.0, 1.0]
    with pytest.raises(ValueError):
        run.at_reference_speed([1.0], [])


# ------------------------------------------------------------------ checks


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_checker_accepts_the_reference(name):
    ref = run.load_reference(name)
    run.check_output(run.WORKLOADS[name], ref, ref)
    run.check_output(run.WORKLOADS[name], ref, None)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_checker_rejects_a_truncated_file(name):
    ref = run.load_reference(name)
    cut = [ref[0][: len(ref[0]) // 2]] + ref[1:]
    with pytest.raises(checks.CheckError):
        run.check_output(run.WORKLOADS[name], cut, None)


def _scaled_csv(text, row, column, factor):
    rows = list(csv.reader(io.StringIO(text)))
    rows[row][column] = repr(float(rows[row][column]) * factor)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize(
    "name, column", [("power_mc", 2), ("semisynth_sweep", 4)]
)
def test_csv_checker_tolerates_drift_but_not_more(name, column):
    ref = run.load_reference(name)
    row = next(i for i, r in enumerate(csv.reader(io.StringIO(ref[0]))) if i and 0 < float(r[column]) < 0.9)
    drifted = _scaled_csv(ref[0], row, column, 1 + 1e-13)
    run.check_output(run.WORKLOADS[name], [drifted], ref)
    moved = _scaled_csv(ref[0], row, column, 1 + 1e-6)
    with pytest.raises(checks.CheckError, match="differs from the reference"):
        run.check_output(run.WORKLOADS[name], [moved], ref)
    run.check_output(run.WORKLOADS[name], [moved], None)  # still valid at another seed


def test_semisynth_checker_requires_perfect_centralized_f1():
    ref = run.load_reference("semisynth_sweep")[0]
    row = next(i for i, r in enumerate(csv.reader(io.StringIO(ref))) if r[3] == "centralized")
    with pytest.raises(checks.CheckError, match="centralized f1"):
        checks.check_semisynth_csv(_scaled_csv(ref, row, 5, 0.5))


def _federation(name):
    report, alarms = run.load_reference(name)
    return json.loads(report), alarms


def _dump(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", ["federation_estimated", "federation_known"])
def test_federation_checker_rejects_a_flipped_alarm_flag(name):
    doc, alarms = _federation(name)
    doc["periods"][10]["alarm"] = not doc["periods"][10]["alarm"]
    with pytest.raises(checks.CheckError, match="alarm flag"):
        checks.check_federation(_dump(doc), alarms)


@pytest.mark.parametrize("name", ["federation_estimated", "federation_known"])
def test_federation_checker_rejects_a_consistently_flipped_alarm(name):
    doc, alarms = _federation(name)
    alpha = doc["config"]["alpha"]
    quiet = next(e for e in doc["periods"] if not e["alarm"])
    quiet["p"], quiet["alarm"] = alpha / 2, True
    rows = [(str(e["period"]), e["date"], repr(e["p"])) for e in doc["periods"] if e["alarm"]]
    doc["summary"]["n_alarms"] = len(rows)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([("period", "date", "p"), *rows])
    flipped = (_dump(doc), buf.getvalue())
    checks.check_federation(*flipped)  # self-consistent, so valid at any seed
    with pytest.raises(checks.CheckError, match="alarm set differs"):
        checks.check_federation(*flipped, reference=tuple(run.load_reference(name)))


def test_federation_checker_rejects_a_moved_p_value_and_bad_shares():
    ref = tuple(run.load_reference("federation_estimated"))
    doc, alarms = _federation("federation_estimated")
    quiet = next(e for e in doc["periods"] if not e["alarm"] and e["p"] < 0.9)
    quiet["p"] *= 1 + 1e-13
    checks.check_federation(_dump(doc), alarms, reference=ref)
    quiet["p"] *= 1 + 1e-6
    with pytest.raises(checks.CheckError, match="differs from the reference"):
        checks.check_federation(_dump(doc), alarms, reference=ref)
    doc, alarms = _federation("federation_estimated")
    doc["periods"][0]["shares"][0] += 1e-6
    with pytest.raises(checks.CheckError, match="shares sum"):
        checks.check_federation(_dump(doc), alarms)


def test_federation_checker_rejects_alarms_file_out_of_step():
    doc, alarms = _federation("federation_known")
    lines = alarms.splitlines(keepends=True)
    with pytest.raises(checks.CheckError, match="alarms CSV"):
        checks.check_federation(_dump(doc), "".join(lines[:-1]))


# ------------------------------------------------------------ resolved config


def test_resolved_config_passes_through_and_restores():
    import dataclasses
    import types

    from worker import EXPERIMENTS, resolved_config

    @dataclasses.dataclass
    class Config:
        reps: int
        grid: tuple

    def experiment(*args):
        return "result"

    module = types.SimpleNamespace(**{name: experiment for name in EXPERIMENTS})
    with resolved_config(module) as resolved:
        assert module.run_federation is not experiment
        assert module.run_power_curve(Config(3, (0.5, 1.0)), 42) == "result"
        assert module.run_federation(["site"] * 5, Config(1, ())) == "result"
    assert all(getattr(module, name) is experiment for name in EXPERIMENTS)
    assert resolved == [
        [{"reps": 3, "grid": (0.5, 1.0)}],
        [{"count": 5}, {"reps": 1, "grid": ()}],
    ]
