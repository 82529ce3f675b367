"""Command-line interface tests: ingestion errors with line numbers, wrapper
fidelity against library calls, golden outputs, and exit codes."""

import dataclasses
import datetime
import gc
import gzip
import json
import random
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from fedsurv import cli, combine, numerics
from fedsurv.cli import (
    FederationRunConfig,
    SemisynthRunConfig,
    _pooled,
    main,
    read_counts_csv,
    take_fields,
)
from fedsurv.combine import EvidenceSet, combine_by_id
from fedsurv.errors import ConfigError, DomainError
from fedsurv.experiments import (
    PowerCurveConfig,
    SemisynthConfig,
    run_power_curve,
    run_semisynth_sweep,
)
from fedsurv.federation import FederationConfig, run_federation
from fedsurv.semisynth import CountSeries
from fedsurv.surge import SurgeHypothesis, SurgeWindow, exact_p_value

from support import (
    COMMAND_CONFIGS,
    command_keys,
    config_schema,
    nudged_special,
    package_env,
    takes_seed,
)

DATA_DIR = Path(__file__).parent / "data"
BENCH_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"

COUNTS_CSV = """site_id,date,count
east,2024-01-01,10
east,2024-01-08,12
east,2024-01-15,11
east,2024-01-22,9
east,2024-01-29,10
east,2024-02-05,25
west,2024-01-01,5
west,2024-01-08,6
west,2024-01-15,4
west,2024-01-22,5
west,2024-01-29,6
west,2024-02-05,13
"""


@pytest.fixture
def counts_csv(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(COUNTS_CSV, encoding="utf-8")
    return path


def write_config(tmp_path, name="config.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields), encoding="utf-8")
    return path


def run(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReadCountsCsv:
    def test_parses_sites_in_sorted_order(self, counts_csv):
        series = read_counts_csv(counts_csv)
        assert [s.site_id for s in series] == ["east", "west"]
        assert all(s.period == "weekly" for s in series)
        assert series[0].counts == (10, 12, 11, 9, 10, 25)
        assert series[1].counts == (5, 6, 4, 5, 6, 13)

    def test_row_order_does_not_matter(self, tmp_path, counts_csv):
        lines = COUNTS_CSV.strip().splitlines()
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(
            "\n".join([lines[0]] + list(reversed(lines[1:]))) + "\n", encoding="utf-8"
        )
        assert read_counts_csv(shuffled) == read_counts_csv(counts_csv)

    def test_daily_cadence_inferred(self, tmp_path):
        path = tmp_path / "daily.csv"
        path.write_text(
            "site_id,date,count\nx,2024-03-01,1\nx,2024-03-02,2\nx,2024-03-03,3\n",
            encoding="utf-8",
        )
        (series,) = read_counts_csv(path)
        assert series.period == "daily"

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("site_id,when,count\na,2024-01-01,5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="'date'"):
            read_counts_csv(path)

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "site_id,date,count,extra\na,2024-01-01,5,9\n", encoding="utf-8"
        )
        with pytest.raises(ConfigError, match="'extra'"):
            read_counts_csv(path)

    @pytest.mark.parametrize(
        "row,fragment",
        [
            ("a,01/02/2024,5", "line 2"),
            ("a,2024-01-01,5.5", "line 2"),
            ("a,2024-01-01,-3", "line 2"),
        ],
    )
    def test_bad_values_carry_line_numbers(self, tmp_path, row, fragment):
        path = tmp_path / "bad.csv"
        path.write_text(f"site_id,date,count\n{row}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=fragment):
            read_counts_csv(path)

    def test_single_row_site_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("site_id,date,count\na,2024-01-01,5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="cadence"):
            read_counts_csv(path)

    def test_irregular_gap_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "site_id,date,count\na,2024-01-01,5\na,2024-01-04,5\n", encoding="utf-8"
        )
        with pytest.raises(ConfigError, match="3 days"):
            read_counts_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ConfigError):
            read_counts_csv(path)


class TestCmdTest:
    def test_wrapper_matches_library_bytes(self, tmp_path, counts_csv, capsys):
        cfg = write_config(
            tmp_path, csv=str(counts_csv), theta=0.3, baseline_len=4, at=5
        )
        code, out, _ = run(["test", "--config", cfg], capsys)
        assert code == 0
        window = SurgeWindow((12 + 6, 11 + 4, 9 + 5, 10 + 6), 25 + 13)
        p = exact_p_value(window, SurgeHypothesis(0.3, 4))
        assert out == f"period,c,n,p\n5,63,101,{p!r}\n"

    def test_committed_golden_fixture(self, capsys):
        code, out, _ = run(
            ["test", "--config", DATA_DIR / "golden_config.json"], capsys
        )
        assert code == 0
        assert out == (DATA_DIR / "golden_test.csv").read_text(encoding="utf-8")

    def test_golden_fixture_does_not_depend_on_scipy_betainc(self, monkeypatch, capsys):
        def no_betainc(*args, **kwargs):
            raise AssertionError("scipy.special.betainc was called")

        monkeypatch.setattr(numerics.special, "betainc", no_betainc)
        code, out, _ = run(
            ["test", "--config", DATA_DIR / "golden_config.json"], capsys
        )
        assert code == 0
        assert out == (DATA_DIR / "golden_test.csv").read_text(encoding="utf-8")

    def test_site_filter(self, tmp_path, counts_csv, capsys):
        cfg = write_config(tmp_path, csv=str(counts_csv), at=5, site="east")
        code, out, _ = run(["test", "--config", cfg], capsys)
        assert code == 0
        p = exact_p_value(SurgeWindow((12, 11, 9, 10), 25), SurgeHypothesis(0.3, 4))
        assert out == f"period,c,n,p\n5,42,67,{p!r}\n"

    def test_unknown_site_exits_2(self, tmp_path, counts_csv, capsys):
        cfg = write_config(tmp_path, csv=str(counts_csv), at=5, site="north")
        code, _, err = run(["test", "--config", cfg], capsys)
        assert code == 2
        assert "north" in err

    def test_missing_column_exits_2_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("site_id,when,count\na,2024-01-01,5\n", encoding="utf-8")
        cfg = write_config(tmp_path, csv=str(bad), at=5)
        code, _, err = run(["test", "--config", cfg], capsys)
        assert code == 2
        assert "'date'" in err

    def test_period_without_history_exits_2(self, tmp_path, counts_csv, capsys):
        cfg = write_config(tmp_path, csv=str(counts_csv), at=2)
        code, _, err = run(["test", "--config", cfg], capsys)
        assert code == 2
        assert "history" in err

    def test_unknown_config_field_exits_2(self, tmp_path, counts_csv, capsys):
        cfg = write_config(tmp_path, csv=str(counts_csv), at=5, tehta=0.3)
        code, _, err = run(["test", "--config", cfg], capsys)
        assert code == 2
        assert "tehta" in err

    @pytest.mark.parametrize("field, value", [("csv", 5), ("csv", None), ("site", 3)])
    def test_malformed_field_exits_2(self, tmp_path, counts_csv, capsys, field, value):
        cfg = write_config(tmp_path, **({"csv": str(counts_csv), "at": 5} | {field: value}))
        code, out, err = run(["test", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"fedsurv: error: config field {field!r}")


class TestCmdCombine:
    def test_fisher_matches_library_bytes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, method="fisher", p_values=[0.05, 0.2])
        code, out, _ = run(["combine", "--config", cfg], capsys)
        assert code == 0
        result = combine_by_id("fisher", EvidenceSet((0.05, 0.2)))
        assert out == f"method,statistic,p\nfisher,{result.statistic!r},{result.p!r}\n"

    def test_share_method_with_shares(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, method="wstouffer", p_values=[0.05, 0.2], shares=[0.8, 0.2]
        )
        code, out, _ = run(["combine", "--config", cfg], capsys)
        assert code == 0
        result = combine_by_id(
            "wstouffer", EvidenceSet((0.05, 0.2), shares=(0.8, 0.2))
        )
        assert repr(result.p) in out

    def test_share_method_without_shares_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, method="wfisher", p_values=[0.05, 0.2])
        code, _, err = run(["combine", "--config", cfg], capsys)
        assert code == 2
        assert "share" in err

    @pytest.mark.parametrize(
        "fields",
        [
            {"p_values": 0.5},
            {"p_values": [0.5, None]},
            {"p_values": [0.5, 0.2], "shares": 0.5},
            {"method": ["wstouffer"]},
            {"method": {"wstouffer": 1}},
            {"method": "wfisher", "p_values": [0.01, 0.5], "shares": [float("nan"), 1.0]},
            {"p_values": [0.01, 0.5], "shares": [float("nan"), 1.0]},
            {"p_values": [0.01, float("inf")]},
        ],
    )
    def test_malformed_list_exits_2(self, tmp_path, capsys, fields):
        cfg = write_config(tmp_path, **({"method": "wstouffer"} | fields))
        code, out, err = run(["combine", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert "config field" in err

    @pytest.mark.parametrize(
        "fields",
        [
            {"total_count": "ten"},
            {"total_count": True},
            {"total_count": 10.5},
            {"rho": "x"},
            {"rho": [0.7]},
        ],
    )
    def test_malformed_context_scalar_exits_2(self, tmp_path, capsys, fields):
        cfg = write_config(
            tmp_path, method="cstouffer", p_values=[0.05, 0.2], shares=[0.5, 0.5], **fields
        )
        code, out, err = run(["combine", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err.startswith("fedsurv: error: config field")

    def test_context_scalars_reach_the_combiner(self, tmp_path, capsys):
        fields = dict(p_values=[0.05, 0.2], shares=[0.5, 0.5], total_count=10.0, rho=0.75)
        cfg = write_config(tmp_path, method="cstouffer", **fields)
        code, out, _ = run(["combine", "--config", cfg], capsys)
        assert code == 0
        ev = EvidenceSet((0.05, 0.2), shares=(0.5, 0.5), total_count=10, rho=0.75)
        assert repr(combine_by_id("cstouffer", ev).p) in out

    def test_rho_from_hypothesis_fields(self, tmp_path, capsys):
        fields = dict(p_values=[0.05, 0.2], shares=[0.5, 0.5], total_count=10)
        cfg = write_config(tmp_path, method="cstouffer", theta=1.0, baseline_len=2, **fields)
        code, out, _ = run(["combine", "--config", cfg], capsys)
        assert code == 0
        rho = SurgeHypothesis(1.0, 2).rho
        ev = EvidenceSet((0.05, 0.2), shares=(0.5, 0.5), total_count=10, rho=rho)
        assert repr(combine_by_id("cstouffer", ev).p) in out

    def test_unknown_method_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, method="median", p_values=[0.5])
        code, _, err = run(["combine", "--config", cfg], capsys)
        assert code == 2
        assert "median" in err


class TestCmdPowerCurve:
    def test_wrapper_matches_library_bytes(self, tmp_path, capsys):
        fields = dict(
            methods=["centralized", "stouffer"],
            theta_grid=[0.3, 0.6],
            calibration_reps=2000,
            power_reps=1000,
        )
        cfg = write_config(tmp_path, **fields)
        code, out, _ = run(["power-curve", "--config", cfg, "--seed", 99], capsys)
        assert code == 0

        result = run_power_curve(
            PowerCurveConfig(
                methods=("centralized", "stouffer"),
                theta_grid=(0.3, 0.6),
                calibration_reps=2000,
                power_reps=1000,
            ),
            99,
        )
        expected = "theta_alt,method,power\n" + "".join(
            f"{pt.theta_alt!r},{pt.method},{pt.power!r}\n" for pt in result.points
        )
        assert out == expected

    def test_rows_sorted_by_method_then_theta(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            methods=["stouffer", "centralized"],
            theta_grid=[0.6, 0.3],
            calibration_reps=1000,
            power_reps=1000,
        )
        code, out, _ = run(["power-curve", "--config", cfg, "--seed", 1], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        keys = [(r[1], float(r[0])) for r in rows]
        assert keys == sorted(keys)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_total", 200.5),
            ("n_total", "200"),
            ("calibration_reps", True),
            ("power_reps", 1000.5),
            ("theta_grid", [float("nan")]),
            ("theta_grid", [0.5, 0.5]),
            ("methods", []),
            ("methods", ["fisher", "fisher"]),
        ],
    )
    def test_malformed_scalar_exits_2(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, **{field: value})
        code, out, err = run(["power-curve", "--config", cfg, "--seed", 1], capsys)
        assert code == 2 and out == ""
        assert field in err

    def test_overflowing_theta_grid_exits_2(self, tmp_path, capsys):
        # JSON reads 1e400 as inf, which must fail as config, not in the Poisson draw
        cfg = tmp_path / "config.json"
        cfg.write_text(
            '{"theta_grid": [1e400], "calibration_reps": 1000, "power_reps": 1000}',
            encoding="utf-8",
        )
        code, out, err = run(["power-curve", "--config", cfg, "--seed", 1], capsys)
        assert code == 2 and out == ""
        assert "theta_grid" in err

    # n_total cannot reach the limit: past int64 it is rejected by name
    # first (TestCountsPastInt64)
    @pytest.mark.parametrize("fields", [{"theta_grid": [1e300]}])
    def test_poisson_rate_past_numpy_limit_exits_2(self, tmp_path, capsys, fields):
        cfg = write_config(tmp_path, calibration_reps=1000, power_reps=1000, **fields)
        code, out, err = run(["power-curve", "--config", cfg, "--seed", 1], capsys)
        assert code == 2 and out == ""
        assert "Poisson rate" in err

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, calibration_reps=1000, power_reps=1000)
        code, _, err = run(["power-curve", "--config", cfg], capsys)
        assert code == 2
        assert "seed" in err


class TestCmdSemisynth:
    TINY = dict(
        site_sweep=[2],
        magnitude_sweep=[],
        dominant_sweep=[0.6],
        n_replicates=2,
        methods=["centralized", "stouffer", "wfisher"],
    )

    def test_wrapper_matches_library_bytes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **self.TINY)
        code, out, _ = run(["semisynth", "--config", cfg, "--seed", 5], capsys)
        assert code == 0

        result = run_semisynth_sweep(
            SemisynthConfig(
                site_sweep=(2,),
                magnitude_sweep=(),
                dominant_sweep=(0.6,),
                n_replicates=2,
                methods=("centralized", "stouffer", "wfisher"),
            ),
            5,
        )
        expected = "sweep,setting,entropy,method,recall_at_fdr,f1\n" + "".join(
            f"{r.sweep},{r.setting},{float(r.entropy)!r},{r.method},"
            f"{r.recall_at_fdr!r},{r.f1!r}\n"
            for r in result.rows
        )
        assert out == expected

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **self.TINY)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["semisynth", "--config", cfg, "--seed", 7, "--out", out1], capsys)[0] == 0
        assert run(["semisynth", "--config", cfg, "--seed", 7, "--out", out2], capsys)[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_committed_golden_sweep(self, tmp_path, capsys):
        # all three sweeps, every method, 3 replicates: pins the sweep's bytes
        out = tmp_path / "sweep.csv"
        cfg = DATA_DIR / "golden_semisynth_config.json"
        code, _, _ = run(["semisynth", "--config", cfg, "--seed", 42, "--out", out], capsys)
        assert code == 0
        assert out.read_bytes() == (DATA_DIR / "golden_semisynth.csv").read_bytes()

    def test_custom_csv_input(self, tmp_path, counts_csv, capsys):
        cfg = write_config(
            tmp_path,
            csv=str(counts_csv),
            site_sweep=[2],
            magnitude_sweep=[],
            dominant_sweep=[],
            n_replicates=1,
            methods=["centralized", "fisher"],
        )
        code, out, _ = run(["semisynth", "--config", cfg, "--seed", 3], capsys)
        assert code == 0
        assert out.startswith("sweep,setting,entropy,method,recall_at_fdr,f1\n")
        assert len(out.strip().splitlines()) == 3

    @pytest.mark.parametrize(
        "field, value",
        [
            ("site_sweep", 3),
            ("site_sweep", [2.5]),
            ("magnitude_sweep", [True]),
            ("thresholds", 0.1),
            ("thresholds", [0.1, None]),
            ("thresholds", [0.1, 1.0]),
            ("methods", "fisher"),
            ("methods", []),
            ("methods", ["fisher", "fisher"]),
            ("site_sweep", [2, 2]),
            ("magnitude_sweep", [0.5, 0.5]),
            ("dominant_sweep", [0.4, 0.4]),
        ],
    )
    def test_malformed_field_exits_2(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, **(self.TINY | {field: value}))
        code, out, err = run(["semisynth", "--config", cfg, "--seed", 1], capsys)
        assert code == 2 and out == ""
        assert field in err

    def test_no_sweep_point_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **(self.TINY | {"site_sweep": [], "dominant_sweep": []}))
        code, out, err = run(["semisynth", "--config", cfg, "--seed", 1], capsys)
        assert code == 2 and out == ""
        for field in ("site_sweep", "magnitude_sweep", "dominant_sweep"):
            assert field in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("smoothing_window", 2.5),
            ("n_replicates", True),
            ("n_replicates", "3"),
            ("entropy_sites", 4.2),
            ("site_sweep_magnitude", "0.2"),
        ],
    )
    def test_malformed_scalar_exits_2(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, **(self.TINY | {field: value}))
        code, out, err = run(["semisynth", "--config", cfg, "--seed", 1], capsys)
        assert code == 2 and out == ""
        assert field in err

    def test_poisson_rate_past_numpy_limit_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            site_sweep_magnitude=1e300,
            n_replicates=1,
            site_sweep=[2],
            magnitude_sweep=[1.0],
            dominant_sweep=[0.4],
        )
        code, out, err = run(["semisynth", "--config", cfg, "--seed", 1], capsys)
        assert code == 2 and out == ""
        assert "Poisson rate" in err

    @pytest.mark.parametrize("seed", [1.5, False, "7"])
    def test_malformed_seed_in_config_exits_2(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path, seed=seed, **self.TINY)
        code, out, err = run(["semisynth", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert "seed" in err

    def test_seed_in_config_is_enough(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=7, **self.TINY)
        code, out, _ = run(["semisynth", "--config", cfg], capsys)
        assert code == 0
        assert out.startswith("sweep,")


class TestCmdFederation:
    def test_fixture_mode_writes_json_and_alarm_csv(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, method="wstouffer", share_source="known", n_sites=2
        )
        out = tmp_path / "report.json"
        code, _, _ = run(["federation", "--config", cfg, "--seed", 9, "--out", out], capsys)
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["config"]["method"] == "wstouffer"
        assert doc["sites"] == ["builtin-1", "builtin-2"]
        assert doc["summary"]["n_periods"] == len(doc["periods"])
        alarms = [e for e in doc["periods"] if e["alarm"]]
        assert doc["summary"]["n_alarms"] == len(alarms)

        alarm_csv = (tmp_path / "report.alarms.csv").read_text(encoding="utf-8")
        lines = alarm_csv.strip().splitlines()
        assert lines[0] == "period,date,p"
        assert len(lines) - 1 == len(alarms)

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, method="fisher", share_source="none", n_sites=3)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run(["federation", "--config", cfg, "--seed", 4, "--out", out1], capsys)
        run(["federation", "--config", cfg, "--seed", 4, "--out", out2], capsys)
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "r1.alarms.csv").read_bytes() == (
            tmp_path / "r2.alarms.csv"
        ).read_bytes()

    def test_estimated_cycle1_lag0_matches_known_on_stationary_shares(
        self, tmp_path, capsys
    ):
        # constant counts keep window shares equal to latest-cycle shares,
        # so the estimator reproduces the side-channel values exactly
        rows = ["site_id,date,count"]
        start = datetime.date(2024, 1, 1)
        for i in range(8):
            date = (start + datetime.timedelta(weeks=i)).isoformat()
            rows.append(f"a,{date},30")
            rows.append(f"b,{date},10")
        path = tmp_path / "const.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")

        outputs = {}
        for source in ("known", "estimated"):
            cfg = write_config(
                tmp_path,
                name=f"{source}.json",
                csv=str(path),
                method="wstouffer",
                share_source=source,
                reporting_cycle=1,
                lag=0,
            )
            out = tmp_path / f"{source}.out.json"
            code, _, _ = run(["federation", "--config", cfg, "--out", out], capsys)
            assert code == 0
            outputs[source] = json.loads(out.read_text(encoding="utf-8"))

        known = [e["shares"] for e in outputs["known"]["periods"]]
        estimated = [e["shares"] for e in outputs["estimated"]["periods"]]
        assert known == estimated == [[0.75, 0.25]] * len(known)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("reporting_cycle", 2.5),
            ("reporting_cycle", "x"),
            ("lag", True),
            ("lag", 1.5),
            ("n_sites", 2.7),
            ("n_sites", "5"),
            ("baseline_len", 4.5),
            ("theta", "0.3"),
            ("shares", ["0.5", "0.5"]),
            ("method", 7),
            ("share_source", ["known"]),
            ("csv", 5),
        ],
    )
    def test_malformed_scalar_exits_2(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, **{field: value})
        code, out, err = run(["federation", "--config", cfg, "--seed", 1], capsys)
        assert code == 2 and out == ""
        assert field in err

    def test_integral_float_scalars_accepted(self, tmp_path, capsys):
        fields = dict(method="fisher", share_source="estimated", n_sites=3)
        outputs = []
        for name, cycle, lag in (("ints.json", 3, 1), ("floats.json", 3.0, 1.0)):
            cfg = write_config(tmp_path, name, reporting_cycle=cycle, lag=lag, **fields)
            code, out, _ = run(["federation", "--config", cfg, "--seed", 4], capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert '"reporting_cycle": 3,' in outputs[1]

    def test_shares_alone_set_n_sites(self, tmp_path, capsys):
        shares = dict(shares=[0.5, 0.3, 0.2])
        outputs = []
        for name, fields in (("s.json", shares), ("sn.json", shares | {"n_sites": 3})):
            cfg = write_config(tmp_path, name, **fields)
            code, out, _ = run(["federation", "--config", cfg, "--seed", 3], capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0])["sites"]) == 3

    def test_shares_and_n_sites_must_agree(self, tmp_path, capsys):
        cfg = write_config(tmp_path, shares=[0.5, 0.3, 0.2], n_sites=4)
        code, out, err = run(["federation", "--config", cfg, "--seed", 3], capsys)
        assert code == 2 and out == ""
        assert "n_sites" in err

    def test_seed_past_int64_accepted(self, tmp_path, capsys):
        # seeds are integers of any size; only counts stop at int64
        cfg = write_config(tmp_path, n_sites=2, seed=2**64 - 1)
        code, out, _ = run(["federation", "--config", cfg], capsys)
        assert code == 0 and json.loads(out)["config"]["seed"] == 2**64 - 1

    def test_fixture_fields_with_csv_exit_2(self, tmp_path, counts_csv, capsys):
        cfg = write_config(tmp_path, csv=str(counts_csv), method="fisher", n_sites=2)
        code, _, err = run(["federation", "--config", cfg, "--seed", 1], capsys)
        assert code == 2
        assert "n_sites" in err

    @pytest.mark.parametrize("fields", [{"n_sites": 2}, {"shares": [0.5, 0.5]}, {"n_sites": 0}])
    def test_fixture_fields_with_csv_exit_2_by_their_rule(self, tmp_path, counts_csv, capsys, fields):
        cfg = write_config(tmp_path, csv=str(counts_csv), **fields)
        code, out, err = run(["federation", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err == "fedsurv: error: n_sites and shares apply only when no csv is given\n"

    @pytest.mark.parametrize("seed", [["--seed", 5], {"seed": 5}, {"seed": None}])
    def test_seed_with_csv_exits_2_however_given(self, tmp_path, counts_csv, capsys, seed):
        """A csv's sites need no seed; a seed given beside one, on the
        command line or in the config, is rejected rather than dropped."""
        fields = {"csv": str(counts_csv)} | (seed if isinstance(seed, dict) else {})
        argv = ["federation", "--config", write_config(tmp_path, **fields)]
        code, out, err = run(argv + ([] if isinstance(seed, dict) else seed), capsys)
        assert code == 2 and out == ""
        assert err == "fedsurv: error: seed applies only when no csv is given\n"
        code, out, _ = run(argv[:2] + [write_config(tmp_path, csv=str(counts_csv))], capsys)
        assert code == 0 and json.loads(out)["config"]["seed"] is None

    def test_committed_golden_report(self, tmp_path, capsys):
        # 7 unequal shares, estimated with a lagged 3-period cycle: pins the
        # report's and the alarms' bytes
        out = tmp_path / "report.json"
        cfg = DATA_DIR / "golden_federation_config.json"
        code, _, _ = run(["federation", "--config", cfg, "--seed", 2024, "--out", out], capsys)
        assert code == 0
        assert out.read_bytes() == (DATA_DIR / "golden_federation.json").read_bytes()
        alarms = (tmp_path / "report.alarms.csv").read_bytes()
        assert alarms == (DATA_DIR / "golden_federation.alarms.csv").read_bytes()

    def test_stdout_carries_the_report_alone(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["federation", "--seed", 1, "--out", out], capsys)[0] == 0
        code, stdout, _ = run(["federation", "--seed", 1], capsys)
        assert code == 0
        doc = json.loads(stdout)
        assert any(e["alarm"] for e in doc["periods"])
        assert stdout.encode("utf-8") == out.read_bytes()

    def test_lagged_estimation_keeps_alarm_quality(self, tmp_path, capsys):
        """Paired runs, identical split: switching from known shares to a
        4-period reporting cycle released 2 periods late moves a quarter of
        the p-values noticeably yet flips no alarm on this fixture. The
        bounds are regression pins from the first recorded run."""
        docs = {}
        for label, extra in (
            ("known", {"share_source": "known"}),
            ("lagged", {"share_source": "estimated", "reporting_cycle": 4, "lag": 2}),
        ):
            cfg = write_config(
                tmp_path,
                name=f"{label}.json",
                method="wfisher",
                n_sites=5,
                shares=[0.5, 0.2, 0.15, 0.1, 0.05],
                **extra,
            )
            out = tmp_path / f"{label}.out.json"
            code, _, _ = run(
                ["federation", "--config", cfg, "--seed", 2024, "--out", out], capsys
            )
            assert code == 0
            docs[label] = json.loads(out.read_text(encoding="utf-8"))

        p_known = {e["period"]: e["p"] for e in docs["known"]["periods"]}
        p_lagged = {e["period"]: e["p"] for e in docs["lagged"]["periods"]}
        gaps = [abs(p_known[t] - p_lagged[t]) for t in p_known]
        assert sum(1 for g in gaps if g > 0.01) >= 50  # the lag is not a no-op
        assert max(gaps) <= 0.2

        alarms_known = {e["period"] for e in docs["known"]["periods"] if e["alarm"]}
        alarms_lagged = {e["period"] for e in docs["lagged"]["periods"] if e["alarm"]}
        hits = len(alarms_known & alarms_lagged)
        precision = hits / len(alarms_lagged)
        recall = hits / len(alarms_known)
        f1 = 2 * precision * recall / (precision + recall)
        assert f1 >= 1.0


class TestScipyLastDigits:
    """Which output bytes the code owns: every result of the scipy functions
    behind ``numerics`` is pushed one ulp up, then one ulp down, as another
    scipy build could return it. ``semisynth`` and ``power-curve`` write
    ratios of counts and keep their bytes; a federation run's p-values
    move, and its alarm set does not."""

    @pytest.fixture(params=[np.inf, -np.inf], ids=["up", "down"])
    def nudge(self, request, monkeypatch):
        return lambda: monkeypatch.setattr(numerics, "special", nudged_special(request.param))

    def test_semisynth_golden_keeps_its_bytes(self, tmp_path, capsys, nudge):
        nudge()
        out = tmp_path / "sweep.csv"
        cfg = DATA_DIR / "golden_semisynth_config.json"
        code, _, _ = run(["semisynth", "--config", cfg, "--seed", 42, "--out", out], capsys)
        assert code == 0
        assert out.read_bytes() == (DATA_DIR / "golden_semisynth.csv").read_bytes()

    def test_power_curve_keeps_its_bytes(self, tmp_path, capsys, nudge):
        cfg = write_config(
            tmp_path, theta_grid=[0.3, 0.7], calibration_reps=2000, power_reps=2000
        )
        args = ["power-curve", "--config", cfg, "--seed", 42]
        code, exact, _ = run(args, capsys)
        assert code == 0
        nudge()
        code, nudged, _ = run(args, capsys)
        assert code == 0
        assert nudged == exact

    def test_federation_golden_keeps_its_alarms(self, tmp_path, capsys, nudge):
        nudge()
        out = tmp_path / "report.json"
        cfg = DATA_DIR / "golden_federation_config.json"
        code, _, _ = run(["federation", "--config", cfg, "--seed", 2024, "--out", out], capsys)
        assert code == 0
        golden = json.loads((DATA_DIR / "golden_federation.json").read_text(encoding="utf-8"))
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert [e["alarm"] for e in doc["periods"]] == [e["alarm"] for e in golden["periods"]]
        assert any(e["p"] != g["p"] for e, g in zip(doc["periods"], golden["periods"]))



class TestBenchReferenceBytes:
    """The default ``semisynth`` and ``power-curve`` runs at seed 42 write
    the benchmark's reference outputs byte for byte; the benchmark itself
    compares them only to within 1e-9 relative. The bench files are read,
    never written. Federation keeps to the golden in ``tests/data``."""

    @pytest.mark.parametrize(
        "command, reference", [("semisynth", "semisynth_sweep"), ("power-curve", "power_mc")]
    )
    def test_default_run_equals_the_reference(self, tmp_path, capsys, command, reference):
        out = tmp_path / "out.csv"
        code, _, _ = run([command, "--seed", 42, "--out", out], capsys)
        assert code == 0
        want = gzip.decompress((BENCH_REFERENCE / f"{reference}.csv.gz").read_bytes())
        assert out.read_bytes() == want


class TestCountsPastInt64:
    """A count past int64 in a config exits 2 naming its field; it used to
    end in an OverflowError traceback."""

    @pytest.mark.parametrize(
        "command, field",
        [
            ("power-curve", "n_total"),
            ("power-curve", "calibration_reps"),
            ("power-curve", "power_reps"),
            ("semisynth", "n_replicates"),
            ("semisynth", "entropy_sites"),
            ("semisynth", "site_sweep"),
            ("semisynth", "smoothing_window"),
            ("federation", "baseline_len"),
            ("federation", "lag"),
            ("federation", "reporting_cycle"),
            ("federation", "n_sites"),
        ],
    )
    @pytest.mark.parametrize("huge", [10**400, 1e300], ids=["400-digit", "1e300"])
    def test_exits_2_naming_the_field(self, tmp_path, capsys, command, field, huge):
        value = [huge] if field == "site_sweep" else huge
        cfg = write_config(tmp_path, **{field: value})
        code, out, err = run([command, "--config", cfg, "--seed", 1], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"fedsurv: error: config field {field!r}")


class TestFloatFieldTable:
    """Every float-typed key of every command, set one at a time on a tiny
    valid config to each value of a fixed table, exits 0 or 2 without a
    traceback, and an exit 2 names the key. A list key also takes each
    value as its first entry. The table asks for no large array: every
    value is rejected or, as an empty sweep, shrinks the run."""

    # raw JSON texts, written out as they are: the integer 10**400, 1e400
    # (which parses as inf), and the NaN and ±Infinity literals, which JSON
    # does not define and Python's parser reads as floats
    VALUES = (
        "1" + "0" * 400,
        "1e400",
        "-1e300",
        "NaN",
        "Infinity",
        "-Infinity",
        '"x"',
        "true",
        "null",
        "[]",
        "{}",
    )

    @staticmethod
    def bases(tmp_path, counts_csv) -> dict:
        """A tiny valid config of each command, its seed included."""
        scores = tmp_path / "scores.csv"
        scores.write_text("period,p\n0,1.0\n1,0.04\n2,0.2\n3,0.01\n", encoding="utf-8")
        truth = tmp_path / "truth.csv"
        truth.write_text("period\n1\n", encoding="utf-8")
        methods = ["centralized", "fisher"]
        bases = {
            "test": dict(csv=str(counts_csv), at=5),
            "combine": dict(
                method="cstouffer", p_values=[0.01, 0.3], shares=[0.5, 0.5], total_count=9, rho=0.5
            ),
            "power-curve": dict(
                calibration_reps=1000, power_reps=1000, theta_grid=[0.5], n_total=50, methods=methods
            ),
            "semisynth": dict(
                n_replicates=1,
                site_sweep=[2],
                magnitude_sweep=[1.0],
                dominant_sweep=[0.6],
                thresholds=[0.01, 0.1],
                methods=methods,
            ),
            "federation": dict(n_sites=2),
            "evaluate": dict(scores=str(scores), truth=str(truth)),
        }
        seed = {"seed": 1}
        return {command: base | (seed if takes_seed(command) else {}) for command, base in bases.items()}

    @pytest.mark.parametrize("command", list(COMMAND_CONFIGS))
    def test_every_float_key_exits_0_or_2_naming_it(self, tmp_path, counts_csv, capsys, command):
        base = self.bases(tmp_path, counts_csv)[command]
        schema = config_schema(COMMAND_CONFIGS[command])
        # every key that holds a float or a list of floats
        keys = [key for key, (kind, _) in schema.items() if float in (kind, *typing.get_args(kind))]
        assert keys
        faults = []
        for key in keys:
            kind, default = schema[key]
            listed = typing.get_origin(kind) is tuple
            current = base.get(key, default)
            current = current if isinstance(current, (list, tuple)) else [0.5, 0.5]
            # "@" marks where the raw value goes: the key, or its first entry
            slots = ["@"] + ([["@", *current[1:]]] if listed else [])
            for slot in slots:
                for value in self.VALUES:
                    path = tmp_path / "config.json"
                    text = json.dumps(base | {key: slot}).replace('"@"', value)
                    path.write_text(text, encoding="utf-8")
                    case = (key, "entry" if slot != "@" else "key", value[:8])
                    try:
                        code, _, err = run([command, "--config", path], capsys)
                    except Exception as exc:  # noqa: BLE001 - any escape is a fault
                        faults.append((*case, repr(exc)[:80]))
                        continue
                    if code not in (0, 2) or "Traceback" in err or (code == 2 and key not in err):
                        faults.append((*case, code, err[:80]))
        assert not faults, faults

    def test_integer_literal_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"theta": 1' + "0" * 5000 + "}", encoding="utf-8")
        code, out, err = run(["test", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"fedsurv: error: {cfg}: invalid JSON")


def _json_value(value) -> str:
    return json.dumps(list(value) if isinstance(value, tuple) else value)


class TestSeededFieldPairs:
    """Seeded pairs of the keys a command reads, each set to a value of
    ``TestFloatFieldTable.VALUES``, to its dataclass default, to its value
    in any command's tiny base of that table, dropped, or left at the
    command's base, exit 0, 1 or 2 without a traceback, and an exit 2
    names one of the two keys. The valid values let pairs reach the
    cross-field rules, not just the first bad key. Values that ask for
    large arrays are left out: the table holds no valid large size (a
    ``calibration_reps`` of 2**40 would allocate terabytes), and a default
    size is at most a default run's."""

    PAIRS = 100
    KEEP, DROP = "keep", "drop"  # the key keeps its base value (or stays absent), or is removed

    @pytest.mark.parametrize("command", list(COMMAND_CONFIGS))
    def test_pairs_exit_0_1_or_2_naming_a_key(self, tmp_path, counts_csv, capsys, command):
        bases = TestFloatFieldTable.bases(tmp_path, counts_csv)
        base = bases[command]
        schema = config_schema(COMMAND_CONFIGS[command])
        tiny = {key: value for other in bases.values() for key, value in other.items()}
        keys = command_keys(command)
        rnd = random.Random(f"field pairs of {command}")
        faults = []
        for _ in range(self.PAIRS):
            pair = rnd.sample(keys, 2)
            drawn = {}
            for key in pair:
                valid = [schema.get(key, (None, dataclasses.MISSING))[1], tiny.get(key)]
                valid = [_json_value(v) for v in valid if v not in (dataclasses.MISSING, None)]
                # half the draws valid, so that both keys of a pair often are
                pool = rnd.choice(((self.KEEP, self.DROP, *valid), TestFloatFieldTable.VALUES))
                drawn[key] = rnd.choice(pool)
            config = {k: v for k, v in base.items() if drawn.get(k) != self.DROP}
            raw = {k: v for k, v in drawn.items() if v not in (self.KEEP, self.DROP)}
            # "@key" marks where the key's raw value goes
            text = json.dumps(config | {key: f"@{key}" for key in raw})
            for key, value in raw.items():
                text = text.replace(f'"@{key}"', value)
            path = tmp_path / "config.json"
            path.write_text(text, encoding="utf-8")
            try:
                code, _, err = run([command, "--config", path], capsys)
            except Exception as exc:  # noqa: BLE001 - any escape is a fault
                faults.append((pair, drawn, repr(exc)[:80]))
                continue
            named = any(key in err for key in pair)
            if code not in (0, 1, 2) or "Traceback" in err or (code == 2 and not named):
                faults.append((pair, drawn, code, err[:120]))
        assert not faults, faults


@pytest.mark.parametrize("command", list(COMMAND_CONFIGS))
def test_null_reads_as_absent_in_every_optional_field(tmp_path, counts_csv, capsys, command):
    """A JSON null in an ``Optional`` field of a command's config dataclass
    gives what leaving the key out gives, exit code and bytes alike."""
    base = TestFloatFieldTable.bases(tmp_path, counts_csv)[command]
    cls = COMMAND_CONFIGS[command]
    hints = typing.get_type_hints(cls)
    keys = [f.name for f in dataclasses.fields(cls) if type(None) in typing.get_args(hints[f.name])]
    keys = [key for key in keys if not dataclasses.is_dataclass(typing.get_args(hints[key])[0])]
    for key in keys:
        runs = [
            run([command, "--config", write_config(tmp_path, **config)], capsys)
            for config in ({k: v for k, v in base.items() if k != key}, base | {key: None})
        ]
        assert runs[0] == runs[1], key
    assert keys or command == "power-curve"


@pytest.mark.parametrize("command", ["power-curve", "semisynth", "federation"])
def test_seed_flag_overrides_the_config_seed(tmp_path, counts_csv, capsys, command):
    """``--seed`` beside a config "seed" wins: the run writes what it writes
    without the key. It used to exit 2 with "unknown config field 'seed'"."""
    base = TestFloatFieldTable.bases(tmp_path, counts_csv)[command]
    runs = [
        run([command, "--config", write_config(tmp_path, **config), "--seed", 3], capsys)
        for config in ({k: v for k, v in base.items() if k != "seed"}, base | {"seed": 99})
    ]
    assert runs[0][0] == 0 and runs[0] == runs[1]


class TestOneSiteAlignmentRule:
    def test_pooling_and_federation_reject_a_misaligned_pair_alike(self):
        dates = [datetime.date(2024, 1, 1) + datetime.timedelta(weeks=i) for i in range(6)]
        a = CountSeries("a", "weekly", tuple(dates), (5,) * 6)
        shifted = tuple(d + datetime.timedelta(days=1) for d in dates)
        b = CountSeries("b", "weekly", shifted, (5,) * 6)
        with pytest.raises(ConfigError) as pooled:
            _pooled([a, b])
        with pytest.raises(ConfigError) as federated:
            run_federation([a, b], FederationConfig())
        assert str(pooled.value) == str(federated.value)
        assert str(pooled.value) == "sites must share cadence and timestamp alignment"


class TestWindowTotalsOutOfRange:
    """Window totals past what int64 sums or float64 tails carry exit 2
    naming the cause; they used to exit 2 with a message about negative
    counts or p-values outside [0, 1]."""

    SMALL = dict(calibration_reps=1000, power_reps=1000)

    def test_power_curve_window_total_past_int64(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_total=2**63 - 1, theta_grid=[10.0], **self.SMALL)
        code, out, err = run(["power-curve", "--config", cfg, "--seed", 1], capsys)
        assert code == 2 and out == ""
        assert err.startswith("fedsurv: error: window total overflows int64")

    def test_semisynth_window_total_past_int64(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            site_sweep=[2],
            site_sweep_magnitude=4e16,
            magnitude_sweep=[],
            dominant_sweep=[],
            n_replicates=1,
        )
        code, out, err = run(["semisynth", "--config", cfg, "--seed", 1], capsys)
        assert code == 2 and out == ""
        assert err.startswith("fedsurv: error: window total overflows int64")

    def test_power_curve_binomial_tail_past_float64(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_total=2**61, theta_grid=[30.0], **self.SMALL)
        code, out, err = run(["power-curve", "--config", cfg, "--seed", 1], capsys)
        assert code == 2 and out == ""
        assert err.startswith("fedsurv: error: binomial tail has no float64 value at window total n = ")


class TestCmdEvaluate:
    @pytest.fixture
    def eval_inputs(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("period,p\n0,1.0\n1,0.04\n2,0.2\n3,0.01\n4,0.5\n", encoding="utf-8")
        truth = tmp_path / "truth.csv"
        truth.write_text("period\n1\n3\n", encoding="utf-8")
        return scores, truth

    def test_hand_traced_golden(self, tmp_path, eval_inputs, capsys):
        scores, truth = eval_inputs
        cfg = write_config(
            tmp_path, scores=str(scores), truth=str(truth), thresholds=[0.02, 0.05, 0.3]
        )
        code, out, _ = run(["evaluate", "--config", cfg], capsys)
        assert code == 0
        # th=0.02 predicts {3}: hits one of two truths at full precision;
        # th=0.05 predicts {1,3}: perfect; th=0.3 adds the false alarm at 2
        assert out == (
            "threshold,precision,recall,f1\n"
            "0.02,1.0,0.5,0.6666666666666666\n"
            "0.05,1.0,1.0,1.0\n"
            "0.3,0.6666666666666666,1.0,0.8\n"
        )

    def test_match_window_override_changes_result(self, tmp_path, eval_inputs, capsys):
        scores, _ = eval_inputs
        truth = tmp_path / "t2.csv"
        truth.write_text("period\n2\n", encoding="utf-8")
        base = dict(scores=str(scores), truth=str(truth), thresholds=[0.05])
        wide = write_config(tmp_path, name="wide.json", **base)
        exact = write_config(tmp_path, name="exact.json", match_window=[0, 0], **base)
        _, out_wide, _ = run(["evaluate", "--config", wide], capsys)
        _, out_exact, _ = run(["evaluate", "--config", exact], capsys)
        assert out_wide != out_exact
        assert out_exact.strip().splitlines()[1].endswith(",0.0,0.0,0.0")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("match_window", 5),
            ("match_window", [1]),
            ("match_window", ["a", 1]),
            ("match_window", [1.5, 2]),
            ("match_window", [True, 2]),
            ("thresholds", 0.1),
            ("thresholds", [0.1, None]),
            ("scores", None),
            ("truth", 5),
            ("cadence", 5),
            ("match_window", [-1, 2]),
            ("match_window", [0, -1]),
        ],
    )
    def test_malformed_field_exits_2(self, tmp_path, eval_inputs, capsys, field, value):
        scores, truth = eval_inputs
        paths = {"scores": str(scores), "truth": str(truth)}
        cfg = write_config(tmp_path, **(paths | {field: value}))
        code, out, err = run(["evaluate", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert field in err

    def test_integral_float_window_accepted(self, tmp_path, eval_inputs, capsys):
        scores, truth = eval_inputs
        fields = dict(scores=str(scores), truth=str(truth), thresholds=[0.05])
        as_float = write_config(tmp_path, name="f.json", match_window=[1.0, 2], **fields)
        as_int = write_config(tmp_path, name="i.json", match_window=[1, 2], **fields)
        got_float, got_int = (run(["evaluate", "--config", c], capsys) for c in (as_float, as_int))
        assert got_float[0] == 0 and got_float == got_int

    def test_bad_cadence_with_match_window_exits_2(self, tmp_path, eval_inputs, capsys):
        scores, truth = eval_inputs
        cfg = write_config(
            tmp_path, scores=str(scores), truth=str(truth), cadence="monthly", match_window=[1, 2]
        )
        code, out, err = run(["evaluate", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert "cadence" in err

    def test_scores_without_period_column_read_by_position(self, tmp_path, eval_inputs, capsys):
        scores, truth = eval_inputs
        bare = tmp_path / "bare.csv"
        bare.write_text("p\n1.0\n0.04\n0.2\n0.01\n0.5\n", encoding="utf-8")

        def evaluate(scores_path):
            cfg = write_config(tmp_path, scores=str(scores_path), truth=str(truth))
            return run(["evaluate", "--config", cfg], capsys)

        with_period = evaluate(scores)
        assert with_period[0] == 0 and evaluate(bare) == with_period

    @pytest.mark.parametrize(
        "periods, line",
        [((4, 5, 6, 7, 8), 2), ((0, 1, 3, 4, 5), 4), ((1, 0, 2, 3, 4), 2)],
    )
    def test_scores_period_out_of_position_exits_2(
        self, tmp_path, eval_inputs, capsys, periods, line
    ):
        _, truth = eval_inputs
        shifted = tmp_path / "shifted.csv"
        rows = "".join(f"{t},{p}\n" for t, p in zip(periods, (1.0, 0.04, 0.2, 0.01, 0.5)))
        shifted.write_text("period,p\n" + rows, encoding="utf-8")
        cfg = write_config(tmp_path, scores=str(shifted), truth=str(truth))
        code, out, err = run(["evaluate", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"fedsurv: error: {shifted}: line {line}:")

    @pytest.mark.parametrize("bad", ["1.5", "-0.25", "nan", "inf"])
    def test_scores_p_outside_unit_interval_exits_2(
        self, tmp_path, eval_inputs, capsys, bad
    ):
        _, truth = eval_inputs
        scores = tmp_path / "out_of_range.csv"
        scores.write_text(f"period,p\n0,0.5\n1,{bad}\n2,0.2\n", encoding="utf-8")
        cfg = write_config(tmp_path, scores=str(scores), truth=str(truth))
        code, out, err = run(["evaluate", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"fedsurv: error: {scores}: line 3: bad p: must lie in [0, 1]")

    def test_truth_period_listed_twice_exits_2(self, tmp_path, eval_inputs, capsys):
        scores, _ = eval_inputs
        truth = tmp_path / "twice.csv"
        truth.write_text("period\n1\n3\n1\n", encoding="utf-8")
        cfg = write_config(tmp_path, scores=str(scores), truth=str(truth))
        code, out, err = run(["evaluate", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err == f"fedsurv: error: {truth}: line 4: period 1 repeats line 2\n"

    def test_missing_p_column_exits_2(self, tmp_path, eval_inputs, capsys):
        _, truth = eval_inputs
        bad = tmp_path / "bad.csv"
        bad.write_text("period,score\n0,0.5\n", encoding="utf-8")
        cfg = write_config(tmp_path, scores=str(bad), truth=str(truth))
        code, _, err = run(["evaluate", "--config", cfg], capsys)
        assert code == 2
        assert "'p'" in err


@pytest.mark.parametrize(
    "cls",
    [
        SurgeHypothesis,
        PowerCurveConfig,
        SemisynthConfig,
        FederationConfig,
        SemisynthRunConfig,
        FederationRunConfig,
    ],
)
def test_config_schema_round_trips(cls):
    """Every dataclass field is a config key, and the CLI's default for it
    is the class's own: an empty config and the class's defaults written
    out as JSON (nested fields at top level) both read back as cls()."""
    assert take_fields({}, cls, Path.cwd()) == cls()
    data = json.loads(json.dumps(dataclasses.asdict(cls())))
    while any(isinstance(value, dict) for value in data.values()):
        for key, value in list(data.items()):
            if isinstance(value, dict):
                data.update(data.pop(key))
    assert take_fields(data, cls, Path.cwd()) == cls()
    assert data == {}


# Each input file is valid as written. A row fault goes on its third line,
# and a repeated-name fault repeats its first column, header and cells alike.
CSV_INPUTS = {
    "test": COUNTS_CSV,
    "scores": "p,period\n1.0,0\n0.04,1\n0.2,2\n0.01,3\n0.5,4\n",
    "truth": "period,source\n1,lab\n3,lab\n",
}


def _csv_fault(text, fault):
    lines = text.splitlines()
    if fault == "extra cell":
        lines[2] += ",9"
    elif fault == "missing cell":
        lines[2] = lines[2].rsplit(",", 1)[0]
    else:
        lines = [line + "," + line.split(",", 1)[0] for line in lines]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fault", ["extra cell", "missing cell", "repeated column"])
@pytest.mark.parametrize("target", sorted(CSV_INPUTS))
def test_csv_row_rule_exits_2_naming_file_and_place(tmp_path, capsys, target, fault):
    """Every CSV input needs exactly the header's cells in each row and no
    column named twice; the error names the file and the line or column."""
    paths = {name: tmp_path / f"{name}.csv" for name in CSV_INPUTS}
    for name, text in CSV_INPUTS.items():
        text = _csv_fault(text, fault) if name == target else text
        paths[name].write_text(text, encoding="utf-8")
    if target == "test":
        command = ["test", "--config", write_config(tmp_path, csv=str(paths["test"]), at=5)]
    else:
        files = {name: str(paths[name]) for name in ("scores", "truth")}
        command = ["evaluate", "--config", write_config(tmp_path, **files)]
    code, out, err = run(command, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"fedsurv: error: {paths[target]}: ")
    if fault == "repeated column":
        column = CSV_INPUTS[target].split(",", 1)[0]
        assert f"repeated column {column!r}" in err
    else:
        assert "line 3" in err


def _command_reading(directory, target, bom):
    """The command that reads the `target` input, written in `directory`
    with a UTF-8 byte-order mark if `bom`; every other input has none."""
    directory.mkdir()

    def write(name, text, marked):
        path = directory / name
        path.write_text(text, encoding="utf-8-sig" if bom and marked else "utf-8")
        return str(path)

    if target == "combine":
        text = json.dumps({"method": "fisher", "p_values": [0.05, 0.2]})
        return ["combine", "--config", write("config.json", text, True)]
    if target == "test":
        text = json.dumps({"csv": write("counts.csv", COUNTS_CSV, True), "at": 5})
    else:
        files = {name: write(f"{name}.csv", CSV_INPUTS[name], name == "scores")
                 for name in ("scores", "truth")}
        text = json.dumps(files)
    return [target, "--config", write("config.json", text, False)]


@pytest.mark.parametrize("target", ["test", "evaluate", "combine"])
def test_a_byte_order_mark_reads_as_the_same_file(tmp_path, capsys, target):
    """A UTF-8 byte-order mark, which Excel writes by default, before a CSV
    input or a JSON config changes nothing in the command's output."""
    plain = run(_command_reading(tmp_path / "plain", target, False), capsys)
    marked = run(_command_reading(tmp_path / "bom", target, True), capsys)
    assert plain[0] == 0 and plain[1]
    assert marked == plain


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _report_oracle(sites, cfg, seed, combined) -> tuple[str, str]:
    """The federation report and alarms CSV built from a document, as the
    command once wrote them: ``_dumps`` of it, and each alarm's p by repr."""
    timeline = sites[0].timestamps
    periods = [
        {
            "period": cp.period_index,
            "p": cp.p,
            "shares": None if cp.shares is None else list(cp.shares),
            "date": timeline[cp.period_index].isoformat(),
            "alarm": bool(cp.p < cfg.hypothesis.alpha),
        }
        for cp in combined
    ]
    config = dataclasses.asdict(cfg)
    config.update(config.pop("hypothesis"), seed=seed)
    alarms = [e for e in periods if e["alarm"]]
    doc = {
        "config": config,
        "sites": sorted(s.site_id for s in sites),
        "periods": periods,
        "summary": {"n_periods": len(periods), "n_alarms": len(alarms)},
    }
    rows = "".join(f"{e['period']},{e['date']},{e['p']!r}\n" for e in alarms)
    return _dumps(doc), "period,date,p\n" + rows


# Share tuples for n records, in place of run_federation's: one object
# repeated; two objects that are `==` but differ in a zero's sign; A, B, A;
# a new value every period.
def _one_object(n):
    shared = (0.25, 0.75)
    return [shared] * n


def _signed_zeros(n):
    zero, negative = tuple([0.0, 1.0]), tuple([-0.0, 1.0])
    assert zero == negative and zero is not negative
    return [zero] * (n // 2) + [negative] * (n - n // 2)


def _a_b_a(n):
    a, b = (0.25, 0.75), (0.5, 0.5)
    return [a] * (n // 3) + [b] * (n // 3) + [a] * (n - 2 * (n // 3))


def _every_period(n):
    return [(i / n, 1 - i / n) for i in range(n)]


DAILY_CSV = "site_id,date,count\n" + "".join(
    f"{site},2024-03-{day:02d},{count}\n"
    for site, base in (("a", 3), ("b", 8))
    for day, count in enumerate((base, base + 1, base, base + 2, base, base * 4), start=1)
)
SHORT_CSV = "\n".join(COUNTS_CSV.splitlines()[:4] + COUNTS_CSV.splitlines()[7:10]) + "\n"


class TestFederationReport:
    """The report `federation` writes from `run_federation`'s records,
    against ``json.dumps`` of the document they make."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Each `cli.run_federation` call: its arguments and its records."""
        seen = []

        def spy(*args, **kwargs):
            records = run_federation(*args, **kwargs)
            seen.append((args, kwargs, records))
            return records

        monkeypatch.setattr(cli, "run_federation", spy)
        return seen

    @staticmethod
    def report(tmp_path, capsys, calls, fields, seed) -> str:
        """Run `federation` on `fields` with --out, check its files against
        the oracle and its stdout against the file; return the report."""
        if "csv" in fields:
            path = tmp_path / "counts.csv"
            path.write_text(fields["csv"], encoding="utf-8")
            fields = fields | {"csv": str(path)}
        argv = ["federation", "--config", write_config(tmp_path, **fields)]
        argv += [] if seed is None else ["--seed", seed]
        out = tmp_path / "report.json"
        assert run(argv + ["--out", out], capsys)[0] == 0
        ((args, kwargs, records),) = calls
        assert len(args) == 2 and isinstance(args[1], FederationConfig) and kwargs == {}
        report, alarms = _report_oracle(*args, seed, records)
        assert out.read_bytes() == report.encode("utf-8")
        assert (tmp_path / "report.alarms.csv").read_bytes() == alarms.encode("utf-8")
        code, stdout, _ = run(argv, capsys)
        assert code == 0 and stdout.encode("utf-8") == out.read_bytes()
        return report

    @pytest.mark.parametrize(
        "fields, seed, shows",
        [
            ({"method": "wfisher", "share_source": "known", "n_sites": 7}, 5, '"shares": ['),
            (
                {"method": "wfisher", "share_source": "estimated", "n_sites": 7,
                 "reporting_cycle": 3, "lag": 1},
                2024,
                '"share_source": "estimated"',
            ),
            ({"method": "stouffer", "share_source": "none", "n_sites": 7}, 11, '"shares": null'),
            (
                {"method": "wstouffer", "share_source": "known", "n_sites": 1},
                3,
                '"sites": [\n    "builtin-1"\n  ]',
            ),
            (
                {"method": "stouffer", "share_source": "estimated", "n_sites": 1},
                7,
                '"shares": null',
            ),
            ({"csv": COUNTS_CSV, "share_source": "estimated"}, None, '"seed": null'),
            ({"csv": DAILY_CSV, "method": "wfisher"}, None, '"date": "2024-03-06"'),
            ({"csv": SHORT_CSV, "method": "wfisher"}, None, '"periods": []'),
        ],
        ids=["known-wfisher-7", "estimated-wfisher-7", "none-stouffer-7", "known-wstouffer-1",
             "estimated-stouffer-1", "csv", "csv-daily", "csv-shorter-than-a-window"],
    )
    def test_bytes_equal_json_dumps_of_the_records(
        self, tmp_path, capsys, calls, fields, seed, shows
    ):
        assert shows in self.report(tmp_path, capsys, calls, fields, seed)

    @pytest.mark.parametrize("method", combine.METHOD_IDS)
    def test_every_method_s_report_equals_json_dumps(self, tmp_path, capsys, calls, method):
        fields = {"method": method, "share_source": "estimated", "n_sites": 3, "reporting_cycle": 2}
        report = self.report(tmp_path, capsys, calls, fields, 9)
        assert ('"shares": null' in report) == (method not in combine.SHARE_METHODS)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("where", ["p", "share"])
    def test_a_value_json_cannot_hold_raises_and_leaves_no_file(
        self, tmp_path, monkeypatch, bad, where
    ):
        def spoiled(sites, cfg):
            records = run_federation(sites, cfg)
            cp = records[3]
            if where == "p":
                records[3] = cp._replace(p=bad)
            else:
                records[3] = cp._replace(shares=(bad,) + cp.shares[1:])
            return records

        monkeypatch.setattr(cli, "run_federation", spoiled)
        cfg = write_config(tmp_path, method="wfisher", n_sites=3)
        out = tmp_path / "report.json"
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            main(["federation", "--config", str(cfg), "--seed", "1", "--out", str(out)])
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "tuples, shows",
        [
            (_one_object, "0.75"),
            (_signed_zeros, '"shares": [\n        -0.0,'),
            (_a_b_a, '"shares": [\n        0.5,'),
            (_every_period, '"shares": [\n        0.0,'),
        ],
        ids=["one-object", "equal-but-signed-zeros", "a-b-a", "every-period"],
    )
    def test_each_period_s_shares_follow_its_record_s_tuple(
        self, tmp_path, capsys, monkeypatch, tuples, shows
    ):
        """The command renders a share block once per distinct record tuple
        and reuses it while the next record holds the same object; a tuple
        that is `==` to the last but another object is rendered anew, as
        (-0.0, 1.0) after (0.0, 1.0) must be."""
        seen = []

        def spy(*args):
            records = run_federation(*args)
            shares = tuples(len(records))
            records = [cp._replace(shares=u) for cp, u in zip(records, shares)]
            seen.append((args, {}, records))
            return records

        monkeypatch.setattr(cli, "run_federation", spy)
        fields = {"method": "wfisher", "share_source": "known", "n_sites": 2}
        assert shows in self.report(tmp_path, capsys, seen, fields, 5)

    def test_each_zero_keeps_its_sign(self):
        texts = cli._FloatTexts()
        got = [texts[x] for x in (0.0, -0.0, 0.0, 0.5, 0.5)]
        assert got == ["0.0", "-0.0", "0.0", "0.5", "0.5"]
        assert list(texts) == [0.5]


class TestCollectorUntouched:
    """`main` leaves the collector as its caller set it: a command whose
    caller froze nothing runs with nothing frozen, and a caller's frozen
    objects stay frozen while what it made later is not frozen."""

    @pytest.fixture
    def freeze_state(self, monkeypatch):
        """Inside each `cli.run_federation` call, `gc.get_freeze_count()`
        and, for each of `probes`, whether the collector still tracks it
        outside the permanent generation; the call raises DomainError once
        `fail` is set."""
        seen, fail, probes = [], [], []

        def spy(*args):
            unfrozen = [any(o is p for o in gc.get_objects()) for p in probes]
            seen.append((gc.get_freeze_count(), unfrozen))
            if fail:
                raise DomainError("stand-in failure")
            return run_federation(*args)

        monkeypatch.setattr(cli, "run_federation", spy)
        return seen, fail, probes

    @pytest.mark.parametrize("fails", [False, True], ids=["exit-0", "exit-2"])
    def test_the_command_runs_with_nothing_frozen(self, capsys, freeze_state, fails):
        seen, fail, _ = freeze_state
        fail += [True] if fails else []
        assert gc.get_freeze_count() == 0
        assert run(["federation", "--seed", 1], capsys)[0] == (2 if fails else 0)
        assert seen == [(0, [])]
        assert gc.get_freeze_count() == 0

    def test_a_callers_frozen_objects_stay_frozen(self, capsys, freeze_state):
        seen, _, probes = freeze_state
        probes.append([])
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            probes.append([])
            assert run(["federation", "--seed", 1], capsys)[0] == 0
            # main froze nothing more: the count can only fall, as frozen
            # objects that lose their last reference are freed
            assert seen[0][0] <= frozen
            assert seen[0][1] == [False, True]
            assert not any(o is probes[0] for o in gc.get_objects())
        finally:
            gc.unfreeze()


class TestExitCodes:
    def test_invalid_json_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json", encoding="utf-8")
        code, _, err = run(["semisynth", "--config", cfg, "--seed", 1], capsys)
        assert code == 2
        assert "JSON" in err

    def test_nonexistent_config_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            ["semisynth", "--config", tmp_path / "missing.json", "--seed", 1], capsys
        )
        assert code == 2

    def test_nonexistent_csv_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, csv="nowhere.csv", at=5)
        code, _, err = run(["test", "--config", cfg], capsys)
        assert code == 2
        assert "nowhere.csv" in err

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        # a missing output directory is an invocation mistake, not a crash
        cfg = write_config(tmp_path, method="fisher", p_values=[0.5])
        out = tmp_path / "missing_dir" / "out.csv"
        code, _, err = run(["combine", "--config", cfg, "--out", out], capsys)
        assert code == 2

    def test_runtime_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        import fedsurv.cli as cli_module
        from fedsurv.errors import FedsurvError

        def boom(*args, **kwargs):
            raise FedsurvError("engine failure")

        monkeypatch.setattr(cli_module, "run_semisynth_sweep", boom)
        cfg = write_config(tmp_path, n_replicates=1, site_sweep=[2])
        code, _, err = run(["semisynth", "--config", cfg, "--seed", 1], capsys)
        assert code == 1
        assert "engine failure" in err

    @pytest.mark.parametrize(
        "exc, want",
        [
            (MemoryError("Unable to allocate 8.00 TiB"), "Unable to allocate 8.00 TiB"),
            (MemoryError(), "out of memory"),
        ],
    )
    def test_allocation_failure_exits_1(self, tmp_path, capsys, monkeypatch, exc, want):
        # a count within its field's rule that cannot be allocated, such as
        # calibration_reps 2**40; the engine is replaced, so nothing is allocated
        import fedsurv.cli as cli_module

        def out_of_memory(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli_module, "run_power_curve", out_of_memory)
        cfg = write_config(tmp_path, calibration_reps=2**40)
        code, out, err = run(["power-curve", "--config", cfg, "--seed", 1], capsys)
        assert code == 1 and out == ""
        assert err == f"fedsurv: error: {want}\n"

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestConsoleInvocation:
    def test_module_entry_point_round_trip(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(TestCmdSemisynth.TINY | {"seed": 2}), encoding="utf-8"
        )
        cmd = [sys.executable, "-m", "fedsurv.cli", "semisynth", "--config", str(cfg)]
        first = subprocess.run(cmd, capture_output=True, text=True, env=package_env())
        second = subprocess.run(cmd, capture_output=True, text=True, env=package_env())
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout
        assert first.stdout.startswith("sweep,")

    def test_python_m_fedsurv_runs_the_cli(self, tmp_path, counts_csv, capsys):
        cfg = write_config(tmp_path, csv=str(counts_csv), at=5)
        env = package_env()
        cmd = [sys.executable, "-m", "fedsurv", "test", "--config", str(cfg)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        code, out, _ = run(["test", "--config", cfg], capsys)
        assert proc.returncode == code == 0, proc.stderr
        assert proc.stdout == out
        bad = subprocess.run(cmd[:3] + ["nope"], capture_output=True, text=True, env=env)
        assert bad.returncode == 2
