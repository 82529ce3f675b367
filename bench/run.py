"""The fedsurv benchmark: four `fedsurv` commands, timed end to end and,
in a separate traced run, layer by layer.

    python3 bench/run.py --workload semisynth_sweep --seed 42 --seconds 60 --trace 0

Run it from the repository root; it uses the package under `src/` as is.
Every repetition runs in a fresh process (bench/worker.py) with BLAS and
OpenMP limited to one thread. With `--trace 0` the run measures set-up
and untraced repetitions; with `--trace 1` it alternates untraced and
traced repetitions and reports per-layer metrics and the tracing
overhead. Every repetition's output is checked (bench/checks.py); a
repetition that exits non-zero, raises or fails a check counts as failed.
The end-to-end times are rescaled to a reference host speed, measured by
a calibration loop in this process around every repetition (CAL_REF_S).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it is the
run record, which is also written to `.bench_out/`. See bench/README.md
for why each workload and metric is here.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR_NAME = ".bench_out"

# A worker still running this long after --seconds is taken as hung.
HANG_GUARD_S = 120.0

# Host speed. The benchmark shares its host, whose speed drifts by up to
# 1.5x within a minute, for Python loops and numpy kernels alike. So the
# end-to-end times are given at a reference speed: between workers, this
# process times CAL_CHUNKS runs of a fixed calibration chunk, and a
# worker's times are multiplied by CAL_REF_S over the median chunk time of
# the calibrations just before and just after it. The chunk runs in the
# benchmark's own process, so no change to fedsurv can move it. Raw wall
# times are kept in the run record.
CAL_CHUNKS = 40
CAL_REF_S = 0.006  # about one chunk on the 2.1 GHz Xeon of bench/README.md
_CAL_DATA = np.random.default_rng(0).random(50_000)


def _cal_chunk() -> float:
    """Seconds one calibration chunk takes: an interpreter loop, then a
    sort and an elementwise pass over 50,000 floats."""
    start = time.perf_counter()
    s = 0
    for i in range(50_000):
        s += i * i % 7
    np.exp(np.sort(_CAL_DATA)).cumsum()
    return time.perf_counter() - start


def calibrate() -> list[float]:
    return [_cal_chunk() for _ in range(CAL_CHUNKS)]


@dataclasses.dataclass(frozen=True)
class Workload:
    command: str
    config: dict
    default_seed: int
    items: int
    item_unit: str

    @property
    def outputs(self) -> tuple[str, ...]:
        """Suffixes of the files the command writes for `--out out.<first>`."""
        if self.command == "federation":
            return ("json", "alarms.csv")
        return ("csv",)


# Why each workload is here: bench/README.md. The seed is the benchmark's
# --seed; at `default_seed` the output is also compared with the reference.
WORKLOADS = {
    "power_mc": Workload(
        "power-curve",
        {},
        42,
        500_000,  # 100k calibration + 8 x 50k power replicates
        "replicates",
    ),
    "semisynth_sweep": Workload(
        "semisynth",
        {},
        42,
        2_640,  # 12 sweep points x 20 replicates x 11 methods
        "scored method-replicates",
    ),
    "federation_estimated": Workload(
        "federation",
        {
            "method": "wfisher",
            "n_sites": 50,
            "share_source": "estimated",
            "reporting_cycle": 4,
            "lag": 2,
        },
        2024,
        19_800,  # 50 sites x 396 periods
        "site-periods",
    ),
    "federation_known": Workload(
        "federation",
        {"n_sites": 50},
        2024,
        19_800,
        "site-periods",
    ),
}

def metric_specs(root: Path, trace: bool) -> list[dict]:
    """The metrics BENCHMARK.json declares for an untraced or a traced run."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


# ------------------------------------------------------------ one process


class RepFailure(Exception):
    """A repetition that exited non-zero, raised, or produced bad output."""


class Runner:
    """Spawns worker processes for one workload and checks their outputs."""

    def __init__(self, root: Path, work_dir: Path, name: str, seed: int, seconds: float):
        self.name = name
        workload = self.workload = WORKLOADS[name]
        self.outputs = [work_dir / f"out.{suffix}" for suffix in workload.outputs]
        self.work_dir = work_dir
        self.started = time.monotonic()
        self.hang_deadline = self.started + seconds + HANG_GUARD_S
        config_path = work_dir / "config.json"
        config_path.write_text(json.dumps(workload.config), encoding="utf-8")
        self.argv = [
            workload.command,
            "--config", str(config_path),
            "--seed", str(seed),
            "--out", str(self.outputs[0]),
        ]
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
            ),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.reference = load_reference(name) if seed == workload.default_seed else None
        self.expected_resolved = json.loads(resolved_path(name).read_text(encoding="utf-8"))
        self.output_digest: str | None = None
        self.last_calibration: list[float] | None = None
        self.versions: dict = {}

    def spawn(self, mode: str) -> dict:
        """One worker process; its report plus `setup_s`."""
        timeout = max(1.0, self.hang_deadline - time.monotonic())
        before = self.last_calibration or calibrate()
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), json.dumps({"mode": mode, "argv": self.argv})],
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise RepFailure(f"{mode}: no result within {timeout:.0f} s") from None
        finally:
            self.last_calibration = calibrate()
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            raise RepFailure(f"{mode}: worker exited {proc.returncode}: {tail[0]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["ready"] - spawned
        report["cal_s"] = _median(before + self.last_calibration)
        self.versions = report["versions"]
        return report

    def repetition(self, mode: str) -> dict:
        """Run the command once in a fresh process and check what it wrote."""
        for path in self.outputs:
            path.unlink(missing_ok=True)
        report = self.spawn(mode)
        if report["rc"] != 0:
            raise RepFailure(f"{mode}: fedsurv exited {report['rc']}")
        if mode == "run" and report["resolved"] != self.expected_resolved:
            # the command's defaults changed, so the workload is no longer the same
            raise RepFailure(f"{mode}: resolved config differs from {resolved_path(self.name)}")
        try:
            texts = [path.read_text(encoding="utf-8") for path in self.outputs]
        except OSError as exc:
            raise RepFailure(f"{mode}: output missing: {exc}") from None
        try:
            check_output(self.workload, texts, self.reference)
        except checks.CheckError as exc:
            raise RepFailure(f"{mode}: output check failed: {exc}") from None
        digest = _digest(texts)
        if self.output_digest is None:
            self.output_digest = digest
        elif digest != self.output_digest:
            raise RepFailure(f"{mode}: output differs from the first repetition's")
        if mode == "trace":
            _check_self_time(report)
        return report


def check_output(workload: Workload, texts: list[str], reference: list[str] | None) -> None:
    """Dispatch a workload's output files to their checker."""
    if workload.command == "power-curve":
        checks.check_power_csv(texts[0], reference and reference[0])
    elif workload.command == "semisynth":
        checks.check_semisynth_csv(texts[0], reference and reference[0])
    else:
        checks.check_federation(texts[0], texts[1], reference and (reference[0], reference[1]))


def reference_paths(name: str) -> list[Path]:
    """The workload's outputs at its default seed, gzipped."""
    return [REFERENCE_DIR / f"{name}.{suffix}.gz" for suffix in WORKLOADS[name].outputs]


def resolved_path(name: str) -> Path:
    """The workload's config as the CLI resolves it, at any seed."""
    return REFERENCE_DIR / f"{name}.resolved.json"


def load_reference(name: str) -> list[str]:
    return [gzip.decompress(p.read_bytes()).decode("utf-8") for p in reference_paths(name)]


def _digest(texts: list[str]) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(hashlib.sha256(t.encode("utf-8")).digest())
    return h.hexdigest()


def _check_self_time(report: dict) -> None:
    """Self times of all spans must add up to the root span, which must lie
    inside the timed call."""
    trace = report["trace"]
    total = sum(trace["self_s"].values())
    if abs(total - trace["root_s"]) > 1e-6 * max(1.0, trace["root_s"]):
        raise RepFailure(f"self times sum to {total!r}, root span is {trace['root_s']!r}")
    if min(trace["self_s"].values()) < 0 or trace["root_s"] > report["run_s"]:
        raise RepFailure("negative self time or root span longer than the run")


# ------------------------------------------------------------- schedule


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[dict, list, int, list[str]]:
    """Repeat until `seconds` are used, without starting a repetition that
    would overrun them once every kind has at least one sample.

    Returns (samples, resolved config, attempted, failures)."""
    deadline = runner.started + seconds
    samples = {"setup_s": [], "run_s": [], "cal_s": [], "peak_rss_kb": [], "trace": []}
    failures: list[str] = []
    resolved = None
    kinds = ("run", "trace") if trace else ("run",)
    done = {k: 0 for k in kinds}
    last_wall: dict[str, float] = {}
    attempted = 0
    while True:
        kind = min(kinds, key=lambda k: done[k])
        if min(done.values()) >= 1 and time.monotonic() + last_wall[kind] > deadline:
            break
        attempted += 1
        done[kind] += 1
        began = time.monotonic()
        try:
            report = runner.repetition(kind)
        except RepFailure as exc:
            failures.append(str(exc))
            continue
        finally:
            last_wall[kind] = time.monotonic() - began
        if kind == "run":
            if resolved is None:
                resolved = report["resolved"]
            samples["run_s"].append(report["run_s"])
            samples["setup_s"].append(report["setup_s"])
            samples["cal_s"].append(report["cal_s"])
            samples["peak_rss_kb"].append(report["peak_rss_kb"])
        else:
            samples["trace"].append(report)
    return samples, resolved, attempted, failures


# -------------------------------------------------------------- metrics


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def at_reference_speed(times: list[float], cal_s: list[float]) -> list[float]:
    """Each time rescaled by its repetition's calibration (see CAL_REF_S)."""
    return [t * CAL_REF_S / c for t, c in zip(times, cal_s, strict=True)]


def untraced_metrics(workload: Workload, samples: dict) -> dict:
    run_s = _median(at_reference_speed(samples["run_s"], samples["cal_s"]))
    return {
        "run_s": run_s,
        "items_per_s": workload.items / run_s,
        "setup_s": _median(at_reference_speed(samples["setup_s"], samples["cal_s"])),
        "peak_rss_mb": _median([kb / 1024.0 for kb in samples["peak_rss_kb"]]),
    }


def traced_metrics(samples: dict, names: list[str]) -> dict:
    """Per-layer metrics: medians of times over the traced repetitions;
    calls and counters from the first (the command is deterministic, so
    they repeat exactly)."""
    reports = samples["trace"]
    first = reports[0]["trace"]
    calls, counters = first["calls"], first["counters"]

    def self_s(span: str) -> float:
        return _median([r["trace"]["self_s"].get(span, 0.0) for r in reports])

    def ratio(num: str, den: str) -> float:
        d = counters.get(den, 0)
        return counters.get(num, 0) / d if d else 0.0

    out = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if field in ("calls", "elements", "cells"):
            # a counter where the tracer keeps one, else the span's calls;
            # a counter is absent only when its span was never entered
            out[name] = counters.get(name, calls.get(span, 0) if field == "calls" else 0)
        elif field == "self_s":
            out[name] = self_s(span)
        elif name == "numerics.binomial_cdf.distinct_ratio":
            out[name] = ratio("numerics.binomial_cdf.distinct", "numerics.binomial_cdf.elements")
        elif name == "federation.share_scan.useful_ratio":
            out[name] = ratio("federation.share_scan.sites", "federation.share_scan.scanned")
    traced_run_s = _median([r["run_s"] for r in reports])
    out["unattributed_s"] = _median([r["run_s"] - r["trace"]["root_s"] for r in reports])
    out["traced_run_s"] = traced_run_s
    out["trace_overhead_s"] = traced_run_s - _median(samples["run_s"])
    return out


# ---------------------------------------------------------------- record


def _commit(root: Path) -> str:
    """HEAD of a git checkout at `root`, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(root, name, workload, args, runner, resolved, samples, attempted, failures):
    reference_bytes = None
    if runner.reference is not None and runner.output_digest is not None:
        reference_bytes = runner.output_digest == _digest(runner.reference)
    return {
        "workload": name,
        "seed": args.seed,
        "default_seed": workload.default_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": ["fedsurv", workload.command, "--seed", str(args.seed)],
        "config": workload.config,
        "resolved": resolved,
        "items": workload.items,
        "item_unit": workload.item_unit,
        "commit": _commit(root),
        "python": platform.python_version(),
        "numpy": runner.versions.get("numpy"),
        "scipy": runner.versions.get("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "repeats": {
            "setup": len(samples["setup_s"]),
            "untraced": len(samples["run_s"]),
            "traced": len(samples["trace"]),
        },
        "attempted": attempted,
        "failed": len(failures),
        "fail_rate": len(failures) / attempted if attempted else None,
        "failures": failures,
        "reference_checked": runner.reference is not None,
        "bytes_match_reference": reference_bytes,
        "cal_ref_s": CAL_REF_S,
        "wall_run_s": _median(samples["run_s"]),
        "wall_setup_s": _median(samples["setup_s"]),
        "samples": {
            "setup_s": samples["setup_s"],
            "run_s": samples["run_s"],
            "cal_s": samples["cal_s"],
            "traced_run_s": [r["run_s"] for r in samples["trace"]],
            "peak_rss_kb": samples["peak_rss_kb"],
        },
    }


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "fedsurv" / "cli.py").is_file():
        print("bench: src/fedsurv not found; run from the repository root", file=sys.stderr)
        return 2
    compileall.compile_dir(root / "src", quiet=1)
    workload = WORKLOADS[args.workload]
    out_dir = root / OUT_DIR_NAME
    out_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        runner = Runner(root, work_dir, args.workload, args.seed, args.seconds)
        samples, resolved, attempted, failures = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if not samples["run_s"] or (args.trace and not samples["trace"]):
        print("bench: no repetition succeeded:", *failures, sep="\n  ", file=sys.stderr)
        return 1
    specs = metric_specs(root, bool(args.trace))
    if args.trace:
        metrics = traced_metrics(samples, [m["name"] for m in specs])
    else:
        metrics = untraced_metrics(workload, samples)
    record = run_record(root, args.workload, workload, args, runner, resolved, samples, attempted, failures)
    record["metrics"] = metrics
    record_path = out_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for failure in failures:
        print(f"bench: failed: {failure}", file=sys.stderr)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in specs},
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
