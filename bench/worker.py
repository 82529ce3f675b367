"""Run one fedsurv command in this fresh process and report on it.

    python3 bench/worker.py '{"mode": "run", "argv": [...]}'

`src` must be on PYTHONPATH. The process first imports the package, which
is the set-up every `fedsurv` command pays (interpreter start, then
fedsurv, numpy and scipy), and notes the monotonic time at which the
command could begin. Then, by mode:

* "run": call `fedsurv.cli.main(argv)` and time it, recording the config
  the command resolved and handed to its experiment;
* "trace": the same under the tracer, adding per-layer spans and counters.

It prints one JSON line on stdout.
"""

import time

from fedsurv import cli

READY = time.monotonic()

import contextlib  # noqa: E402  (after the set-up mark on purpose)
import dataclasses  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

# the experiment entry points `cli` calls once its config is resolved
EXPERIMENTS = ("run_power_curve", "run_semisynth_sweep", "run_federation")


def _describe(args) -> list:
    """Config dataclasses in full and sequences by their length. Scalars,
    such as the seed, are left out: the benchmark records the seed itself."""
    out = []
    for value in args:
        if dataclasses.is_dataclass(value):
            out.append(dataclasses.asdict(value))
        elif isinstance(value, (list, tuple)):
            out.append({"count": len(value)})
    return out


@contextlib.contextmanager
def resolved_config(module):
    """Wrap the experiment entry points `module` binds with a pass-through
    that keeps their positional arguments. Yields a list that holds, once
    the command is done, the described arguments of each experiment call."""
    originals = {name: getattr(module, name) for name in EXPERIMENTS}
    calls = []

    def passthrough(fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        return recorded

    described = []
    try:
        for name, fn in originals.items():
            setattr(module, name, passthrough(fn))
        yield described
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)
        described.extend(_describe(args) for args in calls)


def _timed_main(argv) -> tuple[int, float]:
    start = time.perf_counter()
    rc = cli.main(argv)
    return rc, time.perf_counter() - start


def main() -> int:
    spec = json.loads(sys.argv[1])
    mode = spec["mode"]
    report = {
        "ready": READY,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if mode == "run":
        with resolved_config(cli) as resolved:
            report["rc"], report["run_s"] = _timed_main(spec["argv"])
        report["resolved"] = resolved
    elif mode == "trace":
        from tracer import Tracer, install

        tracer = Tracer()
        with install(tracer):
            report["rc"], report["run_s"] = _timed_main(spec["argv"])
        report["trace"] = {
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "counters": tracer.counters,
            "root_s": tracer.root_s,
        }
    else:
        raise ValueError(f"unknown mode {mode!r}")
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
