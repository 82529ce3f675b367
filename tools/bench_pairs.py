"""Compare the benchmark of two checkouts in alternating pairs of runs.

    python tools/bench_pairs.py PARENT CHANGE --workload W --seed S --seconds N --pairs K

Each pair runs the benchmark command of ``BENCHMARK.json`` (``python3
bench/run.py``) with ``--workload W --seed S --seconds N --trace 0`` in
each checkout, one after the other; the parent runs first in odd pairs and
the change in even ones, so a drift of the host's speed falls on both
sides alike. Each run's last line of standard output is its result.

For each metric the runs report, it prints every pair, both medians, the
parent's quartiles and in how many pairs the change was better, in the
direction ``BENCHMARK.json`` declares. It exits 1 if any run failed or
was not ``correct``, else 0. It uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _benchmark(checkout: Path) -> tuple[list[str], dict[str, str]]:
    """The benchmark command and each declared metric's better direction."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec.get("end_to_end", []) + spec.get("per_layer", [])
    return spec["command"], {m["name"]: m["better"] for m in metrics}


def _run(command: list[str], checkout: Path, args) -> dict:
    """One benchmark run in ``checkout``: its result line, parsed."""
    argv = command + [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if done.returncode != 0 or not isinstance(result, dict) or "metrics" not in result:
        sys.stderr.write(done.stderr)
        sys.exit(f"bench_pairs: {checkout}: run exited {done.returncode} without a result line")
    return result


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _report(name: str, better: str | None, pairs: list[tuple[float, float]]) -> None:
    parent = [a for a, _ in pairs]
    change = [b for _, b in pairs]
    print(f"{name} ({better} is better)" if better else name)
    for i, (a, b) in enumerate(pairs, start=1):
        print(f"  pair {i}: parent {a:.6g}  change {b:.6g}")
    m_parent, m_change = statistics.median(parent), statistics.median(change)
    q1, q3 = _quartiles(parent)
    line = f"  median: parent {m_parent:.6g} (quartiles {q1:.6g}-{q3:.6g}) -> change {m_change:.6g}"
    if m_parent:
        line += f" ({(m_change - m_parent) / abs(m_parent):+.1%})"
    if better in ("lower", "higher"):
        wins = sum((b < a) if better == "lower" else (b > a) for a, b in pairs)
        line += f"; change better in {wins} of {len(pairs)}"
    print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    command, better = _benchmark(args.change)
    sides = {"parent": args.parent, "change": args.change}
    results = []
    incorrect = 0
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side] = _run(command, sides[side], args)
            if pair[side].get("correct") is not True:
                incorrect += 1
                print(f"pair {i + 1}: {side} run not correct "
                      f"({pair[side].get('failed')} of {pair[side].get('attempted')} failed)")
        print(f"pair {i + 1} done, {order[0]} first", file=sys.stderr)
        results.append(pair)

    names = [n for n in results[0]["parent"]["metrics"] if n in results[0]["change"]["metrics"]]
    for name in names:
        pairs = [
            (pair["parent"]["metrics"][name]["value"], pair["change"]["metrics"][name]["value"])
            for pair in results
        ]
        if all(isinstance(v, (int, float)) for pair in pairs for v in pair):
            _report(name, better.get(name), pairs)
    if incorrect:
        print(f"{incorrect} run(s) not correct")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
