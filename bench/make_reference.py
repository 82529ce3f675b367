"""Write the reference outputs the benchmark compares against at each
workload's default seed, and each workload's config as the CLI resolves it.

    python3 bench/make_reference.py

Run from the repository root. Each output is stored gzipped (with a
fixed header, so rewriting unchanged output leaves the files unchanged)
under bench/reference/, beside `<workload>.resolved.json`. Regenerate only
when a change to the program is meant to change its outputs or its
defaults, and say so in that change.
"""

import gzip
import json
import sys
import tempfile
from pathlib import Path

from run import OUT_DIR_NAME, WORKLOADS, reference_paths, resolved_path

sys.path.insert(0, str(Path.cwd() / "src"))
from fedsurv import cli  # noqa: E402
from worker import resolved_config  # noqa: E402


def main() -> int:
    for name, workload in WORKLOADS.items():
        scratch = Path.cwd() / OUT_DIR_NAME
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(workload.config), encoding="utf-8")
            out = Path(tmp) / f"out.{workload.outputs[0]}"
            argv = [workload.command, "--config", str(config), "--out", str(out)]
            with resolved_config(cli) as resolved:
                rc = cli.main(argv + ["--seed", str(workload.default_seed)])
            if rc != 0:
                print(f"{name}: fedsurv exited {rc}", file=sys.stderr)
                return 1
            for suffix, target in zip(workload.outputs, reference_paths(name)):
                data = (Path(tmp) / f"out.{suffix}").read_bytes()
                target.parent.mkdir(exist_ok=True)
                target.write_bytes(gzip.compress(data, mtime=0))
                print(f"{target}: {len(data)} bytes")
            resolved_path(name).write_text(json.dumps(resolved, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
