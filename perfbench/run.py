#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` Cargo package (a
workspace of its own, beside the repository's) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), runs one workload and prints,
as the last line of standard output, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it holds
the run's notes, drift probe, host fingerprint and exact counts.

Exit status: 0 on success; 1 after the result line when an output failed
its reference check; any other non-zero status, with no result line, when
the build or the run failed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 175


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print(f"run.py: build failed ({build.returncode})", file=sys.stderr)
        return 3

    command = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--data", str(HERE / "data" / "dataset.csv"),
        "--trace-out", str(target / "perfbench-trace"),
    ]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                             check=False, text=True)
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    if run.returncode not in (0, 1):
        print(f"run.py: benchmark failed ({run.returncode})", file=sys.stderr)
        return run.returncode if run.returncode > 0 else 5
    try:
        doc = json.loads(run.stdout)
        result = doc["result"]
        result["attempted"] = int(result["attempted"])
        result["failed"] = int(result["failed"])
    except (ValueError, KeyError, TypeError) as e:
        print(f"run.py: unreadable benchmark output: {e}", file=sys.stderr)
        return 6
    context = {k: doc[k] for k in ("notes", "probe", "exact_counts")}
    print(json.dumps({"workload": args.workload, "seed": args.seed, **context}))
    print(json.dumps(result))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
