#!/usr/bin/env python3
"""Builds the benchmark from source and runs it on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Any further flags (--graph-seed, --build-seed, --n) go to the benchmark
binary unchanged; perfbench/README.md lists them. The binary is
built with `cargo build --release` into $CARGO_TARGET_DIR (perfbench/target
when unset). The last line of standard output is the result object. It is
checked against BENCHMARK.json: with --trace 0 it must carry every
end-to-end metric, with --trace 1 every per-layer metric, each with its unit.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
# A run must finish within 180 s; the build before it is not counted here.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def flag(argv, name):
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return None


def expected_metrics(spec, trace):
    """{name: unit} of the metrics BENCHMARK.json asks for in this mode."""
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, expected):
    """Problems with the result line, as a list of messages."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return [f"the last line is not JSON: {line!r}"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    printed = result["metrics"]
    for name, unit in expected.items():
        if name not in printed:
            problems.append(f"metric {name} is missing")
        elif printed[name].get("unit") != unit:
            problems.append(f"metric {name} has unit {printed[name].get('unit')}, not {unit}")
    for name in printed:
        if name not in expected:
            problems.append(f"metric {name} is not in BENCHMARK.json")
    return problems


def main():
    argv = sys.argv[1:]
    for required in ("--workload", "--seed", "--seconds", "--trace"):
        if flag(argv, required) is None:
            return fail(f"{required} <value> is required")
    spec_path = REPO / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"{spec_path} is missing; it names the metrics to check")
    expected = expected_metrics(json.loads(spec_path.read_text()), flag(argv, "--trace"))
    if not (REPO / "Cargo.toml").is_file() or not (REPO / "crates").is_dir():
        return fail(f"no routing sources (Cargo.toml, crates/) next to {HERE.name}; nothing to build")

    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(HERE / "Cargo.toml"),
            "--bin",
            "perfbench",
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return fail(f"cargo build failed with code {build.returncode}")

    command = [str(target / "release" / "perfbench"), *argv, "--work-dir", str(target / "perfbench-work")]
    started = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"the run took longer than {RUN_TIMEOUT_S} s and was stopped")
    lines = run.stdout.splitlines()
    if not lines:
        return fail(f"the benchmark printed nothing (exit code {run.returncode})")
    problems = check_result(lines[-1], expected)
    if problems:
        for p in problems:
            print(f"perfbench: {p}", file=sys.stderr)
        return 1
    print(f"perfbench: run took {time.monotonic() - started:.1f} s", file=sys.stderr)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
