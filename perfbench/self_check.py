#!/usr/bin/env python3
"""Tiny-n self-check of the benchmark.

Run from the repository root:

    python3 perfbench/self_check.py

Runs every workload named in BENCHMARK.json at n = 400 for one second, once
untraced and once traced, and asserts that each run exits 0, passes its
correctness gate with no failed route, prints every metric BENCHMARK.json
names with its unit, and records the seeds and host facts on the line
before the result.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SPEC = HERE.parent / "BENCHMARK.json"
HOST_FACTS = ("graph_seed", "build_seed", "pair_seed", "held_out_seed", "nproc", "cpu_model", "l3_cache",
              "threads_used", "route_cache", "fingerprint")


def check(spec, workload, trace):
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--n", "400"]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    assert run.returncode == 0, f"{workload} trace={trace} exited {run.returncode}"
    lines = run.stdout.splitlines()
    info = json.loads(lines[-2])["perfbench"]
    result = json.loads(lines[-1])
    missing = [k for k in HOST_FACTS if k not in info]
    assert not missing, f"{workload}: info line lacks {missing}"
    assert info["route_cache"] == "off", info["route_cache"]
    assert result["correct"] is True, f"{workload} trace={trace} failed its gate"
    assert result["attempted"] >= 1 and result["failed"] == 0, result
    wanted = spec["per_layer" if trace else "end_to_end"]
    printed = result["metrics"]
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        assert name in printed, f"{workload} trace={trace}: {name} missing"
        assert printed[name]["unit"] == unit, f"{workload}: {name} has unit {printed[name]['unit']}"
        assert isinstance(printed[name]["value"], (int, float)), f"{workload}: {name} is not a number"
    print(f"ok  {workload:20s} trace={trace} {len(wanted)} metrics, fingerprint {info['fingerprint']}")


def main():
    spec = json.loads(SPEC.read_text())
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check(spec, workload["name"], trace)
    print("self-check passed")


if __name__ == "__main__":
    main()
