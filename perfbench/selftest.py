#!/usr/bin/env python3
"""Self-test of the perfbench benchmark (run from the source-tree root).

    python3 perfbench/selftest.py [--seconds S]

Runs a short untraced and a short traced pass of every workload and asserts:
  * every named metric is present and finite, with its unit and a sample
    count, and the JSON result line carries the same values;
  * every p90 rests on at least 10 samples beyond it (n >= 100);
  * the output checks ran (jobs checked == attempted > 0, none failed);
  * a fixed seed yields identical inputs twice, and another seed other ones;
  * the traced run is reported correct, which includes its span file
    passing scripts/validate_trace.py --require with the benchmark's own
    span names;
  * BENCHMARK.json (when present) names exactly the metrics run.py reports.
Exit status 0 when every assertion holds.
"""

import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import run  # noqa: E402

ROOT = HERE.parent
LINE = re.compile(r"^  (\S+)\s+(\S+)\s+(\S+)\s+n=(\d+)$")
CHECKS = re.compile(r"^checks: (\d+) jobs checked .*, (\d+) failed")


def run_bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, f"{cmd} failed:\n{proc.stderr[-3000:]}"
    return proc.stdout.splitlines()


def check_run(workload, lines, names):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, f"{workload}: not correct"
    reported = {}
    checked = None
    for line in lines:
        m = LINE.match(line)
        if m:
            reported[m.group(1)] = (float(m.group(2)), m.group(3), int(m.group(4)))
        c = CHECKS.match(line)
        if c:
            checked = (int(c.group(1)), int(c.group(2)))
    assert checked is not None, f"{workload}: no check line"
    assert checked[0] == result["attempted"] > 0, f"{workload}: checks {checked}"
    assert checked[1] == result["failed"] == 0, f"{workload}: failures {checked}"
    for name, unit in names:
        assert name in reported, f"{workload}: {name} not reported"
        value, got_unit, n = reported[name]
        assert math.isfinite(value), f"{workload}: {name} = {value}"
        assert got_unit == unit, f"{workload}: {name} unit {got_unit}"
        assert n >= 1 or value == 0, f"{workload}: {name} has no samples"
        metric = result["metrics"][name]
        assert metric["unit"] == unit and math.isclose(
            metric["value"], value, rel_tol=1e-5, abs_tol=1e-9), name
        if "_p90_" in name:
            beyond = n - math.ceil(0.9 * n)
            assert beyond >= 10, f"{workload}: {name} has {beyond} samples beyond p90"
    assert set(result["metrics"]) == {n for n, _ in names}, workload


def check_inputs():
    for workload in inputs.WORKLOADS:
        a = inputs.generate(workload, 1234)
        assert a == inputs.generate(workload, 1234), f"{workload}: not reproducible"
        assert a != inputs.generate(workload, 1235), f"{workload}: seed ignored"


def check_benchmark_json():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text(encoding="utf-8"))
    e2e = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    layers = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    assert e2e == set(run.END_TO_END), "BENCHMARK.json end_to_end differs"
    assert layers == set(run.PER_LAYER), "BENCHMARK.json per_layer differs"
    assert {w["name"] for w in spec["workloads"]} == set(inputs.WORKLOADS)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=12)
    args = parser.parse_args()
    check_inputs()
    check_benchmark_json()
    for workload in inputs.WORKLOADS:
        check_run(workload, run_bench(workload, 1, args.seconds, 0), run.END_TO_END)
        check_run(workload, run_bench(workload, 1, args.seconds, 1), run.PER_LAYER)
        print(f"selftest: {workload} ok")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
