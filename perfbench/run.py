#!/usr/bin/env python3
"""dbll serving benchmark: one command, two closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dbll source tree. The first run configures and builds
the dbll libraries and the workload binary under $CARGO_TARGET_DIR (default
.bench_build); later runs rebuild incrementally. The seed only feeds
perfbench/inputs.py, which writes the inputs file the workload binary reads;
the binary runs the workload in its own process with every DBLL_* variable removed and a
fresh cache directory that is deleted afterwards.

Standard output: a human-readable report (every metric with unit and sample
count, the host identity and the correctness counts), then, as the last
line, one JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones and writes the
span trace to <build>/traces/. Exit status 0 only when a result was printed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# (name, unit) in report order. BENCHMARK.json lists the same names. The
# latencies are in output elements of the run's own native generic kernel
# (wall time / native ns per element), so the host's speed swings cancel;
# the report prints the wall-clock values beside them.
END_TO_END = [
    ("setup_s", "s"),
    ("ttfsc_p50_elems", "elem"),
    ("elems_per_specialization", "elem"),
    ("job_p50_elems", "elem"),
    ("job_p90_elems", "elem"),
    ("kernel_vs_native", "ratio"),
    ("rss_setup_mb", "MB"),
    ("rss_kb_per_specialization", "KB"),
]
PER_LAYER = [
    ("x86.cfg_us", "us"),
    ("analysis.audit_us", "us"),
    ("lift.lift_us", "us"),
    ("lift.opt_us", "us"),
    ("lift.jit_us", "us"),
    ("lift.ir_insts_pre_opt", "count"),
    ("lift.ir_insts_post_opt", "count"),
    ("runtime.stage_sum_us", "us"),
    ("runtime.queue_wait_us", "us"),
    ("runtime.compiles_per_key", "ratio"),
    ("runtime.store_write_us", "us"),
    ("runtime.request_us", "us"),
    ("runtime.store_load_us", "us"),
    ("runtime.install_us", "us"),
    ("runtime.shm_hit_ratio", "ratio"),
    ("runtime.installs_per_key", "ratio"),
    ("runtime.counter_gap", "count"),
    ("dbrew.rewrite_us", "us"),
    ("runtime.tier0a_us", "us"),
    ("runtime.promote_ms", "ms"),
    ("runtime.promotions_per_job", "ratio"),
    ("runtime.target_ns", "ns"),
    ("stencil.line_flat_ns_per_elem", "ns"),
    ("stencil.line_sorted_ns_per_elem", "ns"),
    ("stencil.element_flat_ns_per_elem", "ns"),
    ("spmv.ns_per_row", "ns"),
    ("stencil.vs_native_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
]

# Spans every traced run of a workload must contain (validate_trace.py
# --require takes the same names).
COMMON_SPANS = ["bench.setup", "bench.job", "runtime.request", "bench.check",
                "x86.cfg", "analysis.audit", "lift.lift", "lift.opt",
                "lift.jit", "dbrew.rewrite", "runtime.target_batch",
                "kernel.pass", "kernel.direct_pass"]
REQUIRED_SPANS = {
    "cold_specialize": COMMON_SPANS + ["runtime.serve_until_specialized",
                                       "kernel.steady_pass", "kernel.native_band",
                                       "runtime.service_start",
                                       "runtime.store_load", "runtime.install"],
    "tiered_jobs": COMMON_SPANS + ["kernel.calls", "runtime.wait_idle"],
}

WORKLOAD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def _run_logged(cmd, log):
    with open(log, "a", encoding="utf-8") as out:
        out.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        out.flush()
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        tail = Path(log).read_text(encoding="utf-8", errors="replace")[-3000:]
        raise BenchError(f"command failed: {' '.join(map(str, cmd))}\n{tail}")


def build(root):
    """Configures/builds the dbll libraries and the workload binary; returns
    its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} holds no dbll source tree to build")
    root.mkdir(parents=True, exist_ok=True)
    log = root / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    lib_dir, bin_dir = root / "dbll", root / "perfbench"
    if not (lib_dir / "CMakeCache.txt").exists():
        _run_logged(["cmake", "-S", ROOT, "-B", lib_dir,
                     "-DCMAKE_BUILD_TYPE=Release", "-DDBLL_BUILD_TESTS=OFF",
                     "-DDBLL_BUILD_BENCHMARKS=OFF",
                     "-DDBLL_BUILD_EXAMPLES=OFF"], log)
    _run_logged(["cmake", "--build", lib_dir, "-j", jobs, "--target",
                 "dbll_runtime", "dbll_stencil", "dbll_spmv"], log)
    if not (bin_dir / "CMakeCache.txt").exists():
        _run_logged(["cmake", "-S", ROOT / "perfbench", "-B", bin_dir,
                     "-DCMAKE_BUILD_TYPE=Release",
                     f"-DDBLL_BUILD_DIR={lib_dir}"], log)
    _run_logged(["cmake", "--build", bin_dir, "-j", jobs], log)
    return bin_dir / "perfbench_workload"


def source_digest():
    """Digest of the sources the benchmark builds and runs."""
    digest = hashlib.sha1()
    for base in ("CMakeLists.txt", "src", "include", "perfbench"):
        path = ROOT / base
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file() and "__pycache__" not in f.parts:
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return "src-sha1:" + digest.hexdigest()[:16]


def source_revision():
    """Git revision plus, when the tree differs from it (or is not a git
    checkout), a digest of the built sources."""
    def git(*cmd):
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), *cmd],
                                  capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    if not head:
        return source_digest()
    if git("status", "--porcelain"):
        return f"{head}-dirty-{source_digest()}"
    return head


def cpu_times():
    """(steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_pct(before, after):
    """Share of CPU time the hypervisor took away while the workload binary ran."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return 100.0 * (after[0] - before[0]) / (after[1] - before[1])


def check_trace(path, workload):
    """Runs scripts/validate_trace.py with this workload's span names;
    returns None when the trace passes, else the validator's complaint."""
    cmd = [sys.executable, str(ROOT / "scripts" / "validate_trace.py"), str(path)]
    for name in REQUIRED_SPANS[workload]:
        cmd += ["--require", name]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    return None if proc.returncode == 0 else (proc.stderr or proc.stdout).strip()


def run(args):
    root = build_root()
    binary = build(root)
    tag = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir = root / "runs" / tag
    trace_path = root / "traces" / f"{args.workload}-seed{args.seed}.json"
    run_dir.mkdir(parents=True, exist_ok=True)
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    try:
        inputs_path = run_dir / "inputs.txt"
        inputs_path.write_text(inputs.generate(args.workload, args.seed),
                               encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if not k.startswith("DBLL_")}
        cmd = [str(binary), "--inputs", str(inputs_path),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--cache-dir", str(run_dir / "cache")]
        if args.trace:
            cmd += ["--trace-out", str(trace_path)]
        before = cpu_times()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
        steal = steal_pct(before, cpu_times())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"workload binary exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if not lines:
        raise BenchError("workload binary printed no result")
    result = json.loads(lines[-1])
    result["host"]["steal_pct"] = round(steal, 2)
    trace_problem = check_trace(trace_path, args.workload) if args.trace else None
    return result, trace_problem, trace_path


def report(args, result, trace_problem, trace_path):
    names = PER_LAYER if args.trace else END_TO_END
    got = result["metrics"]
    host = result["host"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    rev = source_revision()
    print(f"host: cpu={host['cpu']!r} isa={host['isa_level']} "
          f"nproc={host['nproc']} llvm={host['llvm']} rev={rev} "
          f"steal={host['steal_pct']}% "
          f"native_ns_per_elem={host['native_ns_per_elem']}")
    counters = result["counters"]
    print("counters: " + " ".join(f"{k}={v}" for k, v in counters.items()))
    print(f"checks: {attempted} jobs checked against the native generic "
          f"kernel, {failed} failed; error_rate={failed / max(1, attempted):.6f}")
    if result.get("exhausted"):
        print("note: the schedule ran out before the window ended")
    metrics, missing = {}, []
    for name, unit in names:
        if name not in got:
            missing.append(name)
            continue
        value, got_unit, n = got[name]
        if got_unit != unit:
            raise BenchError(f"{name}: unit {got_unit} != {unit}")
        print(f"  {name:36s} {value:14.6g} {unit:6s} n={n}")
        metrics[name] = {"value": value, "unit": unit}
    if args.trace:
        print(f"trace: {trace_path} "
              f"({'ok' if trace_problem is None else trace_problem})")
        cov = got.get("trace.coverage", [0])[0]
        print(f"unattributed (no layer span or stage time): {100 * (1 - cov):.1f}% "
              "of job time")
    if not args.trace:
        print("wall clock (follows the host's speed, not gated): " + " ".join(
            f"{name}={value:.6g}{unit}" for name, (value, unit, _)
            in result.get("absolute", {}).items()))
    if missing:
        raise BenchError("workload binary did not report: " + ", ".join(missing))
    correct = failed == 0 and attempted > 0 and trace_problem is None
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": host, "rev": rev, "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(build_root() / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result, trace_problem, trace_path = run(args)
        report(args, result, trace_problem, trace_path)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
