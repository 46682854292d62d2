#!/usr/bin/env python3
"""Builds and runs the OpineDB benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve_read|ingest_mix \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest     # unit tests of the harness

The engine library is built from ../src together with the benchmark program in
perfbench/cpp, in Release, under $CARGO_TARGET_DIR (default
.bench_build) inside the checkout. WAL segments, snapshots, reports and
traced spans go under the same directory. The program reports every
metric it measured; the last line printed here is the result object with
the metrics BENCHMARK.json declares for the mode (end-to-end for
--trace 0, per-layer for --trace 1). Lines above it are the
human-readable report.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"OpineDB sources not found under {ROOT / 'src'}")
    build_dir = build_root() / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", target,
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / target


def git_sha():
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() or "unavailable"


def source_hash():
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def declared_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found", 1)
    spec = json.loads(spec_path.read_text())
    return spec["per_layer"] if trace else spec["end_to_end"]


def declared_result(line, declared):
    """Keeps, from the program's result object, the declared metrics of the
    mode. A declared metric the workload does not exercise (an ingest layer
    on a read-only workload) reports 0 and is named above the result."""
    measured = json.loads(line)
    if set(measured) != RESULT_KEYS:
        fail(f"result keys {sorted(measured)} are not {sorted(RESULT_KEYS)}",
             1)
    metrics = {}
    idle = []
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        metric = measured["metrics"].get(name)
        if metric is None:
            idle.append(name)
            metric = {"value": 0, "unit": unit}
        elif metric["unit"] != unit:
            fail(f"{name} is measured in {metric['unit']}, "
                 f"BENCHMARK.json declares {unit}", 1)
        metrics[name] = metric
    if idle:
        print("not exercised by this workload, reported as 0: " +
              " ".join(idle))
    measured["metrics"] = metrics
    return json.dumps(measured)


def run(args):
    declared = declared_metrics(args.trace == 1)
    binary = build("opinedb_perfbench")
    start = time.monotonic()
    root = build_root()
    command = [
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", str(root / "perfbench-work"),
        "--results-dir", str(root / "perfbench-results"),
        "--git-sha", git_sha(), "--source-hash", source_hash(),
    ]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               cwd=ROOT)
    watchdog = threading.Timer(
        RUN_TIMEOUT_S - (time.monotonic() - start), process.kill)
    watchdog.start()
    held = None
    try:
        # Echo the report, holding back the last line: the program's result
        # object, from which the declared one is built.
        for line in process.stdout:
            if held is not None:
                sys.stdout.write(held)
            held = line
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
        process.wait()
    if process.returncode != 0:
        fail(f"benchmark exited with code {process.returncode}", 1)
    if held is None:
        fail("benchmark printed nothing", 1)
    print(declared_result(held, declared), flush=True)


def selftest():
    binary = build("perfbench_harness_test")
    sys.exit(subprocess.run([str(binary)]).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["serve_read", "ingest_mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        run(args)
    except subprocess.CalledProcessError as error:
        fail(f"build failed: {error}", 1)


if __name__ == "__main__":
    main()
