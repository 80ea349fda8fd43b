#!/usr/bin/env python3
"""Builds the host-time benchmark from source and runs it.

    python3 hostbench/run.py --workload fig9_sweep --seed 1 --seconds 30 --trace 0
    python3 hostbench/run.py --workload all --seed 1 --seconds 30   # all three

Run from the repository root. The build goes to $CARGO_TARGET_DIR/hostbench
(default .bench_build/hostbench); the traced run's span file goes beside it.
Build output goes to stderr, so the driver's JSON result stays the last line
of stdout. Exits non-zero without a result when the simulator sources are
missing or the build fails.
"""
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["fig9_sweep", "gcmc_app", "traffic_nbc"]


def arg_value(argv, flag):
    for i, a in enumerate(argv):
        if a == flag and i + 1 < len(argv):
            return argv[i + 1]
        if a.startswith(flag + "="):
            return a.split("=", 1)[1]
    return None


def main():
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print("hostbench: simulator sources (src/) not found next to hostbench/",
              file=sys.stderr)
        return 1
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = root / build_root
    build = build_root / "hostbench"
    configure = ["cmake", "-S", str(bench_dir), "-B", str(build)]
    if not (build / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja", "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", str(build), "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("hostbench: build failed", file=sys.stderr)
            return 1

    argv = sys.argv[1:]
    if arg_value(argv, "--workload") != "all":
        return run_driver(bench_dir, build, argv)
    # Every workload in turn, each in its own process with its own result line.
    rest = [a for i, a in enumerate(argv)
            if not a.startswith("--workload")
            and not (i > 0 and argv[i - 1] == "--workload")]
    return max(run_driver(bench_dir, build, ["--workload", w] + rest)
               for w in WORKLOADS)


def run_driver(bench_dir, build, argv):
    extra = []
    if arg_value(argv, "--digests-dir") is None:
        extra += ["--digests-dir", str(bench_dir / "digests")]
    if arg_value(argv, "--trace") == "1" and arg_value(argv, "--spans") is None:
        workload = arg_value(argv, "--workload") or "unknown"
        seed = arg_value(argv, "--seed") or "unknown"
        extra += ["--spans", str(build / f"spans-{workload}-{seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run([str(build / "hostbench")] + argv + extra).returncode


if __name__ == "__main__":
    sys.exit(main())
