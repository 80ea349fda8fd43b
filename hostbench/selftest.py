#!/usr/bin/env python3
"""Self-tests of the host-time benchmark. Run from the repository root:

    python3 hostbench/selftest.py [workload ...]

1. Two traced runs of one seed report identical counters and digests.
2. A corrupted expected digest shows up as error_rate 1.0, not a crash.
3. Unknown workload names and malformed arguments exit 2 with a message.

Exits 0 when every check passes. Takes a few minutes (it builds first).
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN = [sys.executable, str(BENCH / "run.py")]
DEFAULT_SEED = "1"  # the seed the committed digests are taken at
EXACT_UNITS = {"count", "bytes", "ratio"}
# Ratios of host times, not of counters.
TIMED_RATIOS = {"metrics.collect_overhead", "metrics.sampler_overhead",
                "trace.recorder_overhead", "bench.span_overhead"}

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args):
    return subprocess.run(RUN + args, capture_output=True, text=True)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(proc):
    m = re.search(r"digest ([0-9a-f]{16})", proc.stdout)
    return m.group(1) if m else None


def build_dir():
    proc = run(["--workload", "fig9_sweep", "--seed", "x"])  # builds, then exits 2
    if proc.returncode != 2:
        sys.exit("selftest: build failed:\n" + proc.stderr[-3000:])
    m = re.search(r"Build files have been written to: (\S+)", proc.stderr)
    return Path(m.group(1)) if m else Path(".bench_build/hostbench")


def repeat_check(workload):
    args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1"]
    a, b = run(args), run(args)
    check(a.returncode == 0 and b.returncode == 0, f"{workload}: traced runs exit 0")
    if a.returncode or b.returncode:
        return
    ra, rb = result(a), result(b)
    check(ra["correct"] and rb["correct"], f"{workload}: traced runs correct")
    check(digest(a) is not None and digest(a) == digest(b),
          f"{workload}: digest repeats ({digest(a)} vs {digest(b)})")
    diffs = [k for k, v in ra["metrics"].items()
             if v["unit"] in EXACT_UNITS and k not in TIMED_RATIOS
             and v["value"] != rb["metrics"][k]["value"]]
    check(not diffs, f"{workload}: counters repeat exactly {diffs or ''}")


def corrupt_check(workdir):
    bad = workdir / "corrupt-digests"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(BENCH / "digests", bad)
    for f in bad.glob("*.txt"):
        lines = f.read_text().splitlines()
        out = [lines[0]] + [f"{op} {int(h, 16) ^ 1:016x}"
                            for op, h in (l.split() for l in lines[1:])]
        f.write_text("\n".join(out) + "\n")
    proc = run(["--workload", "traffic_nbc", "--seed", DEFAULT_SEED,
                "--seconds", "1", "--trace", "0", "--digests-dir", str(bad)])
    check(proc.returncode == 0, "corrupted digests: exits 0")
    if proc.returncode == 0:
        r = result(proc)
        check(not r["correct"] and r["attempted"] > 0
              and r["failed"] == r["attempted"],
              f"corrupted digests: error_rate 1.0 ({r['failed']}/{r['attempted']})")
    shutil.rmtree(bad)


def usage_checks():
    for args, what in [
        (["--workload", "nope", "--seed", "1"], "unknown workload"),
        (["--workload", "gcmc_app", "--seed", "abc"], "non-numeric seed"),
        (["--workload", "gcmc_app", "--seed", "-3"], "negative seed"),
        (["--workload", "gcmc_app", "--seed", "12x"], "trailing garbage in seed"),
        (["--workload", "gcmc_app", "--seed", "99999999999999999999999"],
         "seed out of range"),
        (["--workload", "gcmc_app", "--seed", "1", "--trace", "2"], "bad --trace"),
        (["--workload", "gcmc_app", "--seed", "1", "--seconds", "0"], "bad --seconds"),
        (["--workload", "gcmc_app", "--seed", "1", "--bogus", "1"], "unknown flag"),
    ]:
        proc = run(args)
        check(proc.returncode == 2 and "hostbench:" in proc.stderr
              and not proc.stdout.strip(), f"{what}: exits 2 with a message")


def main():
    workloads = sys.argv[1:] or ["fig9_sweep", "gcmc_app", "traffic_nbc"]
    workdir = build_dir()
    usage_checks()
    corrupt_check(workdir)
    for w in workloads:
        repeat_check(w)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
