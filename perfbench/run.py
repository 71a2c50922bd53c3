#!/usr/bin/env python3
"""The ddsim benchmark: one command per (workload, seed) run.

    python3 perfbench/run.py --workload exact-long --seed 3 --seconds 25 --trace 0

Run from the root of a ddsim source tree. It builds ddbench
(perfbench/CMakeLists.txt: the ddsim library, ddsweep, bench_fig7_nm and
ddbench) into .bench_build/, computes or loads the cached reference
outputs for the seed, runs the measurement, and prints a human-readable
report followed by one JSON result on the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ledger (a separate traced run). Every result is also saved
with its host and build provenance under .bench_build/out/, which
perfbench/compare.py reads. Exit status: 0 when every output matched
its reference, 1 when any did not (the result is still printed), 2 when
the benchmark could not run (no result is printed).
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
WORKLOADS = ("exact-long", "sampled-long", "fig7-farm")
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type
TARGETS = ("ddbench", "ddsweep", "bench_fig7_nm")
# Inputs of the build, for the source digest in the provenance.
SOURCE_GLOBS = ("src/**/*", "tools/ddsweep.cc", "bench/bench_fig7_nm.cpp",
                "bench/bench_common.*", "tests/differential_baseline.inc",
                "perfbench/**/*", "BENCHMARK.json")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        tail = Path(log_path).read_text(errors="replace")[-4000:]
        raise BenchError(f"{' '.join(map(str, cmd))} failed "
                         f"(exit {proc.returncode}):\n{tail}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no ddsim sources under {ROOT / 'src'}")
    CMAKE_DIR.mkdir(parents=True, exist_ok=True)
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", ROOT / "perfbench", "-B", CMAKE_DIR,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                   BUILD / "configure.log", 600)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
                *TARGETS], BUILD / "build.log", 1200)


def digest_files(paths):
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def cmake_cache(key):
    for line in (CMAKE_DIR / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def provenance():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or "unknown"
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout
        compiler = version.splitlines()[0].strip()
    except (OSError, IndexError, subprocess.SubprocessError):
        pass
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            capture_output=True, text=True, timeout=30)
        describe = describe.stdout.strip() if describe.returncode == 0 \
            else "none"
    except (OSError, subprocess.SubprocessError):
        describe = "none"
    sources = {p for g in SOURCE_GLOBS for p in ROOT.glob(g) if p.is_file()}
    bench = {p for p in sources
             if p.parts[len(ROOT.parts)] in ("perfbench", "BENCHMARK.json")}
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_describe": describe,
        "source_digest": digest_files(sources),
        "benchmark_digest": digest_files(bench),
    }


def ddbench(mode, args, ref_dir, extra, timeout):
    """Run ddbench; returns (exit code, stdout lines)."""
    cmd = [str(CMAKE_DIR / "ddbench"), mode, f"--workload={args.workload}",
           f"--seed={args.seed}", f"--ref-dir={ref_dir}",
           f"--work-dir={BUILD / 'work' / args.workload}",
           f"--bin-dir={CMAKE_DIR}", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    return proc.returncode, proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
        prov = provenance()
        binary = CMAKE_DIR / "ddbench"
        ref_dir = (BUILD / "ref" / digest_files([binary]) /
                   f"{args.workload}-seed{args.seed}")
        if not (ref_dir / "ref.json").is_file():
            t0 = time.monotonic()
            code, lines = ddbench("reference", args, ref_dir, [], 600)
            if code != 0:
                raise BenchError(f"reference run failed (exit {code}):\n" +
                                 "\n".join(lines[-20:]))
            log(f"reference computed in {time.monotonic() - t0:.1f} s")

        out_dir = BUILD / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            code, lines = ddbench("trace", args, ref_dir,
                                  [f"--trace-out={out_dir / stem}.spans.json"],
                                  600)
        else:
            code, lines = ddbench("measure", args, ref_dir,
                                  [f"--seconds={args.seconds}"], 600)
        if code not in (0, 1) or not lines:
            raise BenchError(f"ddbench exited {code}:\n" +
                             "\n".join(lines[-20:]))
        result = json.loads(lines[-1])
    except (BenchError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        return 2

    report = {k: result[k] for k in ("correct", "attempted", "failed",
                                     "metrics")}
    (out_dir / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": prov, "result": report,
        "log": lines[:-1]}, indent=1) + "\n")
    for line in lines[:-1]:
        print(line)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps(report), flush=True)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
