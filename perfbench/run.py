#!/usr/bin/env python3
"""End-to-end benchmark of mobsrv_serve, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library, mobsrv_serve and the load generator (perfbench/src) in
Release under .bench_build/, records the machine calibration, then lets
perfbench_load drive one real mobsrv_serve process through the workload
named in perfbench/workloads.json. The seed only shapes the generated
requests; the server receives nothing but the frames.

Every run checks the outputs: per-tenant outcomes contiguous in t, every
step's move/service and the final totals bit-identical to an in-process
sim::Session replay, the resumed stream identical to the uninterrupted
one, and the client's counts equal to the server's `metrics` frame. A run
that fails the check reports failure, not numbers.

With --trace 0 the result carries the end_to_end metrics of BENCHMARK.json,
with --trace 1 the per_layer metrics (from the same end-to-end run plus an
in-process replay that times every call into each library layer). Every
metric measured is printed with its unit; the last line of standard output
is the JSON result. --report PATH also writes the full report with calibration.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "perfbench"
BIN = BUILD / "bin"
RUN_TIMEOUT_S = 170


def die(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build() -> None:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "tools" / "serve_main.cpp").is_file():
        die("run from the repository root: the mobsrv sources are missing here")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for another checkout
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with log.open("w") as out:
        if not cache.is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            step = subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                                   "-DCMAKE_BUILD_TYPE=Release"], stdout=out, stderr=out)
            if step.returncode != 0:
                die(f"cmake configure failed, see {log}", 1)
        jobs = str(min(4, os.cpu_count() or 1))
        step = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                               "mobsrv_serve", "perfbench_load"], stdout=out, stderr=out)
        if step.returncode != 0:
            sys.stderr.write(log.read_text()[-4000:])
            die("build failed", 1)
    build_type = ""
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type != "Release":
        die(f"refusing to measure a {build_type or 'untyped'} build; the benchmark needs Release")


def calibration() -> dict:
    cores = len(os.sched_getaffinity(0))
    spin = subprocess.run([str(BIN / "perfbench_load"), "calibrate", f"--threads={cores}"],
                          capture_output=True, text=True, check=True, timeout=60)
    result = json.loads(spin.stdout.strip().splitlines()[-1])
    result["nproc"] = cores
    result["build_type"] = "Release"
    return result


def run_load(workload: dict, args: argparse.Namespace, rundir: Path) -> dict:
    flags = [f"--{key}={str(value).lower() if isinstance(value, bool) else value}"
             for key, value in workload.items()]
    command = [str(BIN / "perfbench_load"), "run", f"--serve={BIN / 'mobsrv_serve'}",
               f"--rundir={rundir.relative_to(ROOT)}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--seed={args.seed}",
               *flags]
    # Own process group, so a timeout also stops the server it spawned.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("perfbench_load timed out", 1)
    if proc.returncode != 0 or not stdout.strip():
        sys.stderr.write(stderr)
        log = rundir / "server.log"
        if log.is_file():
            sys.stderr.write(log.read_text()[-2000:])
        die(f"perfbench_load exited {proc.returncode}", 1)
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--report", help="also write the full report (JSON) here")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())
    if args.workload not in workloads:
        die(f"unknown workload {args.workload!r}; known: {', '.join(workloads)}")
    build()
    calib = calibration()
    print("calibration: " + json.dumps(calib))

    rundir = ROOT / ".bench_build" / f"run-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        report = run_load(workloads[args.workload], args, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    measured = report["metrics"]
    problems = list(report["problems"])
    if measured.get("closed_failed", 0) != 0:
        problems.append("requests failed in the closed-loop phase")
    if measured.get("client.driver_paced", 0):
        print("warning: the load generator, not the server, set the open-loop pace "
              f"(late share {measured['gen.late_share']:.3f}, "
              f"client busy share {measured['client.busy_share']:.2f})")
    for problem in problems:
        print(f"check failed: {problem}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in measured:
            problems.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": measured[name], "unit": metric["unit"]}
    # Every metric measured is printed, the ungated end-to-end figures
    # (checkpoint_p50_ms, lat_p99_us, ...) too; the result line keeps the
    # set --trace selects.
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if metric["name"] in measured:
            print(f"{args.workload} {metric['name']} = {measured[metric['name']]:.6g} "
                  f"{metric['unit']}")
    correct = report["correct"] and not problems
    if args.report:
        Path(args.report).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "calibration": calib, "correct": correct,
             "problems": problems, "metrics": measured}, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics if correct else {}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
