#!/usr/bin/env python3
"""End-to-end benchmark of dmt: rule mining, model training and dmtd serving.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mine_rules --seed 1 \
        --seconds 20 --trace 0

Steps, each in its own process:
  1. build the dmt libraries, dmtd and perfbench_driver (Release) into
     .bench_build/cmake, from this checkout's sources;
  2. generate the seed's inputs into .bench_build/data/<workload>-<seed>
     (outside the measured process, so set-up time and memory exclude it);
  3. run the workload and check its outputs; for mine_rules and
     train_models also launch the driver in set-up-only mode a few times,
     since set-up time is launch -> first timed operation.

The last stdout line is one JSON object: correct, attempted, failed and
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
named in BENCHMARK.json. perfbench/metrics.json says which layer each
per-layer metric belongs to and on which workload it should move.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
DRIVER = BUILD_DIR / "perfbench_driver"
DMTD = BUILD_DIR / "dmt" / "tools" / "dmtd"
WORKLOADS = ("mine_rules", "train_models", "serve_mixed")
# Launches per run whose median is the reported set-up time (serve_mixed
# spawns dmtd several times inside the driver instead).
SETUP_LAUNCHES = {"mine_rules": 9, "train_models": 3}
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no dmt source tree at {ROOT}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = BUILD_DIR / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j4", "--target",
                      "perfbench_driver", "dmtd"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))


def generate(workload, seed):
    data = ROOT / ".bench_build" / "data" / f"{workload}-{seed}"
    marker = data / "complete"
    if marker.is_file() and marker.stat().st_mtime >= DRIVER.stat().st_mtime:
        return data
    data.mkdir(parents=True, exist_ok=True)
    result = subprocess.run(
        [str(DRIVER), "gen", "--workload", workload, "--seed", str(seed),
         "--dir", str(data)], stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    if result.returncode:
        fail(f"input generation failed for {workload} seed {seed}")
    marker.touch()
    return data


def cpu_ticks():
    """(steal, total) jiffies summed over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def launch(workload, seed, data, seconds, trace, setup_only=False):
    """Runs the driver once; returns (launch unix time, info, result)."""
    cmd = [str(DRIVER), "run", "--workload", workload, "--seed", str(seed),
           "--dir", str(data), "--seconds", str(seconds), "--trace",
           str(trace), "--dmtd", str(DMTD)]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        fail(f"driver failed on {workload} (exit {proc.returncode})")
    return launched, json.loads(lines[0])["info"], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    layers = json.loads((BENCH_DIR / "metrics.json").read_text())
    build()
    data = generate(args.workload, args.seed)

    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_LAUNCHES.get(args.workload, 1) - 1):
            launched, _, probe = launch(args.workload, args.seed, data,
                                        args.seconds, 0, setup_only=True)
            setup_samples.append(probe["first_op_unix"] - launched)
    steal0, total0 = cpu_ticks()
    launched, info, result = launch(args.workload, args.seed, data,
                                    args.seconds, args.trace)
    steal1, total1 = cpu_ticks()
    # The written models and rule sets were checked during the run.
    shutil.rmtree(data / "out", ignore_errors=True)
    # Share of the machine's CPU time the hypervisor took during the run:
    # recorded so runs on a contended host can be recognised.
    info["steal_share"] = (steal1 - steal0) / max(1, total1 - total0)
    measured = result["metrics"]
    measured["proc.steal_share"] = {"value": info["steal_share"],
                                    "unit": "ratio"}
    if args.workload in SETUP_LAUNCHES and not args.trace:
        setup_samples.append(result["first_op_unix"] - launched)
        measured["setup_s"] = {"value": statistics.median(setup_samples),
                               "unit": "s"}

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name in measured:
            metrics[name] = {"value": measured[name]["value"],
                             "unit": metric["unit"]}
        elif not args.trace or args.workload in layers[name]["on"]:
            fail(f"{args.workload} did not report {name}")
        else:
            # A layer this workload leaves idle does no work.
            metrics[name] = {"value": 0.0, "unit": metric["unit"]}

    if result["error"]:
        print(f"perfbench: output check: {result['error']}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
