#!/usr/bin/env python3
"""Repository benchmark: lap latency of the ADVM toolchain, end to end and
layer by layer.

    python3 perfbench/run.py --workload healthy|stale|port --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the advm layer libraries
from src/ plus the advm_perfbench program) into .bench_build/, runs one
workload for S seconds, prints every metric with its unit, median,
quartiles and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

BENCHMARK.json lists healthy and port; stale is run by hand (see its note
in perfbench/layers.json).

--trace 0 reports the end-to-end metrics of BENCHMARK.json: lap and set-up
CPU time scaled to a reference host by a calibration kernel timed before
each (see perfbench/main.cpp), and peak RSS; the laps' wall and unscaled
CPU figures are printed beside them. --trace 1 reports its per-layer
metrics, taken from laps replayed through each layer's public calls
(perfbench/layers.json holds what each should move). The Chrome trace of
a traced run is kept under .bench_build/traces/. Exits non-zero when any
output check fails.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
BINARY = CMAKE_DIR / "advm_perfbench"
WORKLOADS = ("healthy", "stale", "port")
RUN_TIMEOUT_S = 170

# advm_perfbench sample names of the end-to-end metrics named otherwise.
SAMPLE_OF = {"lap_ref_cpu_p50_ms": "lap_ref_cpu_ms"}


def die(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then rebuilds incrementally; build output goes to
    stderr only on failure."""
    if not (ROOT / "src" / "advm" / "session.h").is_file():
        die(f"no advm sources under {ROOT / 'src'}", 2)
    cmake = shutil.which("cmake")
    if cmake is None:
        die("cmake not found", 2)
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append([cmake, "-S", str(HERE), "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", str(CMAKE_DIR), "--target",
                  "advm_perfbench", "-j", "4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            die("build failed")


def load_metrics():
    """The end-to-end and per-layer metrics of BENCHMARK.json, with the
    per-layer extras of layers.json merged in; the two files must name the
    same per-layer metrics."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    extras = json.loads((HERE / "layers.json").read_text())["per_layer"]
    names = {m["name"] for m in benchmark["per_layer"]}
    if names != set(extras):
        die("BENCHMARK.json and perfbench/layers.json name different "
            f"per-layer metrics: {sorted(names ^ set(extras))}", 2)
    layers = [{**m, **extras[m["name"]]} for m in benchmark["per_layer"]]
    return benchmark["end_to_end"], layers


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def describe(name, unit, values):
    q1, q3 = quartiles(values)
    return (f"{name:30s} {statistics.median(values):16.6g} {unit:6s} "
            f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0", 2)

    end_to_end, layers = load_metrics()
    build()
    # Each run writes its tree into a work directory of its own.
    work = BUILD / "work"
    shutil.rmtree(work, ignore_errors=True)
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", str(work)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
        if args.trace:
            traces = BUILD / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            trace = work / "trace.json"
            if trace.is_file():
                shutil.move(str(trace), str(
                    traces / f"{args.workload}-seed{args.seed}.json"))
    except subprocess.TimeoutExpired:
        die(f"advm_perfbench did not finish in {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        die(f"advm_perfbench exited {done.returncode} without a result")
    result = json.loads(lines[-1])
    samples = {name: m["samples"] for name, m in result["metrics"].items()}
    units = {name: m["unit"] for name, m in result["metrics"].items()}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  jobs 4")
    for name in sorted(samples):
        if samples[name]:
            print(describe(name, units[name], samples[name]))
    for name, (num, den) in sorted(result["ratios"].items()):
        value = num / den if den else 0.0
        print(f"{name:30s} {value:16.6g}        = {num:.6g} / {den:.6g}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")

    metrics = {}
    if args.trace:
        for layer in layers:
            values = samples.get(layer["name"])
            if not values:
                die(f"no samples for per-layer metric {layer['name']}")
            value = statistics.median(values)
            metrics[layer["name"]] = {"value": value, "unit": layer["unit"]}
            if "base" in layer:
                num, den = (statistics.median(samples[b])
                            for b in layer["base"])
                print(f"{layer['name']:30s} base {layer['base'][0]} "
                      f"{num:.6g} / {layer['base'][1]} {den:.6g}")
    else:
        for metric in end_to_end:
            name = metric["name"]
            values = samples.get(SAMPLE_OF.get(name, name))
            if not values:
                die(f"no samples for end-to-end metric {name}")
            metrics[name] = {"value": statistics.median(values),
                             "unit": metric["unit"]}
        # Only the scaled CPU time is gated: on a shared host, wall and
        # unscaled CPU time follow what other tenants take from the VM.
        for sample in ("lap_ms", "lap_cpu_ms", "lap_ref_cpu_ms"):
            laps = sorted(samples[sample])
            prefix = sample[:-3]
            print(f"{prefix + '_p50_ms':30s} {statistics.median(laps):16.6g} "
                  f"ms     over {len(laps)} laps")
            # The highest percentile with at least ten laps beyond it.
            for pct in (99, 90):
                if len(laps) * (100 - pct) >= 1000:
                    value = laps[len(laps) * pct // 100]
                    print(f"{f'{prefix}_p{pct}_ms':30s} {value:16.6g} ms")
                    break

    correct = bool(result["correct"]) and done.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
