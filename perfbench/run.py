#!/usr/bin/env python3
"""End-to-end benchmark runner for dfdb.

Builds the dfbench program from this checkout's sources, runs one workload
and prints its metrics; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --steadiness 10 [--workload NAME ...] [--seconds S]
  python3 perfbench/run.py --self-test

--workload takes any workload dfbench implements; --steadiness defaults to
the ones BENCHMARK.json gates. Run it from the root of the repository. The
build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
the traced run writes its spans to traces/ beside it. The metric names,
units and bounds come from BENCHMARK.json at the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configures and builds \\p target; returns its path."""
    out = build_dir()
    subprocess.run(
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j4", "--target", target],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def validate(result, spec, trace):
    """Checks the program's result line against BENCHMARK.json. Per-layer
    metrics a workload does not exercise are reported as 0."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise ValueError("undeclared metrics: %s" % ", ".join(unknown))
    for name, unit in units.items():
        if name not in metrics:
            if not trace:
                raise ValueError("missing end-to-end metric %s" % name)
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            raise ValueError("%s: unit %s, declared %s" %
                             (name, metrics[name]["unit"], unit))
    if result["attempted"] < 1:
        raise ValueError("no operation attempted")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: metrics[k] for k in sorted(metrics)}}


def run_once(binary, workload, seed, seconds, trace, spec, echo=True):
    """Runs one workload; returns the validated result dict."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("dfbench exited with %d" % proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    return validate(json.loads(lines[-1]), spec, trace)


def steadiness(binary, spec, workloads, runs, seconds, seed_base):
    """Runs each workload on \\p runs seeds and reports, per end-to-end
    metric, the median, the quartiles and the quartile spread as a share of
    the median, next to the metric's bound."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    worst = 0.0
    for workload in workloads:
        values = {}
        failed = 0
        for i in range(runs):
            result = run_once(binary, workload, seed_base + i, seconds, False,
                              spec, echo=False)
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            log("%s seed %d: %s" % (workload, seed_base + i, " ".join(
                "%s=%.4g" % (k, v["value"])
                for k, v in result["metrics"].items())))
        print("== %s: %d runs, %d failed operations" %
              (workload, runs, failed))
        print("%-14s %12s %12s %12s %8s %8s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        report[workload] = {}
        for name in sorted(values):
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / med if med else float("inf")
            report[workload][name] = {"q1": q1, "median": med, "q3": q3,
                                      "spread": spread,
                                      "values": values[name]}
            worst = max(worst, spread / bounds[name])
            print("%-14s %12.5g %12.5g %12.5g %7.2f%% %7.0f%%" %
                  (name, q1, med, q3, 100 * spread, 100 * bounds[name]))
    path = os.path.join(build_dir(), "steadiness.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print("largest spread / bound: %.2f; report in %s" % (worst, path))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="run each workload on N seeds and report spread")
    parser.add_argument("--self-test", action="store_true",
                        help="run the oracle self-test")
    args = parser.parse_args()

    try:
        spec = load_spec()
        if args.self_test:
            return subprocess.run([build("oracle_selftest")],
                                  timeout=RUN_TIMEOUT_S).returncode
        seconds = args.seconds or spec["run_seconds"]
        binary = build("dfbench")
        names = [w["name"] for w in spec["workloads"]]
        if args.steadiness:
            steadiness(binary, spec, args.workload or names, args.steadiness,
                       seconds, args.seed)
            return 0
        if not args.workload or len(args.workload) != 1:
            parser.error("--workload NAME is required")
        result = run_once(binary, args.workload[0], args.seed, seconds,
                          args.trace == 1, spec)
    except (OSError, ValueError, RuntimeError, KeyError,
            subprocess.SubprocessError) as e:
        log("run.py: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
