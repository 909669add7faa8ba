#!/usr/bin/env python3
"""Benchmark runner for the multimedia-network simulator.

Measure one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload ring --seed 7 --seconds 20 --trace 0

Check steadiness, and compare two sets of runs (e.g. parent vs change):

    python3 perfbench/run.py steady --runs 10 --save parent.json
    python3 perfbench/run.py compare parent.json change.json

Test the benchmark's own parts:

    python3 perfbench/run.py selftest

The simulator and the benchmark binary are built from source into
.bench_build/perfbench under the checkout root on first use.  See
perfbench/NOTES.md for the workloads, metrics and measured spreads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPEC = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures once, then brings `target` up to date; output to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return BUILD / target


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, trace):
    """Runs the benchmark binary once; returns (result dict, exit code)."""
    spec = load_spec()
    binary = build("perfbench")
    trace_dir = BUILD / "trace"
    trace_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", str(trace_dir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        log(f"perfbench: {workload} exited with {proc.returncode}")
        sys.exit(3)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    for reason in raw["failures"]:
        log(f"perfbench: failed repetition: {reason}")

    metrics = {}
    if trace == 0:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "node_rounds_per_s": statistics.median(raw["node_rounds_per_s"]),
            "result_s": statistics.median(raw["result_s"]),
            "setup_s": statistics.median(raw["setup_s"]),
            "peak_rss_mb": raw["peak_rss_mb"],
        } if raw["result_s"] else {}
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {k: statistics.median(v) for k, v in raw["layers"].items()}
        if raw["traced_result_s"]:
            values["trace.overhead"] = (
                statistics.median(raw["traced_result_s"])
                / statistics.median(raw["result_s"]))
        log(f"perfbench: spans written to {trace_dir}")
    for name, unit in units.items():
        if name in values:
            metrics[name] = metric(values[name], unit)

    correct = raw["failed"] == 0 and len(metrics) == len(units)
    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return result, 0 if correct else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def change(metric_spec, base, other):
    """Relative change of `other` from `base`, positive = `other` worse."""
    if metric_spec["better"] == "lower":
        return (other - base) / base
    return (base - other) / base


def steady(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = {w: [] for w in names}
    # Per workload: repetitions attempted and failed, and runs that failed.
    counts = {w: {"attempted": 0, "failed": 0, "failed_runs": 0}
              for w in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else list(reversed(names))
        for w in order:
            seed = args.seed + i
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
            result = json.loads(line) if line.startswith("{") else None
            took = time.monotonic() - t0
            if result is None:
                result = {"correct": False, "attempted": 0, "failed": 0}
            counts[w]["attempted"] += result["attempted"]
            counts[w]["failed"] += result["failed"]
            if not result["correct"]:
                counts[w]["failed_runs"] += 1
                log(f"run {i} {w} seed {seed}: FAILED ({took:.1f} s)")
                continue
            runs[w].append({k: v["value"]
                            for k, v in result["metrics"].items()})
            log(f"run {i} {w} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in runs[w][-1].items())
                + f" ({took:.1f} s)")
    summary = summarize(spec, runs)
    print_summary(spec, summary, counts)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"runs": runs, "counts": counts, "summary": summary},
                      f, indent=1)
    return 1 if any(c["failed_runs"] for c in counts.values()) else 0


def summarize(spec, runs):
    """Per workload and metric: median, quartiles, spread; None if no run
    of the workload was correct."""
    out = {}
    for w, samples in runs.items():
        if not samples:
            out[w] = None
            continue
        out[w] = {}
        for m in spec["end_to_end"]:
            q1, med, q3 = quartiles([s[m["name"]] for s in samples])
            out[w][m["name"]] = {"q1": q1, "median": med, "q3": q3,
                                 "spread": (q3 - q1) / med, "n": len(samples)}
    return out


def print_summary(spec, summary, counts):
    print(f"{'workload':<11} {'metric':<18} {'unit':<5} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for w, per_metric in summary.items():
        for m in spec["end_to_end"] if per_metric else []:
            s = per_metric[m["name"]]
            flag = "" if s["spread"] < m["bound"] / 3 else "  > bound/3"
            print(f"{w:<11} {m['name']:<18} {m['unit']:<5} "
                  f"{s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{s['spread']:>7.3f} {m['bound']:>6.2f}{flag}")
        c = counts[w]
        print(f"{w:<11} repetitions attempted {c['attempted']}, failed "
              f"{c['failed']}; runs failed {c['failed_runs']}")


def compare(args):
    """Do two sets of runs agree within the benchmark's bounds?

    They agree when both cover every workload of BENCHMARK.json with no
    failed run or repetition, every spread is within its metric's bound,
    and every median differs from the other set's by at most the bound, in
    either direction.  Which set is better is reported beside it.
    """
    spec = load_spec()
    names = sorted(w["name"] for w in spec["workloads"])
    sets = []
    for path in (args.base, args.other):
        with open(path) as f:
            sets.append(json.load(f))
    ok = True
    for label, data in zip(("base", "other"), sets):
        if sorted(data["summary"]) != names:
            print(f"{label}: workloads {sorted(data['summary'])}, "
                  f"BENCHMARK.json has {names}")
            ok = False
        for w, c in sorted(data["counts"].items()):
            if c["failed"] or c["failed_runs"] or not data["summary"].get(w):
                print(f"{label}: {w} has {c['failed_runs']} failed runs, "
                      f"{c['failed']} failed repetitions")
                ok = False
    base, other = sets[0]["summary"], sets[1]["summary"]
    for w in names:
        if not base.get(w) or not other.get(w):
            continue
        for m in spec["end_to_end"]:
            a, b = base[w][m["name"]], other[w][m["name"]]
            delta = change(m, a["median"], b["median"])
            problems = []
            if abs(delta) > m["bound"]:
                problems.append(f"medians differ by {abs(delta):.3f}")
            for label, s in (("base", a), ("other", b)):
                if s["spread"] > m["bound"]:
                    problems.append(f"{label} spread {s['spread']:.3f}")
            ok = ok and not problems
            side = "other worse" if delta > 0 else "other better"
            print(f"{w:<11} {m['name']:<18} base {a['median']:.6g} "
                  f"other {b['median']:.6g} {side} by {abs(delta):.3f} "
                  f"bound {m['bound']:.2f} "
                  + ("agree" if not problems else "; ".join(problems)))
    print("agree" if ok else "disagree")
    return 0 if ok else 1


def selftest(_args):
    return subprocess.run([str(build("perfbench_selftest"))]).returncode


def main(argv):
    if argv and argv[0] in ("steady", "compare", "selftest"):
        parser = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "steady":
            parser.add_argument("--runs", type=int, default=10)
            parser.add_argument("--seed", type=int, default=1,
                                help="first seed; run i uses seed + i")
            parser.add_argument("--save", default="")
        elif argv[0] == "compare":
            parser.add_argument("base")
            parser.add_argument("other")
        args = parser.parse_args(argv[1:])
        return {"steady": steady, "compare": compare,
                "selftest": selftest}[argv[0]](args)

    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=0,
                        help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in [w["name"] for w in load_spec()["workloads"]]:
        parser.error(f"unknown workload {args.workload}")
    result, code = measure(args.workload, args.seed,
                           args.seconds or load_spec()["run_seconds"],
                           args.trace)
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
