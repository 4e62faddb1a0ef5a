#!/usr/bin/env python3
"""A/A calibration and smoke check for the benchmark (called by perf/run.sh).

--aa     Run the whole set of workloads twice with the same code. Each set
         is N runs per workload, each with another seed; successive rounds
         alternate the order of the workloads. For every workload x metric
         the record holds both medians, the gap between them in the
         metric's "worse" direction, and each set's spread (distance between
         the quartiles of statistics.quantiles(values, n=4) as a share of
         the median) -- the two figures the driver accepts or rejects the
         benchmark on. Writes perf/calibration.json, whose `bounds` block
         is what BENCHMARK.json has to carry, and prints it.

--smoke  Run every workload once untraced and once traced at a fiftieth of
         the size and check that the names, units and directions printed
         are exactly those of BENCHMARK.json, and that the bounds and the
         end-to-end list of BENCHMARK.json are the ones calibration.json
         derived.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CALIBRATION = os.path.join(HERE, "calibration.json")

# Floors of the bounds: what a metric is allowed even if the A/A gap is
# smaller. Virtual-time metrics of the simulator repeat exactly for a seed
# and vary only with the seed; counts vary little; wall-clock figures more.
FLOOR_VIRTUAL = 0.01
FLOOR_COUNT = 0.02
FLOOR_WALL = 0.05
COUNT_METRICS = {"allocs_per_commit", "commit_ratio"}
# The contract caps every bound here. A metric that needs more cannot be
# bounded and is demoted to the per-layer list. setup_s has to stay, is
# exempt from the driver's spread test, and by the contract carries the
# largest bound.
BOUND_CAP = 0.25


def run_once(binary, workload, seed, seconds, traced, smoke=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    if smoke:
        cmd.append("--smoke")
    began = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.time() - began
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    provenance = None
    for line in lines:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
    return result, provenance, lines, wall


def spread(values):
    """IQR / median, with the driver's quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def ceil_to(x, step):
    return math.ceil(x / step - 1e-9) * step


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def names(binary):
    out = subprocess.run([binary, "--names"], capture_output=True, text=True, check=True)
    table = {"end_to_end": [], "per_layer": [], "workload": []}
    for line in out.stdout.splitlines():
        kind, *rest = line.split()
        table[kind].append(tuple(rest))
    return table


def aa(args):
    table = names(args.bin)
    workloads = [w[0] for w in table["workload"]]
    directions = {name: better for name, _unit, better in table["end_to_end"]}
    sets = []
    walls = {w: [] for w in workloads}
    provenance = None
    for s in range(2):
        values = {w: {m: [] for m in directions} for w in workloads}
        slice_iqr = {w: [] for w in workloads}
        for i in range(args.seeds):
            order = workloads if i % 2 == 0 else list(reversed(workloads))
            for w in order:
                seed = 1 + s * 100 + i
                result, provenance, _lines, wall = run_once(
                    args.bin, w, seed, args.seconds, traced=False)
                if not result["correct"] or result["failed"]:
                    sys.exit(f"{w} seed {seed}: {result['failed']} failed operations")
                for m in directions:
                    values[w][m].append(result["metrics"][m]["value"])
                slice_iqr[w].append(provenance.get("slice_iqr_ratio", 0.0))
                walls[w].append(wall)
                print(f"set {s} round {i} {w} seed {seed}: {wall:.1f}s", file=sys.stderr)
        sets.append((values, slice_iqr))

    record = {"provenance": provenance, "seeds_per_set": args.seeds,
              "seconds": args.seconds, "workloads": {}, "bounds": {}}
    need = {m: 0.0 for m in directions}
    for w in workloads:
        record["workloads"][w] = {"run_wall_s_median": statistics.median(walls[w]),
                                  "metrics": {}}
        for m, better in directions.items():
            a, b = sets[0][0][w][m], sets[1][0][w][m]
            med_a, med_b = statistics.median(a), statistics.median(b)
            gap = worse_by(med_a, med_b, better)
            entry = {
                "median_first": med_a, "median_second": med_b,
                "gap_worse": gap,
                "spread_first": spread(a), "spread_second": spread(b),
                "slice_iqr_median": statistics.median(sets[0][1][w] + sets[1][1][w]),
                "values_first": a, "values_second": b,
            }
            record["workloads"][w]["metrics"][m] = entry
            # The bound has to hold the drift of the median twice over and
            # the spread three times over (the contract asks for a spread
            # under a third of the bound), and never goes under the floor.
            virtual = w.startswith("sim-") and m in (
                "goodput_ops_s", "commit_p50_ms", "commit_p95_ms", "commit_ratio")
            floor = FLOOR_VIRTUAL if virtual else FLOOR_COUNT if m in COUNT_METRICS else FLOOR_WALL
            wanted = max(floor, 2 * abs(gap))
            if m != "setup_s":
                wanted = max(wanted, 3 * max(entry["spread_first"], entry["spread_second"]))
            need[m] = max(need[m], wanted)
    for m, wanted in need.items():
        bound = BOUND_CAP if m == "setup_s" else min(BOUND_CAP, ceil_to(wanted, 0.01))
        record["bounds"][m] = {
            "needed": wanted, "bound": round(bound, 2),
            "demote": m != "setup_s" and wanted > BOUND_CAP,
        }
    with open(CALIBRATION, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    print(f"{'workload':<18}{'metric':<20}{'median A':>14}{'median B':>14}"
          f"{'gap':>9}{'spread A':>10}{'spread B':>10}")
    for w in workloads:
        for m in directions:
            e = record["workloads"][w]["metrics"][m]
            print(f"{w:<18}{m:<20}{e['median_first']:>14.4f}{e['median_second']:>14.4f}"
                  f"{e['gap_worse']:>+9.4f}{e['spread_first']:>10.4f}{e['spread_second']:>10.4f}")
    print()
    for m, b in record["bounds"].items():
        note = "  <- demote to per-layer" if b["demote"] else ""
        print(f"bound {m:<20} needs {b['needed']:.4f} -> {b['bound']:.2f}{note}")
    print(f"wrote {CALIBRATION}")


def bounds_problems(spec):
    """BENCHMARK.json must carry exactly what the last calibration derived:
    its bounds, and no end-to-end metric the calibration demoted."""
    with open(CALIBRATION) as f:
        derived = json.load(f)["bounds"]
    problems = []
    listed = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, b in derived.items():
        if b["demote"]:
            if name in listed:
                problems.append(f"{name} is end-to-end, calibration.json demotes it "
                                f"(needs {b['needed']:.3f})")
        elif name not in listed:
            problems.append(f"{name} is not end-to-end, calibration.json bounds it")
        elif listed[name] != b["bound"]:
            problems.append(f"{name}: bound {listed[name]} in BENCHMARK.json, "
                            f"{b['bound']} in calibration.json")
    for name in listed.keys() - derived.keys():
        problems.append(f"{name}: end-to-end, but never calibrated")
    return problems


def smoke(args):
    spec = benchmark_json()
    table = names(args.bin)
    problems = bounds_problems(spec)
    want = {
        "workload": [(w["name"],) for w in spec["workloads"]],
        "end_to_end": [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
    }
    for kind, rows in want.items():
        if sorted(rows) != sorted(table[kind]):
            missing = set(rows) - set(table[kind])
            extra = set(table[kind]) - set(rows)
            problems.append(f"{kind}: BENCHMARK.json only {sorted(missing)}, binary only {sorted(extra)}")
    for (w,) in want["workload"]:
        for traced in (False, True):
            result, provenance, lines, wall = run_once(
                args.bin, w, 1, spec["run_seconds"], traced, smoke=True)
            kind = "per_layer" if traced else "end_to_end"
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{w}: result keys {sorted(result)}")
            printed = sorted((n, v["unit"]) for n, v in result["metrics"].items())
            if printed != sorted((n, u) for n, u, _ in want[kind]):
                problems.append(f"{w} trace={int(traced)}: metric names differ from BENCHMARK.json")
            text = "\n".join(lines)
            for n, _u, _b in want[kind]:
                if f"\n{n} " not in text:
                    problems.append(f"{w} trace={int(traced)}: {n} not printed by name")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{w} trace={int(traced)}: {result['failed']} failed of {result['attempted']}")
            if provenance is None or "git_rev" not in provenance:
                problems.append(f"{w} trace={int(traced)}: no provenance record")
            if traced:
                zero = lambda prefix: all(
                    v["value"] == 0 for n, v in result["metrics"].items() if n.startswith(prefix))
                if not w.startswith("tcp-") and not (zero("wire.") and zero("tcp.")):
                    problems.append(f"{w}: wire.* or tcp.* not zero")
                if w == "chan-kv-open" and not zero("plan."):
                    problems.append(f"{w}: plan.* not zero")
            print(f"smoke {w} trace={int(traced)}: {result['attempted']} ops, "
                  f"{result['failed']} failed, {wall:.1f}s")
    if problems:
        sys.exit("smoke check FAILED:\n  " + "\n  ".join(problems))
    print("smoke check passed: names, units, directions and bounds match BENCHMARK.json")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--aa", action="store_true")
    mode.add_argument("--smoke", action="store_true")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = benchmark_json()["run_seconds"]
    if args.aa:
        aa(args)
    else:
        smoke(args)


if __name__ == "__main__":
    main()
