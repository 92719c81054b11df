#!/usr/bin/env python3
"""Steadiness self-check for the e2ebench benchmark.

Runs each workload several times with different seeds through the command
in BENCHMARK.json, then prints, per end-to-end metric, the median, the
quartiles and the quartile spread as a share of the median against the
metric's bound. It also checks every run's answers, sums the node/pivot
witness, reports the tracing overhead (traced minus untraced p50 on the
same seed) and shows how each known benchmark fault is avoided.

Run from the repository root:

    python3 e2ebench/steady.py --runs 10 --trace
    python3 e2ebench/steady.py --runs 5 --workloads serve-online --seconds 36
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["stderr"] = proc.stderr
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--workloads", default=None, help="comma-separated; default: all")
    parser.add_argument("--trace", action="store_true", help="also make a traced run per seed")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = opts.seconds or bench["run_seconds"]
    workloads = opts.workloads.split(",") if opts.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [opts.seed_base + i for i in range(opts.runs)]
    print(f"{len(seeds)} runs per workload, seeds {seeds[0]}..{seeds[-1]}, {seconds} s each, "
          f"{os.cpu_count()} CPUs")

    record = {}
    failed = False
    for workload in workloads:
        plain, traced = [], []
        for seed in seeds:
            r = run_once(command, workload, seed, seconds, 0)
            plain.append(r)
            if opts.trace:
                traced.append(run_once(command, workload, seed, seconds, 1))
            print(f"  {workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} wall={r['wall_s']:.1f}s", flush=True)
        print(f"\n== {workload}")
        print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in plain]
            med, q1, q3, s = spread(values)
            if name == "setup_s":
                verdict = "median only"
            elif s < bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "within bound, above a third"
            else:
                verdict = "TOO NOISY"
                failed = True
            unit = r["metrics"][name]["unit"]
            print(f"{name:<16} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {s:>8.3f} {bound:>6.2f}  {verdict} ({unit})")
            rows[name] = {"values": values, "median": med, "spread": s, "bound": bound}
        wrong = [r for r in plain + traced if not r["correct"] or r["failed"]]
        if wrong:
            failed = True
            print(f"ANSWER CHECK FAILED in {len(wrong)} runs")
        else:
            print(f"answer check passed in all {len(plain) + len(traced)} runs")
        if traced:
            moved = sum(r["metrics"]["witness.moved"]["value"] for r in traced)
            checked = sum(r["metrics"]["witness.checked"]["value"] for r in traced)
            moved_plain = sum(r["stderr"].count("witness:") for r in plain)
            print(f"witness: {int(moved)} of {int(checked)} traced ops and {moved_plain} untraced ops "
                  f"moved off their pinned node/pivot counts")
            overhead = [t["metrics"]["trace.p50_ms"]["value"] - p["metrics"]["p50_ms"]["value"]
                        for p, t in zip(plain, traced)]
            unattributed = [t["metrics"]["trace.unattributed_ms"]["value"] for t in traced]
            print(f"tracing overhead (traced - untraced p50, same seed): median {statistics.median(overhead):.2f} ms; "
                  f"unattributed remainder per op: median {statistics.median(unattributed):.3f} ms")
            rows["traced"] = [t["metrics"] for t in traced]
        setup_ms = rows["setup_s"]["median"] * 1e3
        tail_name = next(n for n in bounds if n.startswith("p") and n.endswith("_ms") and n != "p50_ms")
        tail = rows[tail_name]["median"] / rows["p50_ms"]["median"]
        opm = rows["ops_per_min"]["values"]
        print("known faults:")
        print(f"  set-up is median of repeated work: {setup_ms:.2f} ms (not one microsecond span)")
        print(f"  ops_per_min is measured, not offered: {len(set(opm))} distinct values in {len(opm)} runs")
        print(f"  one instance size per workload: {tail_name} / p50_ms = {tail:.2f}")
        print(f"  threads: every solve runs with threads=1; serve-online uses 2 runners "
              f"on {os.cpu_count()} CPUs")
        record[workload] = rows
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", "steady.json"), "w") as f:
        json.dump(record, f, indent=1)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
