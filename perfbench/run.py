#!/usr/bin/env python3
"""Benchmark command: build the round executable from source, run fixed-work
rounds of one workload for about --seconds seconds (one process per round),
and print the medians.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every round runs the same seeded inputs; a
round whose correctness checks fail makes the run incorrect. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. With --trace 1, traced and untraced
rounds alternate so that obs.overhead_pct compares their throughput.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROUND_EXE = os.path.join("_build", "default", "perfbench", "round.exe")
WORKLOADS = ("smallbank", "ycsb_hot", "tpcc_durable", "sim_smallbank")
MIN_ROUNDS = 3  # per kind of round
TOTAL_LIMIT_S = 170.0  # a run must end within 180 s once built
ROUND_TIMEOUT_S = 150.0


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    p = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/round.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0 or not os.path.exists(ROUND_EXE):
        fail("build failed:\n" + p.stdout[-4000:])


def run_round(workload, seed, traced):
    try:
        p = subprocess.run(
            [ROUND_EXE, workload, str(seed), "1" if traced else "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("round timed out")
    if p.returncode != 0:
        fail("round exited with %d:\n%s" % (p.returncode, p.stderr[-4000:]))
    sys.stderr.write(p.stderr[-4000:])
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail("round printed no result:\n" + p.stdout[-2000:] + p.stderr[-2000:])


def median_metrics(rounds, key):
    """{name: (median value, unit)} over the rounds' `key` metrics."""
    out = {}
    for name, m in rounds[0][key].items():
        out[name] = (statistics.median(r[key][name]["value"] for r in rounds),
                     m["unit"])
    return out


def git_commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown (not a git checkout)"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    # A terminated run raises SystemExit, and subprocess.run then kills the
    # round it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    build()

    # Rounds while the next one is expected to end within the measuring
    # time (its kind's median round time so far), at least MIN_ROUNDS of
    # each kind, never past the run's overall time limit.
    t0 = time.monotonic()
    traced, untraced = [], []
    took = {True: [], False: []}
    longest = 0.0
    while True:
        kinds_done = (len(untraced) >= MIN_ROUNDS and
                      (not a.trace or len(traced) >= MIN_ROUNDS))
        want_trace = a.trace == 1 and len(traced) <= len(untraced)
        elapsed = time.monotonic() - t0
        if kinds_done and elapsed + statistics.median(took[want_trace]) > a.seconds:
            break
        if kinds_done and elapsed + 1.5 * longest > TOTAL_LIMIT_S:
            break
        r0 = time.monotonic()
        r = run_round(a.workload, a.seed, want_trace)
        took[want_trace].append(time.monotonic() - r0)
        longest = max(longest, took[want_trace][-1])
        (traced if want_trace else untraced).append(r)

    rounds = traced + untraced
    errors = sorted({e for r in rounds for e in r["errors"]})
    e2e = median_metrics(untraced, "end_to_end")
    if a.trace:
        metrics = median_metrics(traced, "per_layer")
        on = statistics.median(r["end_to_end"]["throughput_tps"]["value"] for r in traced)
        off = e2e["throughput_tps"][0]
        metrics["obs.overhead_pct"] = ((off / on - 1.0) * 100.0, "%")
        wanted = spec["per_layer"]
    else:
        metrics = e2e
        wanted = spec["end_to_end"]

    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got[1] != m["unit"]:
            fail("metric %s (%s) missing or in another unit" % (m["name"], m["unit"]))

    envelope = dict(rounds[0]["envelope"])
    envelope.update({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "rounds": len(untraced),
        "traced_rounds": len(traced),
        "run_s": round(time.monotonic() - t0, 3),
    })
    print("envelope " + json.dumps(envelope, sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        print("%-36s %16.4f %s" % (name, value, unit))
    for k, r in enumerate(rounds):
        host = r["envelope"].get("host_speed")
        print("round %d%s %s%s" % (k, " traced" if k < len(traced) else "", " ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in r["end_to_end"].items()),
            "" if host is None else " host_speed=%.3f" % host))
    if a.trace:
        # Benchmark-side spans of the traced rounds: median total and self s.
        names = [s["name"] for s in traced[0]["spans"]]
        for n in names:
            tot = [s["total_s"] for r in traced for s in r["spans"] if s["name"] == n]
            slf = [s["self_s"] for r in traced for s in r["spans"] if s["name"] == n]
            print("span %-28s total %9.4f s  self %9.4f s"
                  % (n, statistics.median(tot), statistics.median(slf)))
    for e in errors:
        print("error " + e)

    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()
                    if n in {m["name"] for m in wanted}},
    }))


if __name__ == "__main__":
    main()
