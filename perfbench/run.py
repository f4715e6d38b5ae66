#!/usr/bin/env python3
"""otisnet campaign benchmark: one workload per invocation.

    python3 perfbench/run.py --workload grid_small --seed 1 --seconds 50 --trace 0

Run from the repository root. Builds the library and the driver from
source into .bench_build/perfbench (the first run compiles), generates the
workload's campaign specs (its parts) from the seed, runs the driver in a
fresh process (peak RSS is process-lifetime), checks its outputs and
prints every metric with its unit. The last stdout line is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md). A round runs every part of the workload once;
a timing sums its parts within a round and is the median over the rounds
of one run. The cells a run attempts are counted in "attempted", the ones
whose invariants or digests fail in "failed".

--write-digests records the per-cell digests of the default seed in
perfbench/digests.json (only for a change that is meant to alter
simulated results).
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "otis_perfbench"
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_SEED = 1
# The pool and engine thread count: the host's CPUs, at most four, so the
# workloads stay the ones described in README.md and memory stays small.
THREADS = max(1, min(4, len(os.sched_getaffinity(0))))
DRIVER_TIMEOUT_S = 170

SK_10_10_3 = {"kind": "stack_kautz", "s": 10, "d": 10, "k": 3}


def specs_for(workload, seed):
    """The campaign specs (parts) of one workload; the seed picks the cell
    seeds."""
    if workload == "grid_small":
        return [{
            "name": "grid_small",
            "topologies": [
                {"kind": "stack_kautz", "s": 4, "d": 3, "k": 2},
                {"kind": "pops", "t": 6, "g": 12},
                {"kind": "stack_imase_itoh", "s": 4, "d": 2, "n": 12},
            ],
            "arbitrations": ["token", "random", "aloha"],
            "traffic": ["uniform"],
            "loads": [0.2, 0.5, 0.9],
            "wavelengths": [1, 4],
            "seeds": [2 * seed - 1, 2 * seed],
            "warmup_slots": 500,
            "measure_slots": 10000,
            "engine": "phased",
        }]
    if workload != "large":
        raise ValueError(f"unknown workload {workload}")

    def large(name, **fields):
        spec = {
            "name": name,
            "topologies": [SK_10_10_3],
            "arbitrations": ["token"],
            "traffic": ["uniform"],
            "wavelengths": [1],
            "routes": ["compressed"],
            "seeds": [seed],
            # One engine thread: on a shared host every stall of any core
            # holds all shards at the next barrier, and at two or four
            # threads whole runs took 2-4x longer while the host was
            # contended.
            "engine_threads": 1,
            "latency_stats": "auto",
        }
        spec.update(fields)
        return spec

    return [
        large("slotted", loads=[0.2], warmup_slots=100, measure_slots=400,
              engine="sharded", checkpoint_every=100),
        large("skewed", loads=[0.2], warmup_slots=100, measure_slots=400,
              engine="async-sharded",
              timings=[{"profile": "const", "tuning": 512,
                        "propagation": 3072}]),
        large("closed_loop", loads=[0.02], engine="sharded",
              workloads=[{"kind": "bsp", "phases": 64, "shift": 1}]),
    ]


WORKLOADS = ("grid_small", "large")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not (ROOT / "src" / "campaign" / "runner.cpp").is_file():
        raise RuntimeError(f"otisnet sources missing under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", str(THREADS)],
                   check=True, stdout=sys.stderr)


def run_driver(workload, seed, seconds, trace, rss=False):
    """Runs the driver on the workload's parts and returns its result.
    With rss, also runs each part once more in a fresh process, adds
    those passes and sets peak_rss_mib to the largest part's peak."""
    run_dir = ROOT / ".bench_build" / "runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    def driver(args):
        done = subprocess.run([str(DRIVER)] + args + [
            "--out", str(run_dir / "out"), "--threads", str(THREADS)],
            check=True, stdout=subprocess.PIPE, text=True,
            timeout=DRIVER_TIMEOUT_S)
        return json.loads(done.stdout.strip().splitlines()[-1])

    try:
        paths = []
        for k, spec in enumerate(specs_for(workload, seed)):
            paths.append(str(run_dir / f"spec-{k}.json"))
            Path(paths[-1]).write_text(json.dumps(spec))
        result = driver([a for path in paths for a in ("--spec", path)] +
                        ["--seconds", str(seconds)] +
                        (["--trace"] if trace else []))
        if rss:
            peaks = []
            for k, path in enumerate(paths):
                fresh = driver(["--rss", "--spec", path])
                for p in fresh["passes"]:
                    p["part"] = k
                result["passes"] += fresh["passes"]
                peaks.append(fresh["peak_rss_mib"])
            result["peak_rss_mib"] = max(peaks)
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def percentile(values, q):
    """Nearest-rank percentile (the simulator's own convention)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def by_round(passes, kind):
    """The passes of one kind, grouped by round: a list of rounds, each
    the list of that round's passes in part order."""
    rounds = {}
    for p in passes:
        if p["pass"] == kind:
            rounds.setdefault(int(p["round"]), []).append(p)
    return [sorted(parts, key=lambda p: p["part"])
            for _, parts in sorted(rounds.items())]


def median_of(rounds, fn):
    """Median over rounds of fn(the round's passes, one per part)."""
    return statistics.median(fn(parts) for parts in rounds)


def total(parts, key):
    return sum(p[key] for p in parts)


def check_outputs(result, workload, seed):
    """Counts attempted and failed cells over every pass. A cell fails on
    a broken invariant, on a digest that differs from the first pass of
    its part, or, for the default seed, from the recorded reference
    digest."""
    passes = result["passes"]
    first = {}
    for p in passes:
        first.setdefault(int(p["part"]), p["digests"])
    reference = None
    if seed == DEFAULT_SEED and DIGESTS.is_file():
        reference = json.loads(DIGESTS.read_text())["workloads"].get(workload)
    attempted = failed = 0
    messages = []
    for p in passes:
        part = int(p["part"])
        own = first[part]
        ref = None
        if reference is not None:
            ref = reference[part] if part < len(reference) else []
        where = f"{p['pass']} part {part}"
        bad = {int(i) for i in p["failed_cells"]}
        messages += p["failures"]
        for i, digest in enumerate(p["digests"]):
            if i < len(own) and digest != own[i]:
                bad.add(i)
                messages.append(f"{where}: cell {i} digest differs between passes")
            if ref is not None and (i >= len(ref) or digest != ref[i]):
                bad.add(i)
                messages.append(f"{where}: cell {i} digest differs from digests.json")
        if len(p["digests"]) != len(own) or (
                ref is not None and len(ref) != len(p["digests"])):
            bad.add(-1)
            messages.append(f"{where}: cell count differs")
        attempted += len(p["digests"])
        failed += len(bad)
    return attempted, failed, messages


def end_to_end(result):
    direct = by_round(result["passes"], "direct")
    campaign = by_round(result["passes"], "campaign")
    parts = int(result["parts"])
    # Each part's set-up is the median of its repeats over the run; the
    # workload's is their sum.
    setup = sum(statistics.median(s for round_ in direct
                                  for s in round_[k]["setup_s"])
                for k in range(parts))

    def cells(round_):
        return [c for p in round_ for c in p["cell_s"]]

    return {
        "setup_s": (setup, "s"),
        "wall_s": (median_of(campaign, lambda r: total(r, "wall_s")), "s"),
        "run_slots_per_s": (median_of(
            direct, lambda r: total(r, "slots") / sum(cells(r))), "slots/s"),
        "delivered_per_s": (median_of(
            direct, lambda r: total(r, "delivered") / sum(cells(r))), "pkt/s"),
        "cell_p50_s": (median_of(direct, lambda r: percentile(cells(r), 0.5)), "s"),
        "cell_p90_s": (median_of(direct, lambda r: percentile(cells(r), 0.9)), "s"),
        "peak_rss_mib": (result["peak_rss_mib"], "MiB"),
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(result, specs):
    passes = result["passes"]
    plain = by_round(passes, "campaign")
    traced = by_round(passes, "campaign_traced")
    no_ckpt = by_round(passes, "campaign_no_checkpoint")
    direct = by_round(passes, "direct_traced")

    def rt(key):
        return median_of(traced, lambda r: total(r, key))

    def rt_ratio(num, den):
        return median_of(traced, lambda r: ratio(total(r, num), total(r, den)))

    def dt(key):
        return median_of(direct, lambda r: total(r, key))

    def per_slot(key):
        return median_of(direct, lambda r: 1e9 * ratio(
            total(r, key), total(r, "phase_slots")))

    def cell_sum(r):
        return sum(c for p in r for c in p["cell_s"])

    tx, collisions = total(direct[0], "coupler_tx"), total(direct[0], "collisions")
    writes = 0
    for spec, p in zip(specs, direct[0]):
        every = spec.get("checkpoint_every", 0)
        if every > 0:
            # Both slotted engines save at every multiple of the stride
            # below the horizon; one blob per open-loop cell and boundary.
            horizon = spec.get("warmup_slots", 200) + spec.get("measure_slots", 1000)
            writes += (horizon - 1) // every * len(p["digests"])
    cost = 0.0
    if no_ckpt:
        # Paired by part: only the parts with checkpoints have a twin.
        cost = statistics.median(
            sum(with_[int(b["part"])]["wall_s"] - b["wall_s"] for b in without)
            for with_, without in zip(plain, no_ckpt))
    return {
        "campaign.parse_s": (rt("parse_s"), "s"),
        "campaign.straggler_s": (median_of(direct, lambda r: sum(
            p["run_wall_s"] - p["task_s"] / p["workers"] for p in r)), "s"),
        "core.pool_busy_frac": (rt_ratio("busy_ns", "worker_wall_ns"), "frac"),
        "core.pool_steals": (rt("pool_steals"), "count"),
        "topology.build_s": (dt("topology_build_s"), "s"),
        "routing.compile_s": (dt("routing_compile_s"), "s"),
        "routing.table_bytes": (dt("table_bytes"), "bytes"),
        "sim.generate_ns_per_slot": (per_slot("generate_s"), "ns"),
        "sim.arbitrate_ns_per_slot": (per_slot("arbitrate_s"), "ns"),
        "sim.receive_ns_per_slot": (per_slot("receive_s"), "ns"),
        "sim.shard_work_s": (1e-9 * rt("work_ns"), "s"),
        "sim.barrier_wait_frac": (median_of(traced, lambda r: ratio(
            total(r, "wait_ns"), total(r, "wait_ns") + total(r, "work_ns"))), "frac"),
        "sim.shard_imbalance": (rt_ratio("imbalance_sum", "sharded_cells"), "ratio"),
        "sim.windows": (rt("windows"), "count"),
        "sim.lookahead_use_frac": (
            rt_ratio("lookahead_used", "lookahead_available"), "frac"),
        "sim.mailbox_msgs": (rt("mailbox_msgs"), "count"),
        "sim.mailbox_bytes": (rt("mailbox_bytes"), "bytes"),
        "sim.calendar_peak": (median_of(
            traced, lambda r: max(p["calendar_peak"] for p in r)), "count"),
        "sim.construct_s": (dt("construct_s"), "s"),
        "sim.host_ns_per_tx": (median_of(direct, lambda r: 1e9 * ratio(
            cell_sum(r), max(1, total(r, "coupler_tx")))), "ns"),
        "sim.coupler_tx": (tx, "count"),
        "sim.collisions": (collisions, "count"),
        "sim.tx_success_frac": (ratio(tx, tx + collisions), "frac"),
        "checkpoint.writes": (writes, "count"),
        "checkpoint.blob_bytes": (result["blob_bytes"], "bytes"),
        "checkpoint.cost_s": (cost, "s"),
        "workload.poll_s": (dt("poll_s"), "s"),
        "workload.delivered_s": (dt("delivered_s"), "s"),
        "workload.polls": (dt("polls"), "count"),
        "obs.trace_overhead_frac": (
            median_of(traced, lambda r: total(r, "wall_s")) /
            median_of(plain, lambda r: total(r, "wall_s")) - 1.0, "frac"),
    }


def host_facts(result):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "threads": result["threads"],
        "engine_threads": [spec.get("engine_threads", 1) for spec in
                           specs_for(result["workload"], DEFAULT_SEED)],
        "cpu": cpu,
        "compiler": result["compiler"],
        "build_type": "Release",
        "commit": commit,
        "platform": platform.platform(),
        "rounds": result["rounds"],
        "parts": result["parts"],
        "measured_s": result["measured_s"],
    }


def write_digests():
    recorded = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        result = run_driver(workload, DEFAULT_SEED, 1, False)
        digests = [None] * int(result["parts"])
        for p in result["passes"]:
            part = int(p["part"])
            if digests[part] is None:
                digests[part] = p["digests"]
            if p["digests"] != digests[part] or p["failures"]:
                raise RuntimeError(f"{workload}: passes disagree or fail checks")
        recorded["workloads"][workload] = digests
    DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()
    if args.seed < 1:
        parser.error("--seed must be >= 1")
    try:
        build()
        if args.write_digests:
            write_digests()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run_driver(args.workload, args.seed, args.seconds,
                            args.trace, rss=not args.trace)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as err:
        log(f"perfbench: {err}")
        return 1

    attempted, failed, messages = check_outputs(result, args.workload, args.seed)
    for message in messages[:20]:
        log(f"perfbench: FAILED {message}")
    result["workload"] = args.workload
    specs = specs_for(args.workload, args.seed)
    metrics = per_layer(result, specs) if args.trace else end_to_end(result)

    print(f"# host {json.dumps(host_facts(result))}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>18.6g} {unit}")
    print(f"{'failed_frac':28s} {failed / attempted:>18.6g} frac "
          f"({failed} of {attempted} cell runs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
