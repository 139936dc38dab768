#!/usr/bin/env python3
"""The FIGRET serving benchmark: one command, four TE-controller workloads.

    python3 tebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 tebench/run.py --workload all --seed N --seconds S

Run from the repository root.  Builds the `tebench` worker from source
(release profile, into $CARGO_TARGET_DIR, default `.bench_build`), runs the
workload in a child process pinned to RAYON_NUM_THREADS=2 under a wall-clock
deadline, and prints every metric by name and unit.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`).  `--workload all` runs every workload disarmed and traced
and prints all of it.  `tordb-lp` runs here but is not gated in
BENCHMARK.json (see README.md).

A panic or a hang in the child does not crash the benchmark: the ticks the
child never finished are counted as failed (`tick_ok_ratio` drops below 1
and `correct` is false).  Peak RSS and CPU/context-switch counts come from
`wait4` on that child, so they cover only this workload's process.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["geant-replay", "tordb-lp", "podfab16-fleet", "poddb-drift"]
# Rayon threads per workload: 2, the vCPU count the benchmark was set up
# on.  podfab16-fleet runs on 1: at 2, the vendored rayon spawns fresh OS
# threads on every parallel call, and on a 2-vCPU VM their wake-up latency
# made the fleet's wall-clock figures swing 2-3x between identical runs
# (915-2651 ticks/s against 5177-5263 at 1 thread).
RAYON_THREADS = {"geant-replay": 2, "tordb-lp": 2, "podfab16-fleet": 1, "poddb-drift": 2}
# A run that outlives this is a hang: the child is killed and its
# unfinished ticks count as failed.
DEADLINE_S = 150.0
HELD_OUT_SEED = 9001
KNOWN_EXCLUSIONS = [
    "tor512 monolithic LP: tick 3 does not finish in 10 minutes (degenerate phase-2 "
    "stall); joins the benchmark once the LP gets a pivot budget",
    "podfab16 at the non-fast fan-out of 16 panics at crates/traffic/src/sparse.rs:164 "
    "(assert in ActivePairs::sample_among) instead of reporting a usage error; "
    "podfab16-fleet uses fan-out 8",
    "the GEANT online stream makes the learned controller fall back to the LP at tick 8; "
    "geant-replay serves the held-out trace instead",
]


def log(message):
    print(message, file=sys.stderr, flush=True)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Builds the worker; returns its path, or None when the build fails."""
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"error: cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log("error: building the benchmark worker failed")
        return None
    return os.path.join(target_dir(), "release", "tebench")


def git_revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_child(worker, workload, seed, seconds, trace, size):
    """Runs one workload in a child process under the deadline.

    Returns (result or None, lines, rusage, exit description)."""
    cmd = [worker, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--size", size]
    env = dict(os.environ, RAYON_NUM_THREADS=str(RAYON_THREADS[workload]))
    child = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = []
    reader = threading.Thread(target=lambda: lines.extend(child.stdout), daemon=True)
    reader.start()
    deadline = time.monotonic() + DEADLINE_S
    status, usage, hung = None, None, False
    while status is None:
        pid, st, ru = os.wait4(child.pid, os.WNOHANG)
        if pid == child.pid:
            status, usage = st, ru
        elif time.monotonic() > deadline:
            hung = True
            child.send_signal(signal.SIGKILL)
            _, status, usage = os.wait4(child.pid, 0)
        else:
            time.sleep(0.02)
    child.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    child.stdout.close()
    result = None
    if lines and lines[-1].startswith("{"):
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if hung:
        exit_note = f"killed after the {DEADLINE_S:.0f} s deadline"
    elif child.returncode != 0:
        exit_note = f"exited with code {child.returncode}"
    else:
        exit_note = "ok"
    return result, lines, usage, exit_note


def tick_accounting(lines):
    """Ticks attempted and served, from the child's progress lines."""
    attempted = served = 0
    for line in lines:
        parts = line.strip().split(",")
        if parts[:2] == ["episode", "start"]:
            attempted += int(parts[2])
        elif parts[:2] == ["episode", "end"]:
            served += int(parts[2])
    return attempted, served


def measure(worker, workload, seed, seconds, trace, size):
    """Runs one workload in a child, echoes its report lines and returns the
    contract's result object."""
    result, lines, usage, exit_note = run_child(worker, workload, seed, seconds, trace, size)
    for line in lines[:-1] if result else lines:
        if not line.startswith(("episode,", "metric,")):
            print(line, end="")
    attempted, served = tick_accounting(lines)
    if attempted == 0:
        # The child died before its first episode started: its first
        # episode is the attempt that failed.
        attempted = 1
    ok = result is not None and exit_note == "ok"
    correct = ok and bool(result["correct"])
    metrics = dict(result["metrics"]) if ok else {}
    if trace:
        metrics["proc.user_cpu_s"] = {"value": usage.ru_utime, "unit": "s"}
        metrics["proc.sys_cpu_s"] = {"value": usage.ru_stime, "unit": "s"}
        metrics["proc.ctx_switches"] = {
            "value": usage.ru_nvcsw + usage.ru_nivcsw, "unit": "count"}
    else:
        metrics["tick_ok_ratio"] = {"value": served / attempted, "unit": "ratio"}
        metrics["peak_rss_mib"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MiB"}
    if result is not None:
        # decision_log_digest/decision_digest of each instance, in order.
        print(f"digests,{workload},{result['digests']}")
    print(f"run,{workload},trace={int(trace)},rayon_threads={RAYON_THREADS[workload]},"
          f"child={exit_note},episodes="
          f"{result['episodes'] if result else 0},ticks_attempted={attempted},"
          f"ticks_served={served}")
    if not ok:
        log(f"error: {workload}: worker {exit_note}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - served,
        "metrics": metrics,
    }


def print_provenance(args):
    print(f"provenance,nproc={nproc()},"
          f"git_revision={git_revision()},build_profile=release,seed={args.seed},"
          f"held_out_seed={HELD_OUT_SEED},seconds={args.seconds},size={args.size}")
    for exclusion in KNOWN_EXCLUSIONS:
        print(f"known_exclusion,{exclusion}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: the smoke size of the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be ≥ 0 and --seconds positive")

    worker = build()
    if worker is None:
        sys.exit(1)
    print_provenance(args)
    if args.workload != "all":
        out = measure(worker, args.workload, args.seed, args.seconds, bool(args.trace), args.size)
        for name, m in out["metrics"].items():
            print(f"{name} = {m['value']} {m['unit']}")
        print(json.dumps(out))
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            out = measure(worker, workload, args.seed, args.seconds, trace, args.size)
            combined["correct"] &= out["correct"]
            combined["attempted"] += out["attempted"]
            combined["failed"] += out["failed"]
            for name, m in out["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = m
                print(f"{workload}: {name} = {m['value']} {m['unit']}")
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
