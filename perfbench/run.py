#!/usr/bin/env python3
"""The repository's benchmark: the default engine, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig7-sweep --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 0          # every workload, both modes

Each run starts fresh interpreters (``child.py``) whose environment has
``REPRO_FAST`` removed, so the default engine runs with cold caches
whatever the calling shell sets.  ``--trace 0`` makes untraced rounds
until ``--seconds`` of timed work are done and reports the end-to-end
metrics; ``--trace 1`` makes one traced round and reports the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``.  A human
report comes first; the last stdout line is the JSON result.  See
``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: scratch space of runs: stores, trace shards, span dumps (git-ignored)
SCRATCH = ROOT / ".perfbench"

WORKLOADS = ("fig7-sweep", "serve-warm")
#: fewest measured rounds per run (more work per run steadies the medians);
#: serve-warm splits its ``--seconds`` of load across its rounds
MIN_ROUNDS = {"fig7-sweep": 3, "serve-warm": 2}
#: every child must end by this many seconds after the run starts
DEADLINE_S = 170.0
#: end-to-end values the report prints beside those BENCHMARK.json names
REPORTED = {"latency_p99_us": "us", "cpu_ms_per_item": "ms", "error_rate": "ratio"}


class BenchError(RuntimeError):
    """A round that could not produce a result."""


def nearest_rank(values, pct: float) -> float:
    """The ``pct``-th percentile by nearest rank (an observed sample)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Runner:
    """Starts child rounds, each in its own process group, and cleans up."""

    def __init__(self, workload: str, seed: int, scale: str):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.started = time.monotonic()
        self.rounds = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def child(self, mode: str, seconds: float = 0.0, workload: str = "") -> dict:
        """One round of ``workload`` (the run's own by default)."""
        workload = workload or self.workload
        self.rounds += 1
        tag = f"{workload}-s{self.seed}-{os.getpid()}-{self.rounds}"
        work = SCRATCH / "work" / tag
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", workload, "--seed", str(self.seed),
            "--scale", self.scale, "--mode", mode,
            "--seconds", repr(seconds), "--work-dir", str(work),
        ]
        if mode == "trace":
            cmd += ["--spans-out", str(SCRATCH / "spans" / f"{tag}.json")]
        env = {k: v for k, v in os.environ.items() if k != "REPRO_FAST"}
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{mode} round of {workload} passed the deadline")
        finally:
            # pool workers share the child's process group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"{mode} round of {workload} exited "
                             f"{proc.returncode}")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} round of {workload} printed nothing")
        return json.loads(lines[-1])


def load_seconds(workload: str, seconds: float) -> float:
    """One round's ``serve-warm`` load; sweep rounds make one whole call."""
    return seconds / MIN_ROUNDS[workload] if workload == "serve-warm" else 0.0


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced rounds until ``seconds`` of timed work; end-to-end metrics."""
    min_rounds = MIN_ROUNDS.get(runner.workload, 1)
    load_s = load_seconds(runner.workload, seconds)
    rounds: list[dict] = []
    while True:
        t0 = time.monotonic()
        rounds.append(runner.child("measure", load_s))
        spent = time.monotonic() - t0
        timed = sum(r["wall_s"] for r in rounds)
        if len(rounds) >= min_rounds and timed >= seconds:
            break
        if len(rounds) >= min_rounds and runner.remaining() < 2.0 * spent:
            break
    # per-round values, reported as medians: a run spans phases of host speed
    setups = [r["setup_s"] for r in rounds]
    rates = [r["items"] / r["wall_s"] for r in rounds]
    cpu_ms = [1e3 * r["cpu_s"] / r["items"] for r in rounds]
    # a round without progress reports has failed its checks; its wall time
    # stands in so that the result still prints
    samples_s = [r["latencies_s"] or [r["wall_s"]] for r in rounds]
    p50s = [statistics.median(x) for x in samples_s]
    p90s = [nearest_rank(x, 90) for x in samples_s]
    p99s = [nearest_rank(x, 99) for x in samples_s]
    items = sum(r["items"] for r in rounds)
    latency_n = " ".join(str(len(x)) for x in samples_s)
    failed = sum(r["failed"] for r in rounds)
    kind = rounds[0]["item_kind"]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": statistics.median(rates),
        "cpu_ms_per_item": statistics.median(cpu_ms),
        "latency_p50_us": 1e6 * statistics.median(p50s),
        "latency_p90_us": 1e6 * statistics.median(p90s),
        "latency_p99_us": 1e6 * statistics.median(p99s),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        "error_rate": failed / items,
    }
    samples = {
        "setup_s": "median of set-ups " + " ".join(f"{x:.3f}" for x in setups),
        "throughput_per_s": "median of rounds " + " ".join(f"{x:.4g}" for x in rates)
                            + f" ({items} {kind}s)",
        "cpu_ms_per_item": "median of rounds " + " ".join(f"{x:.4g}" for x in cpu_ms),
        "latency_p50_us": f"median of rounds of n={latency_n} {kind}s",
        "latency_p90_us": f"median of rounds of n={latency_n} {kind}s",
        "latency_p99_us": f"median of rounds of n={latency_n} {kind}s",
        "peak_rss_mb": f"max of {len(rounds)} rounds, self and children",
        "error_rate": f"{failed}/{items} failed",
    }
    return {
        "rounds": rounds, "metrics": metrics, "samples": samples,
        "attempted": items, "failed": failed,
        "failures": [m for r in rounds for m in r["failures"]],
    }


def trace(runner: Runner, seconds: float) -> dict:
    """One traced round: per-layer metrics and the reconciliation row.

    ``fig7-sweep`` adds the uq layer: a traced round of the
    ``uq-replicates`` study in a fresh interpreter of its own, whose
    items and checks count with the run's.
    """
    doc = runner.child("trace", seconds)
    result = {
        "rounds": [doc], "metrics": doc["layers"], "samples": {},
        "attempted": doc["items"], "failed": doc["failed"],
        "failures": doc["failures"], "notes": [],
    }
    if runner.workload == "fig7-sweep":
        study = runner.child("trace", workload="uq-replicates")
        m = study["layers"]
        for name in ("uq.sample_s", "uq.reduce_s", "uq.run_points_per_s"):
            result["metrics"][name] = m[name]
        result["attempted"] += study["items"]
        result["failed"] += study["failed"]
        result["failures"] += study["failures"]
        result["notes"].append(
            f"uq study: run_uq over {study['items']} replicate points, "
            f"{m['sweep.workers']} workers; reconcile: e2e CPU "
            f"{m['ledger.e2e_cpu_s']:.3f} s = layer CPU {m['ledger.layer_cpu_s']:.3f} s "
            f"+ unaccounted {m['sweep.unaccounted_cpu_s']:.3f} s "
            f"(unaccounted share {m['ledger.unaccounted_share']:.3f})")
    return result


def report(args, units: dict, result: dict, names: list) -> None:
    """The human-readable lines that precede the JSON result."""
    first = result["rounds"][0]
    host = first["host"]
    print(f"perfbench {args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace} engine=default (REPRO_FAST removed)")
    print(f"host: cpus={host['cpus']} usable={host['cpus_usable']} "
          f"model={host['cpu_model']!r} python={host['python']} "
          f"numpy={host['numpy']}")
    metrics = result["metrics"]
    if args.trace:
        print(f"per-layer metrics (traced run, {first['spans']} spans, "
              f"{first['items']} {first['item_kind']}s):")
    else:
        print(f"end-to-end metrics ({len(result['rounds'])} rounds):")
    extra_names = [] if args.trace else [n for n in REPORTED if n not in names]
    for name in names + extra_names:
        unit = units.get(name) or REPORTED[name]
        note = result["samples"].get(name, "")
        print(f"  {name:28s} {metrics[name]:>16.6g} {unit:8s} {note}")
    if not args.trace:
        # the same seed gives every round the same rows
        extra = first.get("extra", {})
        for key, unit in (("model_error_pct", "%"), ("comm_bracket_rate", "ratio")):
            if key in extra:
                print(f"  {key:28s} {extra[key]:>16.6g} {unit:8s} "
                      f"n={extra['model_points']} points")
        if "pinned_cpu" in extra:
            print(f"  client and service threads pinned to CPU "
                  f"{extra['pinned_cpu']} after set-up")
        if "executor" in extra:
            print("  executor by round: " + "; ".join(
                r["extra"]["executor"] for r in result["rounds"]))
    else:
        print("  samples (spans per call): " + ", ".join(
            f"{name}={n}" for name, n in sorted(first["span_counts"].items())))
        print(f"  reconcile: e2e CPU {metrics['ledger.e2e_cpu_s']:.3f} s = "
              f"layer CPU {metrics['ledger.layer_cpu_s']:.3f} s + unaccounted "
              f"{metrics['ledger.e2e_cpu_s'] - metrics['ledger.layer_cpu_s']:.3f} s "
              f"(unaccounted share {metrics['ledger.unaccounted_share']:.3f})")
        for note in result["notes"]:
            print(f"  {note}")
    for message in result["failures"]:
        print(f"  FAILED: {message}")
    print(f"checks: {'ok' if not result['failed'] else 'FAILED'} "
          f"({result['failed']}/{result['attempted']} items failed)")


def run_one(args, spec: dict) -> dict:
    runner = Runner(args.workload, args.seed, args.scale)
    if args.trace:
        result = trace(runner, load_seconds(args.workload, args.seconds))
        names = [m["name"] for m in spec["per_layer"]]
    else:
        result = measure(runner, args.seconds)
        names = [m["name"] for m in spec["end_to_end"]]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    report(args, units, result, names)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            n: {"value": result["metrics"][n], "unit": units[n]} for n in names
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "toy"), default="paper",
                        help="toy: seconds-long runs for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read {SPEC_PATH.name}: {exc}", file=sys.stderr)
        return 2

    try:
        if args.workload != "all":
            print(json.dumps(run_one(args, spec)))
            return 0
        # one command for everything: each workload untraced, then traced
        results = {}
        for workload in WORKLOADS:
            for mode in (0, 1):
                one = argparse.Namespace(**{**vars(args), "workload": workload,
                                            "trace": mode})
                results[f"{workload}/trace={mode}"] = run_one(one, spec)
                print()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "runs": results,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
