"""The benchmark's workloads: inputs from a seed, the timed call, checks.

Each workload object is built inside a fresh child interpreter
(``child.py``): ``setup()`` does everything that precedes the timed
work, ``run()`` makes the timed public call and returns an
:class:`Outcome`, and ``check()`` returns the correctness failures of
that outcome.  ``rebuild_point`` recomputes one grid point from the
layers' public functions (trace build, the two predictions, the
emulator), which is both the spot check of the untraced runs and the
per-layer walk of the traced run (``ledger.py``).

Only the default engine is measured: the parent process strips
``REPRO_FAST`` from the child's environment, and nothing here imports
the engine switch.
"""

from __future__ import annotations

import math
import os
import platform
import random
import resource
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.apps.gauss import GEConfig, build_ge_trace
from repro.core import MEIKO_CS2, CalibratedCostModel
from repro.core.predictor import RunningTimePredictor
from repro.experiments import ExperimentStore, PointSummary
from repro.layouts import LAYOUTS as LAYOUT_CLASSES
from repro.machine.emulator import MachineEmulator
from repro.machine.perturbed import PerturbedMachine
from repro.obs import (
    TraceContext,
    Tracer,
    merge_shards,
    shard_paths,
    tracing,
    validate_span_tree,
    write_shard,
)
from repro.serve import (
    PredictionClient,
    PredictionService,
    PredictRequest,
    ServeConfig,
    point_digest,
)
from repro.sweep import SweepPoint, SweepResult, expand_grid, run_sweep
from repro.uq import UQSpec, run_uq
from repro.uq.sampler import replicate_seeds

LAYOUTS = ("diagonal", "stripped")
COST_MODEL = CalibratedCostModel()


@dataclass(frozen=True)
class Scale:
    """Problem sizes of one benchmark scale."""

    n: int
    fig7_blocks: tuple
    traced_min_b: int
    uq_blocks: tuple
    uq_replicates: int
    serve_blocks: tuple
    serve_seeds: int


SCALES = {
    # the paper's Fig. 7 grid at n=480
    "paper": Scale(
        n=480,
        fig7_blocks=(10, 12, 15, 20, 24, 30, 40, 48, 60, 80, 96, 120, 160),
        traced_min_b=15,
        uq_blocks=(20, 30, 48),
        uq_replicates=8,
        serve_blocks=(15, 16, 20, 24, 30, 32, 40, 48, 60, 80, 96, 120),
        serve_seeds=4,
    ),
    # seconds-long runs for the benchmark's own tests
    "toy": Scale(
        n=120,
        fig7_blocks=(15, 20, 24, 30, 40, 60),
        traced_min_b=20,
        uq_blocks=(24, 40),
        uq_replicates=3,
        serve_blocks=(20, 24, 30, 40, 60),
        serve_seeds=2,
    ),
}

#: result digests of the paper scale at seed 0 (``uq-replicates`` with its
#: 8 replicates; with 24 the same study reads 849ce782...3ba127)
PINNED_DIGESTS = {
    "fig7-sweep": "2a3f8c37e5c1263a94f30f6f706daf45de0e467ec497c4e644b0645f24b5798f",
    # the b >= 15 sub-grid of fig7-sweep, traced (equal to its untraced digest)
    "fig7-sweep-traced": "994f89d0d7b5b0e2be81fb43fac194e1957a3c31192f31b7f561ffb01773461e",
    "uq-replicates": "07e4d4997272be716c70d32aceabfaeaa7fad328e75d8381c8759f8952a8252a",
}

#: one point per workload and its pinned ``point_digest`` at the paper scale:
#: a known answer each run checks whatever its seed, since the spot checks
#: only compare two paths through the same layers
KNOWN_ANSWERS = {
    "fig7-sweep": (
        SweepPoint(480, 160, "diagonal", 0),
        "a530e014eea39f604de7e64c736bccd8d59520f1d0a4e66ce77483cf228ab693",
    ),
    "uq-replicates": (
        SweepPoint(480, 48, "diagonal", 4873711860765978452),  # replicate 0
        "bebde818f03de99e823b7dacd9a19daf6da2e82640131ed83e661e36be742308",
    ),
    "serve-warm": (
        SweepPoint(480, 120, "diagonal", 0, with_measured=False),
        "84d6335e11c4d551b0e31f42dd4a929cb8df75b620c8fdfc43677e4f7658e9a4",
    ),
}

#: closed-loop client threads of ``serve-warm`` (the core count of a 2-CPU
#: host; after set-up they share one CPU, see :func:`pin_threads_to_one_cpu`)
SERVE_CLIENTS = 2
SERVE_ZIPF_S = 1.1
SERVE_SCHEDULE_LEN = 50_000
#: grid points recomputed from public calls after each untraced sweep
SPOT_CHECKS = 2


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """The larger of this process's and its children's peak RSS, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def host_fingerprint() -> dict:
    """CPU count, CPU model and the Python and numpy versions."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def pin_threads_to_one_cpu() -> int:
    """Pin every thread of this process, and the threads they start, to one CPU.

    The service and its client threads take turns on the GIL, so they run
    no faster on two CPUs.  Spread over two vCPUs, each hand-off wakes a
    thread on the other vCPU, and the closed loop's p99 fell into one of
    two modes per process (8-10 ms or 15-23 ms); pinned, the modes are
    gone.  Returns the CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:  # a thread that has just ended
            pass
    return cpu


@dataclass
class Outcome:
    """What one timed call did."""

    items: int
    wall_s: float
    cpu_s: float
    #: client-side times from call to reply (requests) or from the
    #: call's start to each point's completion (sweeps)
    latencies_s: list
    #: values the report prints beside the metrics (model error, executor)
    extra: dict = field(default_factory=dict)


@dataclass
class Failures:
    """Correctness failures: messages plus the number of items affected."""

    messages: list = field(default_factory=list)
    items: set = field(default_factory=set)
    whole_run: bool = False

    def item(self, index, message: str) -> None:
        self.items.add(index)
        self.messages.append(message)

    def run(self, message: str) -> None:
        """A failure no single item owns (a digest): every item counts."""
        self.whole_run = True
        self.messages.append(message)

    def merge(self, other: "Failures") -> None:
        self.messages += other.messages
        self.items |= other.items
        self.whole_run |= other.whole_run

    def count(self, attempted: int) -> int:
        return attempted if self.whole_run else len(self.items)


# -- rebuilding points from the layers' public calls -------------------------
def no_span(name: str, **attrs):
    """The span of untimed runs: does nothing, yields a throwaway dict."""
    return nullcontext({})


def rebuild_point(
    point: SweepPoint,
    params,
    cost_model,
    uq: Optional[UQSpec] = None,
    span: Callable = no_span,
) -> PointSummary:
    """One grid point from direct public calls, the way the default path runs it.

    ``span(name, **attrs)`` is a context manager wrapped around each call
    (the traced run passes the ledger's; it yields a dict for counts).
    """
    if uq is not None:
        with span("uq.sample"):
            params, cost_model = PerturbedMachine(params, cost_model, uq).sample(
                point.seed
            )
    with span("apps.build_ge_trace") as counts:
        layout = LAYOUT_CLASSES[point.layout](point.n // point.b, params.P)
        trace = build_ge_trace(GEConfig(n=point.n, b=point.b, layout=layout))
    counts["messages"] = trace.total_messages()
    counts["comm_steps"] = sum(1 for step in trace if step.pattern is not None)
    predictor = RunningTimePredictor(params, cost_model, seed=point.seed)
    with span("core.standard"):
        standard = predictor.predict(trace, "standard")
    with span("core.worstcase"):
        worst = predictor.predict(trace, "worstcase")
    measured = None
    if point.with_measured:
        # the default network: the benchmark's UQ spec overrides none of it
        with span("machine.emulate") as emulated:
            measured = MachineEmulator(
                params=params, cost_model=cost_model, seed=point.seed,
            ).run(trace)
        emulated["messages"] = counts["messages"]
    return PointSummary(
        n=point.n,
        b=point.b,
        layout=point.layout,
        seed=point.seed,
        pred_standard_total=standard.total_us,
        pred_standard_comp=standard.comp_us,
        pred_standard_comm=standard.comm_us,
        pred_worstcase_total=worst.total_us,
        pred_worstcase_comm=worst.comm_us,
        measured_total=measured.total_us if measured else None,
        measured_total_wo_cache=(
            measured.total_without_cache_us if measured else None
        ),
        measured_comp=measured.comp_us if measured else None,
        measured_comm=measured.comm_us if measured else None,
    )


def rows_digest(points, summaries) -> str:
    """The :meth:`SweepResult.digest` of ``summaries`` (stats play no part)."""
    return SweepResult(points=tuple(points), summaries=list(summaries), stats=None).digest()


def model_quality(summaries) -> dict:
    """The paper's accuracy figures over rows that carry a measurement.

    ``model_error_pct``: median |standard - measured| / measured total.
    ``comm_bracket_rate``: share of points whose measured communication
    lies between the standard and the worst-case prediction.
    """
    measured = [s for s in summaries if s.measured_total is not None]
    if not measured:
        return {}
    errors = [
        abs(s.pred_standard_total - s.measured_total) / s.measured_total
        for s in measured
    ]
    bracketed = sum(
        1 for s in measured
        if s.pred_standard_comm <= s.measured_comm <= s.pred_worstcase_comm
    )
    return {
        "model_error_pct": 100.0 * statistics.median(errors),
        "comm_bracket_rate": bracketed / len(measured),
        "model_points": len(measured),
    }


def executor_label(stats) -> str:
    """How the sweep ran its points: strategy, workers and chunks."""
    return f"{stats.executor} x{stats.workers}, {stats.chunks} chunks"


def check_rows(points, summaries, failures: Failures) -> None:
    """Rows in grid order, with finite positive times where expected."""
    if len(summaries) != len(points):
        failures.run(f"{len(summaries)} rows for {len(points)} points")
        return
    for i, (point, s) in enumerate(zip(points, summaries)):
        if (s.n, s.b, s.layout, s.seed) != (point.n, point.b, point.layout, point.seed):
            failures.item(i, f"row {i} is {s.n}/{s.b}/{s.layout}/{s.seed}, "
                             f"expected {point.describe()}")
            continue
        values = [
            s.pred_standard_total, s.pred_standard_comp, s.pred_standard_comm,
            s.pred_worstcase_total, s.pred_worstcase_comm,
        ]
        measured = [s.measured_total, s.measured_total_wo_cache,
                    s.measured_comp, s.measured_comm]
        if point.with_measured:
            values += measured
        elif any(v is not None for v in measured):
            failures.item(i, f"{point.describe()}: measured values on a "
                             "prediction-only point")
        if any(v is None or not math.isfinite(v) or v < 0 for v in values):
            failures.item(i, f"{point.describe()}: missing or invalid time")
        elif s.pred_standard_total > s.pred_worstcase_total:
            failures.item(i, f"{point.describe()}: standard prediction above "
                             "the worst case")
        elif point.with_measured and s.measured_total_wo_cache > s.measured_total:
            failures.item(i, f"{point.describe()}: measured time without the "
                             "caching section above the total")


def check_digest(name: str, scale: str, seed: int, digest: str,
                 failures: Failures) -> None:
    """The pinned digest of the paper scale at seed 0."""
    expected = PINNED_DIGESTS.get(name) if (scale == "paper" and seed == 0) else None
    if expected is not None and digest != expected:
        failures.run(f"{name} digest {digest} != pinned {expected}")


def check_known_answer(name: str, scale: str, digest_of: Callable,
                       failures: Failures) -> None:
    """``digest_of(point)`` must give the pinned digest of the known answer."""
    if scale != "paper":
        return
    point, expected = KNOWN_ANSWERS[name]
    got = digest_of(point)
    if got != expected:
        failures.run(f"known answer {point.describe()}: {got} != {expected}")


def spot_check(points, summaries, params, cost_model, seed: int,
               failures: Failures, uq: Optional[UQSpec] = None) -> None:
    """Recompute a few cheap points from public calls; rows must be equal.

    The points are drawn by the workload seed among the cheaper half of
    the grid (largest block sizes), so the check stays short.
    """
    order = sorted(range(len(points)), key=lambda i: -points[i].b)
    cheap = order[: max(1, len(order) // 2)]
    rng = random.Random(seed)
    for i in sorted(rng.sample(cheap, min(SPOT_CHECKS, len(cheap)))):
        direct = rebuild_point(points[i], params, cost_model, uq=uq)
        if direct != summaries[i]:
            failures.item(i, f"{points[i].describe()}: row differs from the "
                             "direct public-call rebuild")


def traced_sweep(points, seed: int, work_dir: Path, span: Callable = no_span):
    """``run_sweep`` under a tracer with worker shards, then merge and validate.

    The ``obs`` layer's part of the traced run of ``fig7-sweep``; returns
    the sweep result and the trace's counts and times.
    """
    shard_dir = work_dir / "shards"
    tracer = Tracer()
    tracer.context = TraceContext.root("perfbench", "fig7-sweep", seed)
    c0, t0 = cpu_seconds(), time.perf_counter()
    with tracing(tracer):
        result = run_sweep(
            points, MEIKO_CS2, COST_MODEL,
            executor="auto", workers=None, store=str(work_dir / "traced-store"),
            trace_shard_dir=str(shard_dir),
        )
    c1, t1 = cpu_seconds(), time.perf_counter()
    with span("obs.merge"):
        write_shard(shard_dir / "shard-main.jsonl", tracer, label="main")
        paths = shard_paths(shard_dir)
        merged = merge_shards(paths)
        report = validate_span_tree(merged.events)
    obs = {
        "events": len(merged.events),
        "orphans": len(report.orphans),
        "shard_bytes": sum(p.stat().st_size for p in paths),
        "sweep_cpu_s": c1 - c0,
        "sweep_wall_s": t1 - t0,
        "merge_s": time.perf_counter() - t1,
    }
    return result, obs


# -- workloads ---------------------------------------------------------------
class Workload:
    """One benchmark workload; subclasses define the timed call."""

    name = ""
    #: what one item of ``Outcome.items`` is
    item_kind = "point"

    def __init__(self, scale: str, seed: int, work_dir: Path):
        self.scale_name = scale
        self.scale = SCALES[scale]
        self.seed = seed
        self.work_dir = Path(work_dir)

    def setup(self) -> None:
        """Everything before the timed work."""

    def run(self, seconds: float) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> Failures:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``setup`` opened."""


class Fig7Sweep(Workload):
    """The paper's Fig. 7 job through ``run_sweep`` on a fresh store."""

    name = "fig7-sweep"
    #: the perturbation of ``uq-replicates`` (none here)
    uq: Optional[UQSpec] = None

    def setup(self) -> None:
        self.points = expand_grid(
            self.scale.n, self.scale.fig7_blocks, LAYOUTS,
            seeds=[self.seed], with_measured=True,
        )
        self.store_dir = self.work_dir / "store"

    def call(self, progress):
        return run_sweep(
            self.points, MEIKO_CS2, COST_MODEL,
            executor="auto", workers=None, store=str(self.store_dir),
            progress=progress,
        )

    def sweep(self) -> SweepResult:
        """The replicate-level sweep of the last call."""
        return self.result

    def run(self, seconds: float) -> Outcome:
        """The timed call; a point's latency is the time until it completes."""
        self.completed = []

        def progress(done, total, point, status):
            self.completed.append((point, time.perf_counter() - t0))

        c0, t0 = cpu_seconds(), time.perf_counter()
        self.result = self.call(progress)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        return Outcome(
            items=len(self.points), wall_s=wall, cpu_s=cpu,
            latencies_s=[t for _, t in self.completed],
            extra={**model_quality(self.sweep().summaries),
                   "executor": executor_label(self.sweep().stats)},
        )

    def check(self, outcome: Outcome) -> Failures:
        failures = Failures()
        sweep = self.sweep()
        if tuple(sweep.points) != tuple(self.points):
            failures.run(f"{self.name} ran a different grid")
            return failures
        if sorted(p.describe() for p, _ in self.completed) != sorted(
                p.describe() for p in self.points):
            failures.run(f"{self.name}: {len(self.completed)} progress reports "
                         f"for {len(self.points)} points")
        check_rows(self.points, sweep.summaries, failures)
        check_digest(self.name, self.scale_name, self.seed, sweep.digest(),
                     failures)
        spot_check(self.points, sweep.summaries, MEIKO_CS2, COST_MODEL,
                   self.seed, failures, uq=self.uq)
        check_known_answer(
            self.name, self.scale_name,
            lambda p: point_digest(dict(
                rebuild_point(p, MEIKO_CS2, COST_MODEL, uq=self.uq).__dict__)),
            failures,
        )
        return failures


class UQReplicates(Fig7Sweep):
    """Few configurations, many perturbed machines, through ``run_uq``."""

    name = "uq-replicates"
    uq = UQSpec(sigma=0.1, op_sigma=0.05)

    def setup(self) -> None:
        self.points = expand_grid(
            self.scale.n, self.scale.uq_blocks, LAYOUTS,
            seeds=replicate_seeds(self.seed, self.scale.uq_replicates),
            with_measured=True,
        )
        self.store_dir = self.work_dir / "store"

    def call(self, progress):
        return run_uq(
            self.scale.n, self.scale.uq_blocks, LAYOUTS, MEIKO_CS2, COST_MODEL,
            spec=self.uq,
            replicates=self.scale.uq_replicates,
            base_seed=self.seed,
            with_measured=True,
            executor="auto",
            workers=None,
            store=str(self.store_dir),
            progress=progress,
        )

    def sweep(self) -> SweepResult:
        return self.result.sweep


class ServeWarm(Workload):
    """A closed loop of client threads against a service on a warm store."""

    name = "serve-warm"
    item_kind = "request"

    def setup(self) -> None:
        scale = self.scale
        self.universe = [
            {"n": scale.n, "b": b, "layout": layout, "seed": s}
            for b in scale.serve_blocks
            for layout in LAYOUTS
            for s in range(scale.serve_seeds)
        ]
        # the service resolves the machine under its own label, which the
        # store fingerprint includes: prefill under exactly that machine
        self.params = PredictRequest.from_doc(self.universe[0]).params
        self.store_dir = self.work_dir / "store"
        run_sweep(
            expand_grid(
                scale.n, scale.serve_blocks, LAYOUTS,
                seeds=range(scale.serve_seeds), with_measured=False,
            ),
            self.params, COST_MODEL,
            executor="auto", workers=None, store=str(self.store_dir),
        )
        self.service = PredictionService(ServeConfig(
            store_dir=str(self.store_dir),
            cache_size=len(self.universe) // 2,
            batch_window_s=0.005,
            executor="auto",
        ))
        self.client = PredictionClient.in_process(self.service)
        self.schedule = self.zipf_schedule()
        self.pinned_cpu = pin_threads_to_one_cpu()

    def zipf_schedule(self) -> list:
        """Request documents drawn with weight 1/rank^s over a seeded ranking."""
        rng = random.Random(self.seed)
        ranked = list(self.universe)
        rng.shuffle(ranked)
        weights = [1.0 / (rank + 1) ** SERVE_ZIPF_S for rank in range(len(ranked))]
        return rng.choices(ranked, weights=weights, k=SERVE_SCHEDULE_LEN)

    def drive(self, seconds: float, span: Callable = no_span) -> list:
        """Closed loop: each client sends its next request after the reply.

        Returns ``(key, digest or None, tier or error, latency_s)`` per
        request.
        """
        deadline = time.perf_counter() + seconds
        replies: list = [[] for _ in range(SERVE_CLIENTS)]

        def client_loop(tid: int) -> None:
            docs = self.schedule[tid::SERVE_CLIENTS]
            out = replies[tid]
            i = 0
            while True:
                doc = docs[i % len(docs)]
                i += 1
                key = (doc["n"], doc["b"], doc["layout"], doc["seed"])
                t0 = time.perf_counter()
                with span("serve.predict_doc") as attrs:
                    answer = self.client.predict_doc(dict(doc), check=False)
                    ok = answer.ok
                    attrs["tier"] = answer.cache_tier if ok else "error"
                t1 = time.perf_counter()
                out.append((
                    key, answer.digest if ok else None,
                    answer.cache_tier if ok else answer.doc.get("error"),
                    t1 - t0,
                ))
                if t1 >= deadline:
                    return

        threads = [
            threading.Thread(target=client_loop, args=(tid,))
            for tid in range(SERVE_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return [r for per_client in replies for r in per_client]

    def run(self, seconds: float, span: Callable = no_span) -> Outcome:
        """The closed loop; ``span`` wraps each call in the traced run."""
        c0, t0 = cpu_seconds(), time.perf_counter()
        self.replies = self.drive(seconds, span)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        return Outcome(
            items=len(self.replies), wall_s=wall, cpu_s=cpu,
            latencies_s=[r[3] for r in self.replies],
            extra={"pinned_cpu": self.pinned_cpu},
        )

    def entry_digests(self) -> dict:
        """``point_digest`` of each universe point's store entry."""
        store = ExperimentStore(self.store_dir, self.params, COST_MODEL)
        digests = {}
        for doc in self.universe:
            entry = store.get(doc["n"], doc["b"], doc["layout"],
                              seed=doc["seed"], with_measured=False)
            key = (doc["n"], doc["b"], doc["layout"], doc["seed"])
            digests[key] = point_digest(dict(entry.__dict__)) if entry else None
        return digests

    def check(self, outcome: Outcome) -> Failures:
        failures = Failures()
        expected = self.entry_digests()
        for i, (key, digest, tier, _) in enumerate(self.replies):
            if digest is None:
                failures.item(i, f"request {key} failed: {tier}")
            elif digest != expected.get(key):
                failures.item(i, f"request {key}: reply digest {digest} != "
                                 f"store entry {expected.get(key)}")
        check_known_answer(
            self.name, self.scale_name,
            lambda p: self.client.predict(p.n, p.b, p.layout, seed=p.seed).digest,
            failures,
        )
        computed = self.service.stats()["tiers"]["computed"]
        if computed:
            failures.run(f"serve.tier_computed={computed}: the warm store missed")
        return failures

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.close()


#: the benchmark's workloads
WORKLOADS = {cls.name: cls for cls in (Fig7Sweep, ServeWarm)}
#: what a child round can run: the workloads, and the uq study that the
#: traced run of ``fig7-sweep`` adds (perfbench/README.md, "Steadiness",
#: says why it is not a workload)
STUDIES = {**WORKLOADS, UQReplicates.name: UQReplicates}
