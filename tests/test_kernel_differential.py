"""The differential oracle: production == reference engine, bit for bit.

Production runs the kernel (:mod:`repro.kernel`): re-implemented step
simulators, memoised pure cost functions, the batch evaluator.  The test
oracle (``tests/oracle``) keeps the straightforward transcriptions it is
proven against; the *only* acceptable difference is wall-clock.  These
tests run every application trace (GE, Cannon, stencil, triangular
solve) through every engine (standard, worst-case, causal) on both
implementations, and require:

* identical :class:`PredictionReport` numbers — ``repr``-equal floats,
  not approx-equal;
* identical observability *event streams* (the tracer sees the same
  slices in the same order with the same timestamps — which also pins
  the DES event count and RNG consumption);
* identical emulator measurements (the jittered network draws from a
  shared RNG in send-completion order, so this catches any event
  reordering);
* identical sweep and UQ result digests, under one worker and across
  worker processes.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.apps import (
    CannonConfig,
    GEConfig,
    StencilConfig,
    TriangularConfig,
    build_cannon_trace,
    build_ge_trace,
    build_stencil_trace,
    build_trsv_trace,
    stencil_cost_table,
    trsv_cost_table,
)
from repro.core import MEIKO_CS2, CalibratedCostModel, ProgramSimulator
from repro.core.predictor import summarize_ge_point
from repro.kernel import clear_all_caches
from repro.layouts import DiagonalLayout, RowStrippedCyclicLayout
from repro.machine import JitteredNetwork
from repro.machine.emulator import MachineEmulator
from repro.obs import Tracer, tracing
from repro.sweep import expand_grid, run_sweep
from repro.uq import UQSpec, run_uq

from .oracle import reference_engine

CM = CalibratedCostModel()
MODES = ("standard", "worstcase", "causal")
#: ``(mode, traced)``: a traced run records and compares the event
#: streams; an untraced one takes the step simulators' ``record=False``
#: path and its engaged-time fold.  Traced cases keep the bare mode id.
ENGINE_CASES = [pytest.param(m, True, id=m) for m in MODES] + [
    pytest.param(m, False, id=f"{m}-untraced") for m in MODES
]


def engine(oracle: bool):
    """The oracle's reference engine, or production (the kernel)."""
    return reference_engine() if oracle else nullcontext()


def _trace_cases():
    """Every application trace with its machine parameters and cost model."""
    cases = []
    for layout_cls in (DiagonalLayout, RowStrippedCyclicLayout):
        trace = build_ge_trace(GEConfig(120, 20, layout_cls(6, 8)))
        cases.append((f"ge-{layout_cls.__name__}", trace, MEIKO_CS2, CM))
    cases.append(
        (
            "cannon",
            build_cannon_trace(CannonConfig(n=96, num_procs=16)),
            MEIKO_CS2.with_(P=16),
            CM,
        )
    )
    stencil_cfg = StencilConfig(n=128, num_procs=8, iterations=6)
    cases.append(
        (
            "stencil",
            build_stencil_trace(stencil_cfg),
            MEIKO_CS2,
            stencil_cost_table(128, [stencil_cfg.rows_per_proc]),
        )
    )
    cases.append(
        (
            "triangular",
            build_trsv_trace(TriangularConfig(n=120, b=20, layout=DiagonalLayout(6, 8))),
            MEIKO_CS2,
            trsv_cost_table([20]),
        )
    )
    return cases


TRACE_CASES = _trace_cases()
TRACE_IDS = [c[0] for c in TRACE_CASES]


def _predict(trace, params, cost_model, mode, oracle, traced=True):
    """One prediction run: (report, tracer event stream reprs)."""
    clear_all_caches()
    tracer = Tracer()
    with engine(oracle), tracing(tracer) if traced else nullcontext():
        report = ProgramSimulator(params, cost_model, mode=mode, seed=0).run(trace)
    return report, [repr(e) for e in tracer.events]


@pytest.mark.parametrize("mode,traced", ENGINE_CASES)
@pytest.mark.parametrize(
    "trace,params,cost_model",
    [c[1:] for c in TRACE_CASES],
    ids=TRACE_IDS,
)
def test_prediction_bit_identical(trace, params, cost_model, mode, traced):
    """Every app x engine, traced and untraced: kernel and reference
    predictions are bit-equal."""
    ref, ref_events = _predict(
        trace, params, cost_model, mode, oracle=True, traced=traced
    )
    fast, fast_events = _predict(
        trace, params, cost_model, mode, oracle=False, traced=traced
    )

    assert repr(fast.total_us) == repr(ref.total_us)
    assert repr(fast.per_proc_total_us) == repr(ref.per_proc_total_us)
    assert repr(fast.per_proc_comp_us) == repr(ref.per_proc_comp_us)
    assert repr(fast.per_proc_comm_busy_us) == repr(ref.per_proc_comm_busy_us)
    assert fast_events == ref_events


@pytest.mark.parametrize(
    "trace,params,cost_model",
    [c[1:] for c in TRACE_CASES],
    ids=TRACE_IDS,
)
def test_emulator_bit_identical(trace, params, cost_model):
    """The emulated machine (jittered network, shared RNG) is untouched."""

    def run(oracle):
        clear_all_caches()
        tracer = Tracer()
        with engine(oracle), tracing(tracer):
            report = MachineEmulator(
                params=params, cost_model=cost_model, seed=3
            ).run(trace)
        return report, [repr(e) for e in tracer.events]

    ref, ref_events = run(True)
    fast, fast_events = run(False)
    assert repr(fast.total_us) == repr(ref.total_us)
    assert repr(fast.per_proc_total_us) == repr(ref.per_proc_total_us)
    assert repr(fast.per_proc_comp_us) == repr(ref.per_proc_comp_us)
    assert repr(fast.per_proc_cache_us) == repr(ref.per_proc_cache_us)
    assert repr(fast.per_proc_local_us) == repr(ref.per_proc_local_us)
    assert fast_events == ref_events


@pytest.mark.parametrize(
    "traced,network",
    [(False, "jittered"), (False, "jitter-free"), (True, "jitter-free")],
    ids=["untraced-jittered", "untraced-jitter-free", "traced-jitter-free"],
)
@pytest.mark.parametrize(
    "trace,params,cost_model",
    [c[1:] for c in TRACE_CASES],
    ids=TRACE_IDS,
)
def test_emulator_network_bit_identical(trace, params, cost_model, traced, network):
    """The untraced path sweeps take (no events built), and a jitter-free
    network, whose equal-time events exercise both outcomes of the
    kernel's fused push/pop."""

    def run(oracle):
        clear_all_caches()
        tracer = Tracer()
        net = (
            JitteredNetwork(params, seed=3)
            if network == "jittered"
            else JitteredNetwork(params, jitter_sigma=0.0, straggler_prob=0.0)
        )
        with engine(oracle), tracing(tracer) if traced else nullcontext():
            report = MachineEmulator(
                params=params, cost_model=cost_model, network=net, seed=3
            ).run(trace)
        return (
            repr(report.total_us),
            repr(report.per_proc_total_us),
            repr(report.per_proc_comp_us),
            repr(report.per_proc_cache_us),
            repr(report.per_proc_local_us),
            net._rng.bit_generator.state,
            [repr(e) for e in tracer.events],
        )

    assert run(False) == run(True)


def test_ge_point_summary_bit_identical():
    """The full point pipeline (predictions + emulator) round-trips, and
    tracing it changes no number (one test, both runs, to keep its id)."""
    with reference_engine():
        ref = summarize_ge_point(120, 30, "diagonal", MEIKO_CS2, CM, seed=0)
    for traced in (False, True):
        clear_all_caches()
        with tracing(Tracer()) if traced else nullcontext():
            fast = summarize_ge_point(120, 30, "diagonal", MEIKO_CS2, CM, seed=0)
        assert set(ref) == set(fast)
        for key in ref:
            assert repr(fast[key]) == repr(ref[key]), (key, traced)


class TestSweepDigests:
    GRID = expand_grid([120], [20, 30], ["diagonal", "stripped"], seeds=(0,))

    def _digest(self, oracle, workers):
        with engine(oracle):
            return run_sweep(
                self.GRID, MEIKO_CS2, CM, workers=workers, store=None
            ).digest()

    def test_single_worker(self):
        assert self._digest(False, 1) == self._digest(True, 1)

    def test_two_workers(self):
        """Worker processes run the kernel too; results stay bit-equal."""
        assert self._digest(False, 2) == self._digest(True, 1)


class TestUQDigests:
    SPEC = UQSpec(sigma=0.05, op_sigma=0.03, jitter_sigma=0.1)

    def _run(self, oracle):
        with engine(oracle):
            result = run_uq(
                [120], [30], ["diagonal"], MEIKO_CS2, CM,
                spec=self.SPEC, replicates=3,
            )
        return result.replicate_digest(), result.summary_digest()

    def test_perturbed_ensemble_digests(self):
        """Perturbed replicates (scaled costs, jittered nets) stay bit-equal."""
        assert self._run(False) == self._run(True)

class TestBatchLanes:
    """The vectorized batch kernel against the oracle: every app trace,
    every lane of a multi-machine batch, bit-equal to the reference."""

    MACHINES = [
        MEIKO_CS2,
        MEIKO_CS2.with_(L=4.0, o=2.0),
        MEIKO_CS2.with_(g=25.0, G=0.1),
    ]
    SEEDS = (0, 3, 7)

    @pytest.mark.parametrize(
        "trace,params,cost_model",
        [c[1:] for c in TRACE_CASES],
        ids=TRACE_IDS,
    )
    def test_batch_lanes_bit_identical_to_reference(self, trace, params, cost_model):
        from repro.kernel.vector import GE_MODES, compile_plan, simulate_programs_batch

        plan = compile_plan(trace)
        lanes = [(params.with_(L=m.L, o=m.o, g=m.g, G=m.G), cost_model)
                 for m in self.MACHINES]
        clear_all_caches()
        batch = simulate_programs_batch(plan, lanes, list(self.SEEDS), modes=GE_MODES)

        for (lane_params, _), seed, reports in zip(lanes, self.SEEDS, batch):
            for mode in GE_MODES:
                clear_all_caches()
                with reference_engine():
                    ref = ProgramSimulator(
                        lane_params, cost_model, mode=mode, seed=seed
                    ).run(trace)
                got = reports[mode]
                assert repr(got.total_us) == repr(ref.total_us), (mode, seed)
                assert repr(got.per_proc_total_us) == repr(ref.per_proc_total_us)
                assert repr(got.per_proc_comp_us) == repr(ref.per_proc_comp_us)
                assert repr(got.per_proc_comm_busy_us) == repr(
                    ref.per_proc_comm_busy_us
                )


class TestExecutorDigests:
    """Every executor strategy agrees with the oracle's serial reference."""

    GRID = expand_grid([120], [20, 30], ["diagonal", "stripped"], seeds=(0,))

    def test_all_executors_match_reference(self):
        with reference_engine():
            ref = run_sweep(self.GRID, MEIKO_CS2, CM, workers=1).digest()
        for executor in ("serial", "thread", "process", "auto"):
            clear_all_caches()
            result = run_sweep(
                self.GRID, MEIKO_CS2, CM, executor=executor, workers=2
            )
            assert result.digest() == ref, executor

    def test_uq_executor_matches_reference(self):
        spec = UQSpec(sigma=0.05, op_sigma=0.03, jitter_sigma=0.1)

        def run(oracle, executor):
            clear_all_caches()
            with engine(oracle):
                r = run_uq(
                    [120], [30], ["diagonal"], MEIKO_CS2, CM,
                    spec=spec, replicates=3, executor=executor,
                )
            return r.replicate_digest(), r.summary_digest()

        ref = run(True, None)
        for executor in ("serial", "auto"):
            assert run(False, executor) == ref, executor
