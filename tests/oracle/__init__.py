"""The test oracle: the reference engines the kernel is proven against.

``repro`` runs one engine, the kernel (:mod:`repro.kernel`).  This
package keeps the straightforward transcriptions it replaced — the
paper's step algorithms (:mod:`.stepsim`), the coroutine-per-processor
causal DES (:mod:`.causal`) and the op-by-op node CPU (:mod:`.cpu`) —
so the differential suites can compare production against an
independent implementation, bit for bit.

:func:`reference_engine` runs the production pipeline with the oracle in
place of the kernel: the program simulator and the emulator price
communication with the oracle's step simulators and never memoise cost
models, the emulator's nodes draw their noise one op at a time, and a
GE point builds a fresh trace and runs both predictions and the
emulator one by one.  Sweeps and UQ runs evaluated in-process
(``workers=1`` without an executor) therefore produce the reference
digests.  Nothing under ``src/`` imports this package.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Iterator, Optional
from unittest import mock

from repro.apps.gauss import GEConfig, build_ge_trace
from repro.core import predictor, program_sim
from repro.kernel import vector
from repro.layouts import LAYOUTS
from repro.machine import emulator as emulator_mod
from repro.machine.cpu import NodeCPU

from .causal import simulate_causal
from .cpu import reference_run_phase
from .stepsim import simulate_standard, simulate_worstcase

__all__ = [
    "simulate_standard",
    "simulate_worstcase",
    "simulate_causal",
    "reference_run_phase",
    "reference_engine",
    "reference_ge_row",
]

SIMULATORS = {
    "standard": simulate_standard,
    "worstcase": simulate_worstcase,
    "causal": simulate_causal,
}


def _unmemoized(cost_model):
    return cost_model


def _no_batch_kernel(*args, **kwargs):
    raise AssertionError(
        "the batch kernel ran under reference_engine(); evaluate the "
        "reference in-process (workers=1, no executor)"
    )


def reference_ge_row(
    n: int,
    b: int,
    layout_name: str,
    params,
    cost_model,
    with_measured: bool = True,
    seed: int = 0,
    emulator: Optional[emulator_mod.MachineEmulator] = None,
) -> predictor.GERow:
    """:func:`repro.core.predictor.run_ge_point`, one engine at a time.

    Call it under :func:`reference_engine` for the oracle's numbers.
    """
    if layout_name not in LAYOUTS:
        raise ValueError(f"unknown layout {layout_name!r}; known: {sorted(LAYOUTS)}")
    layout = LAYOUTS[layout_name](n // b, params.P)
    trace = build_ge_trace(GEConfig(n=n, b=b, layout=layout))
    pred_std, pred_wc = predictor.RunningTimePredictor(
        params, cost_model, seed=seed
    ).predict_both(trace)
    measured = None
    if with_measured:
        measured = predictor._measured_report(
            trace, params, cost_model, seed, emulator=emulator
        )
    return predictor.GERow(
        n=n,
        b=b,
        layout=layout_name,
        pred_standard=pred_std,
        pred_worstcase=pred_wc,
        measured=measured,
    )


@contextmanager
def reference_engine() -> Iterator[None]:
    """Run the production pipeline on the oracle's engines (in-process)."""
    with ExitStack() as stack:
        stack.enter_context(mock.patch.dict(program_sim.SIMULATORS, SIMULATORS))
        stack.enter_context(mock.patch.object(program_sim, "memoize", _unmemoized))
        stack.enter_context(
            mock.patch.object(emulator_mod, "simulate_causal", simulate_causal)
        )
        stack.enter_context(mock.patch.object(emulator_mod, "memoize", _unmemoized))
        stack.enter_context(
            mock.patch.object(NodeCPU, "run_phase", reference_run_phase)
        )
        stack.enter_context(
            mock.patch.object(predictor, "run_ge_point", reference_ge_row)
        )
        stack.enter_context(
            mock.patch.object(vector, "evaluate_ge_points_batch", _no_batch_kernel)
        )
        yield
