"""The simulation kernel: the engine every prediction runs on.

Each module here is a *performance twin* of a straightforward
transcription kept in the test oracle (``tests/oracle``): same inputs,
same outputs bit for bit, less interpreter overhead.  The public entry
points (:mod:`repro.core.standard_sim`, :mod:`repro.core.worstcase_sim`,
:mod:`repro.core.des_check`, :mod:`repro.core.program_sim`,
:mod:`repro.machine.emulator`, :mod:`repro.core.predictor`) run here
unconditionally.  There is one step simulator per algorithm; tracing
decides only whether it records events (its ``record`` event sink),
never which code runs.  Untraced sweep grids advance many points at
once in the batch kernel over those same step simulators.

Bit-identity is not an aspiration but a gate: the differential oracle
(``tests/test_kernel_differential.py``) and the hypothesis property
suites (``tests/test_kernel_property.py``, ``tests/test_vector_property.py``)
compare the kernel with the oracle event-by-event on every application,
layout and engine, and the sweep/UQ digests must equal the checked-in
reference digests.  ``benchmarks/bench_kernel.py`` records the resulting
steady-state throughput into ``BENCH_kernel.json`` for the CI guard.

Submodules
----------
memo
    Fingerprint-keyed memoisation of pure cost functions.
fastsim
    Tight-loop versions of the two Figure 2-style step simulators, one
    function per algorithm.
fastdes
    Flat-heap, sequence-exact version of the causal DES cross-check.
vector
    Structure-of-arrays batch simulator and the GE plan cache.

``fastsim``/``fastdes``/``vector`` import :mod:`repro.core`, so this
``__init__`` loads them lazily — the hot modules can import
``repro.kernel`` at module scope without a cycle.
"""

from __future__ import annotations

from .memo import MemoizedCostModel, clear_caches, memoize, send_durations

__all__ = [
    "MemoizedCostModel",
    "memoize",
    "send_durations",
    "clear_caches",
    "clear_all_caches",
    "simulate_standard_fast",
    "simulate_worstcase_fast",
    "simulate_causal_fast",
    "ge_plan",
    "clear_plan_cache",
    "compile_plan",
    "simulate_programs_batch",
    "evaluate_ge_points_batch",
]

_LAZY = {
    "simulate_standard_fast": "fastsim",
    "simulate_worstcase_fast": "fastsim",
    "simulate_causal_fast": "fastdes",
    "ge_plan": "vector",
    "clear_plan_cache": "vector",
    "compile_plan": "vector",
    "simulate_programs_batch": "vector",
    "evaluate_ge_points_batch": "vector",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def clear_all_caches() -> None:
    """Reset every kernel cache (cost memos, send tables, the GE plan and
    the GE trace it compiles)."""
    clear_caches()
    import sys

    from ..apps.gauss import clear_trace_cache

    clear_trace_cache()
    vector = sys.modules.get(f"{__name__}.vector")
    if vector is not None:
        vector.clear_plan_cache()
