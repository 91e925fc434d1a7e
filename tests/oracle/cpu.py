"""Reference node CPU: one noise draw per basic op.

This is :meth:`repro.machine.cpu.NodeCPU.run_phase` as it was first
written — a scalar log-normal draw per op, the cacheability factor
recomputed per op — which production replaces with one vector draw per
phase and a per-``(op, b)`` factor table.  :func:`reference_run_phase`
is patched over ``NodeCPU.run_phase`` by :func:`..reference_engine`, so
the differential suites compare the batched node CPU against it.
Test-only: nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.machine.cpu import CompPhaseResult, NodeCPU, touched_blocks
from repro.trace.program import Work

__all__ = ["reference_run_phase"]


def _noise(cpu: NodeCPU) -> float:
    if cpu.noise_sigma == 0.0:
        return 1.0
    return float(np.exp(cpu.rng.normal(0.0, cpu.noise_sigma)))


def reference_run_phase(self: NodeCPU, ops: Sequence[Work]) -> CompPhaseResult:
    """One computation phase, op by op (see the module docstring)."""
    warm = 0.0
    cache_extra = 0.0
    for w in ops:
        warm += self.cost_model.cost(w.op, w.b) * _noise(self)
        if self.cache is not None:
            touched = touched_blocks(w)
            footprint = sum(nbytes for _, nbytes in touched)
            cacheable = max(0.0, 1.0 - footprint / self.cache.capacity_bytes)
            for key, nbytes in touched:
                if not self.cache.touch(key, nbytes) and cacheable > 0.0:
                    cache_extra += (
                        (nbytes / self.line_bytes) * self.miss_penalty_us * cacheable
                    )
    scan = self.scan_us_per_block * self.assigned_blocks if ops else 0.0
    return CompPhaseResult(
        total_us=warm + cache_extra + scan,
        warm_us=warm,
        cache_us=cache_extra,
        scan_us=scan,
    )
