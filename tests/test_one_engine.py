"""Guards for the single runtime engine.

``repro`` runs the kernel unconditionally: there is no environment switch
that picks another engine, the reference engines live only in the test
oracle, and the GE plan cache stays bounded however many configurations
a process evaluates.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from repro.apps import gauss
from repro.core import MEIKO_CS2, CalibratedCostModel
from repro.kernel import clear_all_caches, vector
from repro.sweep import expand_grid, run_sweep

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.mark.parametrize("name", ["repro.kernel.flags", "repro.kernel.tracecache"])
def test_retired_kernel_modules_are_gone(name):
    with pytest.raises(ImportError):
        importlib.import_module(name)


def test_one_step_simulator_per_algorithm():
    """``fastsim`` defines one function per algorithm (``record`` makes the
    events optional) and no table of alternative simulators."""
    fastsim = importlib.import_module("repro.kernel.fastsim")
    defined = [
        name
        for name, value in vars(fastsim).items()
        if getattr(value, "__module__", None) == fastsim.__name__
    ]
    assert defined == ["simulate_standard_fast", "simulate_worstcase_fast"]
    tables = [
        name
        for name, value in vars(fastsim).items()
        if isinstance(value, dict) and not name.startswith("__")
    ]
    assert tables == []


def test_src_has_no_engine_switch_and_no_oracle_import():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        for needle in ("REPRO_FAST", "tests.oracle", "from tests", "import oracle"):
            if needle in text:
                offenders.append(f"{path.relative_to(SRC)}: {needle}")
    assert offenders == []


def test_plan_cache_stays_bounded_over_a_fig7_shaped_sweep():
    """Distinct configurations never accumulate: a worker keeps one plan."""
    clear_all_caches()
    grid = expand_grid(
        120, [10, 12, 15, 20, 24, 30, 40, 60], ["diagonal", "stripped"],
        with_measured=True,
    )
    result = run_sweep(grid, MEIKO_CS2, CalibratedCostModel(), executor="serial")
    assert len(result.summaries) == len(grid)
    last = grid[-1]
    key, plan = vector._plan_slot
    assert key == (last.n, last.b, last.layout, MEIKO_CS2.P)
    assert gauss._last_built[1] is plan.trace  # one trace, shared
    clear_all_caches()
    assert vector._plan_slot is None
    assert gauss._last_built is None
