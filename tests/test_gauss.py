"""Tests for the blocked wavefront Gaussian Elimination (repro.apps.gauss)."""

import numpy as np
import pytest

from repro.apps import (
    PAPER_BLOCK_SIZES,
    PAPER_MATRIX_N,
    GEConfig,
    build_ge_trace,
    execute_blocked_ge,
    random_spd_like_matrix,
    verify_lu,
)
from repro.layouts import DiagonalLayout, RowStrippedCyclicLayout


def config(n=96, b=12, P=4, layout_cls=DiagonalLayout):
    return GEConfig(n=n, b=b, layout=layout_cls(n // b, P))


class TestConfig:
    def test_indivisible_block_rejected(self):
        with pytest.raises(ValueError):
            GEConfig(n=100, b=7, layout=DiagonalLayout(14, 4))

    def test_layout_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GEConfig(n=96, b=12, layout=DiagonalLayout(4, 4))

    def test_paper_constants_consistent(self):
        assert PAPER_MATRIX_N == 960
        assert len(PAPER_BLOCK_SIZES) == 14
        for b in PAPER_BLOCK_SIZES:
            assert PAPER_MATRIX_N % b == 0


class TestTraceStructure:
    def test_step_count(self):
        cfg = config(n=96, b=12)  # nb = 8
        trace = build_ge_trace(cfg)
        assert len(trace) == 3 * (8 - 1) + 1

    def test_total_op_count(self):
        cfg = config(n=60, b=12, P=4)  # nb = 5
        trace = build_ge_trace(cfg)
        nb = 5
        assert trace.total_ops() == sum((nb - k) ** 2 for k in range(nb))

    def test_op_histogram(self):
        cfg = config(n=60, b=12, P=4)  # nb = 5
        trace = build_ge_trace(cfg)
        hist = trace.op_histogram()
        nb = 5
        assert hist["op1"] == nb
        assert hist["op2"] == sum(nb - 1 - k for k in range(nb))
        assert hist["op3"] == hist["op2"]
        assert hist["op4"] == sum((nb - 1 - k) ** 2 for k in range(nb))

    def test_wavefront_schedule_position(self):
        """Block (i, j) of iteration k computes at step 3k + (i-k)+(j-k)."""
        cfg = config(n=48, b=12, P=4)  # nb = 4
        trace = build_ge_trace(cfg)
        placed = {}
        for t, step in enumerate(trace.steps):
            for proc, ops in step.work.items():
                for w in ops:
                    placed[(w.block, w.iteration)] = t
        nb = 4
        for k in range(nb):
            for i in range(k, nb):
                for j in range(k, nb):
                    assert placed[((i, j), k)] == 3 * k + (i - k) + (j - k)

    def test_work_assigned_to_owner(self):
        cfg = config(n=48, b=12, P=4)
        trace = build_ge_trace(cfg)
        for step in trace.steps:
            for proc, ops in step.work.items():
                for w in ops:
                    assert cfg.layout.owner(*w.block) == proc

    def test_systolic_messages_target_neighbors(self):
        cfg = config(n=48, b=12, P=4)
        trace = build_ge_trace(cfg)
        # every message size is either a block or a triangular factor
        block_bytes = 12 * 12 * 8
        factor_bytes = 12 * 13 // 2 * 8
        for step in trace.steps:
            for m in step.pattern.messages:
                assert m.size in (block_bytes, factor_bytes)

    def test_dependencies_satisfied(self):
        """Data for a step-t+1 op is emitted in step t: every active block
        (other than wave starts) has an incoming transfer the step before."""
        cfg = config(n=48, b=12, P=4)
        trace = build_ge_trace(cfg)
        nb = 4
        # Count messages per step and check the final step has no sends
        # (the last Op1 emits nothing).
        last = trace.steps[-1]
        assert len(last.pattern) == 0
        assert last.total_ops() == 1  # the final Op1 on (nb-1, nb-1)

    def test_meta_recorded(self):
        cfg = config()
        trace = build_ge_trace(cfg)
        assert trace.meta["app"] == "gauss"
        assert trace.meta["n"] == 96
        assert trace.meta["layout"] == "diagonal"

    def test_validates(self):
        trace = build_ge_trace(config())
        trace.validate()

    def test_rebuild_is_equal_and_independent(self):
        def shape(trace):
            return [
                (s.label, {p: list(ops) for p, ops in s.work.items()}, s.pattern.messages)
                for s in trace.steps
            ]

        first = build_ge_trace(config())
        reference = shape(first)
        first.meta["n"] = -1
        first.steps[0].work.clear()
        first.steps[1].pattern.add(0, 1, 8)
        first.steps.pop()
        again = build_ge_trace(config())  # a rebuild of the same configuration
        assert shape(again) == reference
        assert again.meta["n"] == 96
        other = build_ge_trace(config(layout_cls=RowStrippedCyclicLayout))
        assert shape(other) != reference

    def test_stripped_layout_has_more_local_messages(self):
        """Row transfers are free under row-stripped cyclic (paper §6.2)."""
        n, b, P = 96, 12, 8
        t_str = build_ge_trace(GEConfig(n, b, RowStrippedCyclicLayout(n // b, P)))
        t_diag = build_ge_trace(GEConfig(n, b, DiagonalLayout(n // b, P)))
        local_str = sum(len(s.pattern.local_messages()) for s in t_str.steps)
        local_diag = sum(len(s.pattern.local_messages()) for s in t_diag.steps)
        assert local_str > local_diag


class TestNumericalExecution:
    def test_lu_reconstructs_matrix(self):
        a = random_spd_like_matrix(48, seed=1)
        lower, upper = execute_blocked_ge(a, b=12)
        assert verify_lu(a, lower, upper)

    def test_block_size_one(self):
        a = random_spd_like_matrix(8, seed=2)
        lower, upper = execute_blocked_ge(a, b=1)
        assert verify_lu(a, lower, upper)

    def test_single_block(self):
        a = random_spd_like_matrix(16, seed=3)
        lower, upper = execute_blocked_ge(a, b=16)
        assert verify_lu(a, lower, upper)

    def test_matches_unblocked(self):
        """The factorisation is unique (no pivoting): every block size
        yields the same L and U."""
        a = random_spd_like_matrix(24, seed=4)
        l1, u1 = execute_blocked_ge(a, b=4)
        l2, u2 = execute_blocked_ge(a, b=8)
        assert np.allclose(l1, l2)
        assert np.allclose(u1, u2)

    def test_solves_linear_system(self):
        a = random_spd_like_matrix(32, seed=5)
        lower, upper = execute_blocked_ge(a, b=8)
        rng = np.random.default_rng(6)
        x_true = rng.standard_normal(32)
        rhs = a @ x_true
        y = np.linalg.solve(lower, rhs)
        x = np.linalg.solve(upper, y)
        assert np.allclose(x, x_true)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            execute_blocked_ge(np.eye(10), b=3)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            execute_blocked_ge(np.zeros((4, 6)), b=2)

    def test_verify_lu_rejects_bad_factors(self):
        a = random_spd_like_matrix(8, seed=7)
        lower, upper = execute_blocked_ge(a, b=4)
        assert not verify_lu(a, lower + 0.1, upper)
        assert not verify_lu(a, np.ones_like(lower), upper)

    def test_random_matrix_is_dominant(self):
        a = random_spd_like_matrix(16, seed=8)
        for i in range(16):
            assert abs(a[i, i]) > sum(abs(a[i, j]) for j in range(16) if j != i) / 4
