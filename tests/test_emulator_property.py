"""Property-based differential testing of the emulated measurement.

Sweeps run :class:`~repro.machine.emulator.MachineEmulator` untraced:
the causal DES builds no events, the fused push/pop orders its slab, and
each node draws one noise vector per phase.  Hypothesis generates small
random programs (as in ``tests/test_kernel_property.py``) and every one
must emulate bit-identically on the kernel and on the test oracle, with
the emulator's jittered network and with a jitter-free one, where equal
event times — and so both outcomes of a fused push/pop — are common.

The same file checks the two bulk builders the emulated leg rests on:
a node's batched noise against the oracle's per-op draws (values and
generator state), and a :class:`CommPattern` built from an edge list
against one built message by message.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockops import OP_NAMES
from repro.core import MEIKO_CS2, CalibratedCostModel, CommPattern, Message
from repro.kernel import clear_all_caches
from repro.machine import BlockCache, JitteredNetwork, NodeCPU
from repro.machine.emulator import MachineEmulator
from repro.trace import Work

from .oracle import reference_engine, reference_run_phase
from .test_kernel_property import _build, _program

CM = CalibratedCostModel()
NETWORKS = ("jittered", "jitter-free")


def _emulate(trace, network, oracle, seed):
    """One untraced emulator run: its report and the network's RNG state."""
    clear_all_caches()
    net = (
        JitteredNetwork(MEIKO_CS2, seed=seed)
        if network == "jittered"
        else JitteredNetwork(MEIKO_CS2, jitter_sigma=0.0, straggler_prob=0.0)
    )
    with reference_engine() if oracle else nullcontext():
        report = MachineEmulator(MEIKO_CS2, CM, network=net, seed=seed).run(trace)
    return (
        repr(report.total_us),
        repr(report.per_proc_total_us),
        repr(report.per_proc_comp_us),
        repr(report.per_proc_cache_us),
        repr(report.per_proc_local_us),
        net._rng.bit_generator.state,
    )


@settings(max_examples=60, deadline=None)
@given(spec=_program, seed=st.integers(min_value=0, max_value=7))
def test_random_programs_emulate_bit_identical(spec, seed):
    """Any small program, either network: kernel == reference, untraced."""
    trace = _build(spec)
    for network in NETWORKS:
        ref = _emulate(trace, network, oracle=True, seed=seed)
        fast = _emulate(trace, network, oracle=False, seed=seed)
        assert fast == ref, f"kernel/reference divergence on {network!r} network"


_work = st.tuples(
    st.sampled_from(OP_NAMES),
    st.sampled_from([4, 8, 16, 64]),
    st.integers(0, 5),  # block row
    st.integers(0, 5),  # block column
    st.integers(0, 3),  # iteration
)


@settings(max_examples=60, deadline=None)
@given(
    phases=st.lists(st.lists(_work, max_size=8), min_size=1, max_size=6),
    sigma=st.sampled_from([0.0, 0.02, 0.3]),
    cache_bytes=st.sampled_from([None, 4096, 1 << 20]),
    seed=st.integers(min_value=0, max_value=7),
)
def test_node_phases_match_reference(phases, sigma, cache_bytes, seed):
    """Batched noise == one draw per op: same results, same generator state."""

    def node():
        return NodeCPU(
            CM,
            cache=BlockCache(cache_bytes) if cache_bytes else None,
            assigned_blocks=3,
            noise_sigma=sigma,
            rng=np.random.default_rng(seed),
        )

    fast, ref = node(), node()
    for phase in phases:
        ops = [Work(op=op, b=b, block=(i, j), iteration=k) for op, b, i, j, k in phase]
        assert repr(fast.run_phase(ops)) == repr(reference_run_phase(ref, ops))
        assert fast.rng.bit_generator.state == ref.rng.bit_generator.state


_edge = st.tuples(
    st.integers(0, 4),     # src
    st.integers(0, 4),     # dst
    st.integers(1, 4096),  # size
)


@settings(max_examples=100, deadline=None)
@given(edges=st.lists(_edge, max_size=20))
def test_bulk_pattern_matches_per_message_adds(edges):
    """The edge-list constructor assigns the uids, seqs and order of adds."""
    bulk = CommPattern(5, edges)
    one_by_one = CommPattern(5)
    for src, dst, size in edges:
        one_by_one.add(src, dst, size)
    assert bulk.messages == one_by_one.messages
    # and both equal messages built (and checked) by the dataclass itself
    seqs: dict[int, int] = {}
    expected = []
    for uid, (src, dst, size) in enumerate(edges):
        expected.append(Message(src, dst, size, uid, seqs.get(src, 0)))
        seqs[src] = seqs.get(src, 0) + 1
    assert bulk.messages == tuple(expected)
    assert [hash(m) for m in bulk] == [hash(m) for m in expected]


@pytest.mark.parametrize(
    "bad",
    [(5, 0, 8), (0, 5, 8), (-1, 0, 8), (0, -1, 8), (0, 1, 0), (0, 1, -3)],
    ids=["src-high", "dst-high", "src-negative", "dst-negative", "size-0", "size-neg"],
)
@pytest.mark.parametrize("position", [0, 2])
def test_bulk_pattern_rejects_what_add_rejects(bad, position):
    """Out-of-range processors and sizes < 1 fail the same way either path."""
    edges = [(0, 1, 8), (1, 2, 8)]
    edges.insert(position, bad)
    with pytest.raises(ValueError) as bulk_err:
        CommPattern(5, edges)
    pattern = CommPattern(5)
    with pytest.raises(ValueError) as add_err:
        for edge in edges:
            pattern.add(*edge)
    assert str(bulk_err.value) == str(add_err.value)
    # a rejected add leaves the pattern as it was
    assert len(pattern) == position
