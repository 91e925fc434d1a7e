"""Tests for the causal DES cross-check model (repro.core.des_check)."""

import numpy as np
import pytest

from repro.apps import random_pattern, ring_pattern, sample_pattern
from repro.core import (
    MEIKO_CS2,
    CommPattern,
    LogGPParameters,
    simulate_causal,
    simulate_standard,
    simulate_worstcase,
)
from repro.obs import Tracer, tracing

PARAMS = LogGPParameters(L=10.0, o=2.0, g=5.0, G=0.5, P=8)


class TestAgainstStandard:
    def test_single_message_identical(self):
        pat = CommPattern(2, edges=[(0, 1, 1)])
        ca = simulate_causal(PARAMS, pat)
        std = simulate_standard(PARAMS, pat)
        assert ca.completion_time == pytest.approx(std.completion_time)
        assert ca.ctimes == pytest.approx(std.ctimes)

    def test_chain_identical(self):
        pat = CommPattern(4, edges=[(0, 1, 7), (1, 2, 7), (2, 3, 7)])
        ca = simulate_causal(PARAMS, pat)
        std = simulate_standard(PARAMS, pat)
        assert ca.completion_time == pytest.approx(std.completion_time)

    def test_sample_pattern_identical(self):
        pat = sample_pattern()
        ca = simulate_causal(MEIKO_CS2, pat)
        std = simulate_standard(MEIKO_CS2, pat)
        assert ca.completion_time == pytest.approx(std.completion_time)

    @pytest.mark.parametrize("trial", range(20))
    def test_random_patterns_agree(self, trial):
        """Independent implementations of the same policy agree on the
        fuzz corpus (zero-start-time patterns)."""
        pat = random_pattern(6, 14, seed=100 + trial)
        ca = simulate_causal(PARAMS, pat)
        std = simulate_standard(PARAMS, pat, seed=trial)
        assert ca.completion_time == pytest.approx(std.completion_time)

    def test_ring_agrees(self):
        pat = ring_pattern(5, size=3)
        ca = simulate_causal(PARAMS, pat)
        std = simulate_standard(PARAMS, pat)
        assert ca.completion_time == pytest.approx(std.completion_time)


class TestInvariants:
    def test_sample_pattern_valid(self):
        pat = sample_pattern()
        res = simulate_causal(MEIKO_CS2, pat)
        res.timeline.validate(pat.messages)

    def test_start_times_respected(self):
        pat = CommPattern(2, edges=[(0, 1, 1)])
        res = simulate_causal(PARAMS, pat, start_times={0: 30.0})
        (send,) = res.timeline.sends()
        assert send.start == pytest.approx(30.0)
        res.timeline.validate(pat.messages)

    def test_local_messages_skipped(self):
        pat = CommPattern(2, edges=[(0, 0, 9)])
        res = simulate_causal(PARAMS, pat)
        assert res.timeline.events == []
        assert len(res.skipped_local) == 1

    def test_empty_pattern(self):
        res = simulate_causal(PARAMS, CommPattern(2))
        assert res.completion_time == 0.0


class TestJitteredLatency:
    def test_latency_override_applied(self):
        pat = CommPattern(2, edges=[(0, 1, 1)])
        res = simulate_causal(PARAMS, pat, latency_of=lambda m: 50.0)
        (recv,) = res.timeline.recvs()
        assert recv.arrival == pytest.approx(2.0 + 50.0)
        res.timeline.validate(pat.messages, strict_latency=False)

    def test_strict_validation_catches_override(self):
        pat = CommPattern(2, edges=[(0, 1, 1)])
        res = simulate_causal(PARAMS, pat, latency_of=lambda m: 50.0)
        with pytest.raises(AssertionError):
            res.timeline.validate(pat.messages, strict_latency=True)

    def test_per_message_latency(self):
        pat = CommPattern(3, edges=[(0, 1, 1), (0, 2, 1)])
        lat = {0: 10.0, 1: 100.0}
        res = simulate_causal(PARAMS, pat, latency_of=lambda m: lat[m.uid])
        recvs = {e.message.uid: e for e in res.timeline.recvs()}
        assert recvs[1].arrival - recvs[0].arrival == pytest.approx(
            (7.0 + 2.0 + 100.0) - (0.0 + 2.0 + 10.0)
        )


class TestEventSink:
    """``record=False`` drops the event stream and nothing else, on every
    engine (one loop over the engines keeps these tests' ids)."""

    ENGINES = {
        "standard": simulate_standard,
        "worstcase": simulate_worstcase,
        "causal": simulate_causal,
    }
    #: tied start clocks (the tie-break generator is drawn); processor 8
    #: has a clock but no message, so it performs no operation
    STARTS = {p: float(p % 3) for p in range(9)}

    def _run(self, simulate, record):
        pattern = random_pattern(8, 40, seed=5)
        pattern.add(3, 3, 9)  # a local message, skipped by every engine
        rng = np.random.default_rng(11)
        result = simulate(
            MEIKO_CS2, pattern, start_times=self.STARTS, rng=rng, record=record
        )
        return result, rng

    def test_clocks_without_events(self):
        for name, simulate in self.ENGINES.items():
            full, full_rng = self._run(simulate, True)
            lean, lean_rng = self._run(simulate, False)
            assert full.timeline.events, name
            assert lean.timeline.events == [], name
            assert repr(lean.ctimes) == repr(full.ctimes), name
            assert repr(lean.busy) == repr(full.busy), name
            assert len(full.skipped_local) == 1, name
            assert repr(lean.skipped_local) == repr(full.skipped_local), name
            assert (
                lean_rng.bit_generator.state == full_rng.bit_generator.state
            ), name
            # the on-the-fly fold == the fold over the recorded events
            assert repr(sorted(lean.busy.items())) == repr(
                sorted(full.timeline.busy_times().items())
            ), name

    def test_enabled_tracer_still_gets_events(self):
        for name, simulate in self.ENGINES.items():
            streams = []
            for record in (True, False):
                tracer = Tracer()
                with tracing(tracer):
                    result, _ = self._run(simulate, record)
                streams.append(
                    ([repr(e) for e in tracer.events], result.timeline.events)
                )
            assert streams[0][0] and streams[0] == streams[1], name
