"""Reference causal DES: the LogGP step as one coroutine per processor.

This is the process-per-processor implementation on the
:mod:`repro.des` engine that :mod:`repro.kernel.fastdes` replays as a
flat event slab.  The kernel must match it sequence-exactly (same event
order, same wire-latency draw order), which the differential suites
check.  Test-only: nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Mapping, Optional

import numpy as np

from repro.core.events import CommEvent, StepTimeline
from repro.core.loggp import LogGPParameters, OpKind
from repro.core.message import CommPattern, Message
from repro.core.standard_sim import SimulationResult
from repro.des import Environment, Event
from repro.obs.events import get_tracer

__all__ = ["simulate_causal"]

_INF = float("inf")


class _Proc:
    __slots__ = ("pid", "last_kind", "last_end", "sends", "arrived", "wakeup", "received")

    def __init__(self, pid: int, ctime: float, sends: tuple[Message, ...]):
        self.pid = pid
        self.last_kind: Optional[OpKind] = None
        self.last_end = ctime
        self.sends: deque[Message] = deque(sends)
        self.arrived: list[tuple[float, int, Message]] = []
        self.wakeup: Optional[Event] = None
        self.received = 0


def simulate_causal(
    params: LogGPParameters,
    pattern: CommPattern,
    start_times: Optional[Mapping[int, float]] = None,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    latency_of=None,
    record: bool = True,
) -> SimulationResult:
    """Simulate one communication step with the causal active-message model.

    Arguments mirror :func:`repro.core.standard_sim.simulate_standard`.
    ``rng``/``seed`` are accepted for interface symmetry; the causal model
    is deterministic (the DES engine orders same-time events by creation)
    unless ``latency_of`` is stochastic.

    ``latency_of(message) -> us`` overrides the wire latency per message
    (the machine emulator's jittered network); default is ``params.L``.

    ``record`` is accepted and ignored: the reference always builds the
    full event stream, so production's event-free runs are compared
    against complete ones.  ``busy`` is ``timeline.busy_times()``, a fold
    over the events independent of the kernel's on-the-fly one.
    """
    del rng, seed, record  # deterministic, always recording; API symmetry
    if latency_of is None:
        latency_of = lambda _msg: params.L  # noqa: E731 - tiny closure
    starts = dict(start_times or {})
    remote = pattern.remote_messages()
    local = pattern.local_messages()
    procs = sorted({m.src for m in remote} | {m.dst for m in remote} | set(starts))

    expected = {p: sum(1 for m in remote if m.dst == p) for p in procs}
    state = {
        p: _Proc(p, starts.get(p, 0.0), tuple(m for m in remote if m.src == p))
        for p in procs
    }
    timeline = StepTimeline(
        params=params, start_times={p: starts.get(p, 0.0) for p in procs}
    )

    env = Environment()

    def deliver(dst: int, msg: Message, wire_delay: float):
        """Carry a message across the wire, then wake the destination."""
        yield env.timeout(wire_delay)
        st = state[dst]
        heapq.heappush(st.arrived, (env.now, msg.uid, msg))
        if st.wakeup is not None and not st.wakeup.triggered:
            st.wakeup.succeed()

    def processor(pid: int):
        st = state[pid]
        while st.sends or st.received < expected[pid]:
            now = env.now
            if st.sends:
                send_start = max(
                    now, params.earliest_start(st.last_kind, st.last_end, OpKind.SEND)
                )
            else:
                send_start = _INF
            if st.arrived:
                recv_start = max(
                    now,
                    st.arrived[0][0],
                    params.earliest_start(st.last_kind, st.last_end, OpKind.RECV),
                )
            else:
                recv_start = _INF

            if st.arrived and recv_start <= send_start:
                # Receive priority (strict '<' in Figure 2 == '<=' here,
                # because the send is the one that must yield).
                arrival, _, msg = heapq.heappop(st.arrived)
                if recv_start > now:
                    yield env.timeout(recv_start - now)
                duration = params.recv_duration(msg.size)
                timeline.add(
                    CommEvent(pid, OpKind.RECV, recv_start, duration, msg, arrival=arrival)
                )
                yield env.timeout(duration)
                st.last_kind, st.last_end = OpKind.RECV, recv_start + duration
                st.received += 1
            elif st.sends:
                if send_start > now:
                    # Wait for the send slot, but re-evaluate on any arrival.
                    st.wakeup = env.event()
                    yield env.any_of([env.timeout(send_start - now), st.wakeup])
                    st.wakeup = None
                    continue
                msg = st.sends.popleft()
                duration = params.send_duration(msg.size)
                timeline.add(CommEvent(pid, OpKind.SEND, send_start, duration, msg))
                yield env.timeout(duration)
                st.last_kind, st.last_end = OpKind.SEND, send_start + duration
                env.process(deliver(msg.dst, msg, latency_of(msg)))
            else:
                # Nothing sendable and nothing arrived: block until delivery.
                st.wakeup = env.event()
                yield st.wakeup
                st.wakeup = None

    # Start clocks are enforced through each _Proc.last_end, so every
    # processor coroutine can start at simulation time zero.
    for p in procs:
        env.process(processor(p), name=f"P{p}")

    env.run()

    ctimes = {p: state[p].last_end for p in procs}
    tracer = get_tracer()
    if tracer.enabled:
        tracer.count("sim.comm_steps.causal")
        tracer.emit_comm_step(timeline, ctimes, algo="causal")
    return SimulationResult(
        timeline=timeline,
        ctimes=ctimes,
        busy=timeline.busy_times(),
        skipped_local=local,
    )
