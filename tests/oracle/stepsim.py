"""Reference step simulators: the paper's Figure 2 and §4.2 algorithms.

These are the straightforward transcriptions the kernel
(:mod:`repro.kernel.fastsim`) is proven against.  They keep the
per-processor state objects, the full rescan of every sender on every
iteration and ``rng.choice`` for tie-breaks, so the differential suites
compare two independent implementations.  Both accept the production
signature's ``record`` and ignore it: the reference always builds the
full event stream, and its ``busy`` is ``timeline.busy_times()`` — a
fold over the events, independent of the kernel's on-the-fly one.
Test-only: nothing under ``src/`` imports this module.
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
from repro.obs.events import get_tracer

__all__ = ["simulate_standard", "simulate_worstcase"]


class _ProcState:
    """Mutable per-processor simulation state."""

    __slots__ = ("ctime", "last_kind", "send_queue", "recv_heap", "expected")

    def __init__(self, ctime: float, sends: tuple[Message, ...], expected: int = 0):
        self.ctime = ctime
        self.last_kind: Optional[OpKind] = None
        self.send_queue: deque[Message] = deque(sends)
        # entries: (arrival_time, uid, Message)
        self.recv_heap: list[tuple[float, int, Message]] = []
        #: messages-to-receive counter (worst case: decremented on *send*)
        self.expected = expected


class _Step:
    """One communication step's state plus the two LogGP operations."""

    def __init__(self, params, pattern, start_times, count_expected):
        starts = dict(start_times or {})
        remote = pattern.remote_messages()
        self.params = params
        self.local = pattern.local_messages()
        self.procs = sorted(
            {m.src for m in remote} | {m.dst for m in remote} | set(starts)
        )
        self.state = {
            p: _ProcState(
                starts.get(p, 0.0),
                tuple(m for m in remote if m.src == p),
                sum(1 for m in remote if m.dst == p) if count_expected else 0,
            )
            for p in self.procs
        }
        self.timeline = StepTimeline(
            params=params, start_times={p: starts.get(p, 0.0) for p in self.procs}
        )

    def send(self, proc: int) -> None:
        params = self.params
        st = self.state[proc]
        msg = st.send_queue.popleft()
        start = params.earliest_start(st.last_kind, st.ctime, OpKind.SEND)
        duration = params.send_duration(msg.size)
        self.timeline.add(CommEvent(proc, OpKind.SEND, start, duration, msg))
        st.ctime = start + duration
        st.last_kind = OpKind.SEND
        arrival = start + duration + params.L
        dst = self.state[msg.dst]
        heapq.heappush(dst.recv_heap, (arrival, msg.uid, msg))
        dst.expected -= 1

    def recv(self, proc: int) -> None:
        params = self.params
        st = self.state[proc]
        arrival, _, msg = heapq.heappop(st.recv_heap)
        earliest = params.earliest_start(st.last_kind, st.ctime, OpKind.RECV)
        start = max(arrival, earliest)
        duration = params.recv_duration(msg.size)
        self.timeline.add(
            CommEvent(proc, OpKind.RECV, start, duration, msg, arrival=arrival)
        )
        st.ctime = start + duration
        st.last_kind = OpKind.RECV

    def drain(self) -> None:
        for p in self.procs:
            while self.state[p].recv_heap:
                self.recv(p)

    def result(self, algo: str) -> SimulationResult:
        ctimes = {p: self.state[p].ctime for p in self.procs}
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count(f"sim.comm_steps.{algo}")
            tracer.emit_comm_step(self.timeline, ctimes, algo=algo)
        return SimulationResult(
            timeline=self.timeline,
            ctimes=ctimes,
            busy=self.timeline.busy_times(),
            skipped_local=self.local,
        )


def simulate_standard(
    params: LogGPParameters,
    pattern: CommPattern,
    start_times: Optional[Mapping[int, float]] = None,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    record: bool = True,
) -> SimulationResult:
    """Figure 2: receives have priority, ties between processors break randomly."""
    del record  # always recording; API symmetry
    if rng is None:
        rng = np.random.default_rng(0 if seed is None else seed)
    step = _Step(params, pattern, start_times, count_expected=False)
    state = step.state
    while True:
        senders = [p for p in step.procs if state[p].send_queue]
        if not senders:
            break
        min_ct = min(state[p].ctime for p in senders)
        tied = [p for p in senders if state[p].ctime == min_ct]
        min_proc = tied[0] if len(tied) == 1 else int(rng.choice(tied))
        st = state[min_proc]

        if st.recv_heap:
            arrival = st.recv_heap[0][0]
            start_recv = max(
                arrival, params.earliest_start(st.last_kind, st.ctime, OpKind.RECV)
            )
        else:
            start_recv = float("inf")
        start_send = params.earliest_start(st.last_kind, st.ctime, OpKind.SEND)

        # Strict '<' gives receives priority over sends on equal start times.
        if start_send < start_recv:
            step.send(min_proc)
        else:
            step.recv(min_proc)
    step.drain()
    return step.result("standard")


def simulate_worstcase(
    params: LogGPParameters,
    pattern: CommPattern,
    start_times: Optional[Mapping[int, float]] = None,
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
    record: bool = True,
) -> SimulationResult:
    """§4.2: receive everything first, then send; random sends break cycles."""
    del record  # always recording; API symmetry
    if rng is None:
        rng = np.random.default_rng(0 if seed is None else seed)
    step = _Step(params, pattern, start_times, count_expected=True)
    state = step.state
    procs = step.procs
    while any(state[p].send_queue for p in procs):
        # A processor may transmit once it expects no more messages *and*
        # has actually performed every receive.
        ready = [
            p
            for p in procs
            if state[p].send_queue
            and state[p].expected == 0
            and not state[p].recv_heap
        ]
        if not ready:
            # Either a cycle (true deadlock) or receives still pending this
            # round; first let pending receives complete, then force-break.
            receivers = [p for p in procs if state[p].recv_heap]
            if receivers:
                for p in receivers:
                    while state[p].recv_heap:
                        step.recv(p)
                continue
            blocked = [p for p in procs if state[p].send_queue]
            victim = blocked[0] if len(blocked) == 1 else int(rng.choice(blocked))
            step.send(victim)  # random forced transmission breaks the cycle
            continue

        # Part 1 of the round: every ready processor sends all its messages.
        for p in ready:
            while state[p].send_queue:
                step.send(p)
        # Part 2: destinations perform the corresponding receives.
        step.drain()

    # Drain any receives left over from the final round of sends.
    step.drain()
    return step.result("worstcase")
