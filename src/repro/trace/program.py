"""Program traces: the oblivious alternating comp/comm representation.

Paper section 2 restricts the analysed programs to *oblivious* algorithms
whose communication pattern does not depend on the input and whose
computation and communication steps alternate without overlapping.  Such a
program is fully described — for prediction purposes — by a
:class:`ProgramTrace`: an ordered list of :class:`Step`, each holding

* the basic-operation invocations every processor performs in the step's
  computation phase (:class:`Work` records), and
* the :class:`~repro.core.message.CommPattern` of the step's communication
  phase.

Applications (:mod:`repro.apps`) generate traces; the predictor
(:mod:`repro.core.program_sim`) and the machine emulator
(:mod:`repro.machine.emulator`) both consume them, which is what makes the
predicted-vs-"measured" comparisons of Figures 7-9 apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from ..core.message import CommPattern

__all__ = ["Work", "Step", "ProgramTrace"]


@dataclass(frozen=True, slots=True)
class Work:
    """One basic-operation invocation.

    ``op`` names a basic operation of the program's finite op set (the
    paper's restriction); the cost model in use must know how to price it.
    ``block`` identifies the block operated on (for the emulator's cache
    model); ``iteration`` tags the elimination iteration that issued it.
    ``b`` is the block size — per-``Work`` so variable-sized-block programs
    (a paper future-work item) are representable.
    """

    op: str
    b: int
    block: tuple[int, int] = (-1, -1)
    iteration: int = -1

    def __post_init__(self) -> None:
        if not self.op:
            raise ValueError("op name must be non-empty")
        if self.b < 1:
            raise ValueError(f"block size must be >= 1, got {self.b}")


@dataclass
class Step:
    """One alternating step: a computation phase then a communication phase."""

    #: per-processor work lists; processors with no work may be absent
    work: dict[int, list[Work]] = field(default_factory=dict)
    #: the communication phase (may be empty)
    pattern: Optional[CommPattern] = None
    #: free-form label for reports ("iter 3 wave 2", ...)
    label: str = ""

    def ops_of(self, proc: int) -> Sequence[Work]:
        """Work of ``proc`` this step (empty if none)."""
        return self.work.get(proc, ())

    def total_ops(self) -> int:
        """Number of basic-op invocations across all processors."""
        return sum(len(v) for v in self.work.values())

    def participants(self) -> set[int]:
        """Processors that compute or communicate this step."""
        procs = {p for p, ops in self.work.items() if ops}
        if self.pattern is not None:
            procs |= set(self.pattern.participants())
        return procs


@dataclass
class ProgramTrace:
    """A full program: ordered steps plus global metadata."""

    num_procs: int
    steps: list[Step] = field(default_factory=list)
    #: metadata for reports (matrix size, block size, layout name, ...)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_procs < 1:
            raise ValueError("num_procs must be >= 1")

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def add_step(self, step: Step) -> None:
        """Append a step after validating its processor ids."""
        for p in step.work:
            if not (0 <= p < self.num_procs):
                raise ValueError(f"work for out-of-range processor {p}")
        if step.pattern is not None and step.pattern.num_procs != self.num_procs:
            raise ValueError(
                f"pattern has {step.pattern.num_procs} processors, trace has {self.num_procs}"
            )
        self.steps.append(step)

    def copy(self) -> "ProgramTrace":
        """An independent trace: fresh steps, work lists, patterns and meta
        around the same (frozen) :class:`Work` and message objects."""
        steps = [
            Step(
                work={proc: list(ops) for proc, ops in step.work.items()},
                pattern=None if step.pattern is None else step.pattern.copy(),
                label=step.label,
            )
            for step in self.steps
        ]
        return ProgramTrace(num_procs=self.num_procs, steps=steps, meta=dict(self.meta))

    # -- aggregate queries -------------------------------------------------------
    def total_ops(self) -> int:
        """Basic-op invocations over the whole program."""
        return sum(s.total_ops() for s in self.steps)

    def total_messages(self, include_local: bool = True) -> int:
        """Messages over the whole program."""
        count = 0
        for s in self.steps:
            if s.pattern is None:
                continue
            count += len(s.pattern) if include_local else len(s.pattern.remote_messages())
        return count

    def total_bytes(self) -> int:
        """Message bytes over the whole program (local + remote)."""
        return sum(s.pattern.total_bytes() for s in self.steps if s.pattern is not None)

    def blocks_by_proc(self) -> dict[int, dict[tuple[int, int], int]]:
        """Distinct blocks each processor operates on, with their sizes.

        ``{proc: {(i, j): b}}`` over the whole program; blocks tagged
        ``(-1, -1)`` (anonymous work) are ignored.  Drives the cache
        footprint of the prediction extension and the emulator's per-node
        block count.
        """
        out: dict[int, dict[tuple[int, int], int]] = {}
        for step in self.steps:
            for proc, ops in step.work.items():
                mine = out.setdefault(proc, {})
                for w in ops:
                    if w.block != (-1, -1):
                        mine[w.block] = max(mine.get(w.block, 0), w.b)
        return out

    def op_histogram(self) -> dict[str, int]:
        """``{op name: invocation count}`` over the whole program."""
        hist: dict[str, int] = {}
        for s in self.steps:
            for ops in s.work.values():
                for w in ops:
                    hist[w.op] = hist.get(w.op, 0) + 1
        return hist

    def validate(self) -> None:
        """Structural checks: ids in range, patterns sized consistently."""
        for idx, s in enumerate(self.steps):
            for p, ops in s.work.items():
                if not (0 <= p < self.num_procs):
                    raise ValueError(f"step {idx}: processor {p} out of range")
                for w in ops:
                    if w.b < 1:
                        raise ValueError(f"step {idx}: bad block size {w.b}")
            if s.pattern is not None:
                if s.pattern.num_procs != self.num_procs:
                    raise ValueError(f"step {idx}: pattern processor-count mismatch")
                s.pattern.validate()

    def __repr__(self) -> str:
        return (
            f"ProgramTrace(P={self.num_procs}, steps={len(self.steps)}, "
            f"ops={self.total_ops()}, msgs={self.total_messages()})"
        )
