"""Blocked parallel Gaussian Elimination (paper section 5).

The parallel GE without pivoting is based on the observation that each
iteration of the sequential algorithm can be regarded as a diagonal wave
traversing the matrix from the upper-left to the lower-right corner, so
several (anti-)diagonals of blocks are active at the same time [Kumar et
al.].  The blocked version raises the granularity to ``b x b`` basic
blocks operated on by the four basic operations of
:mod:`repro.blockops.ops`.

Wavefront schedule
------------------
With ``nb = n / b`` blocks per side, iteration ``k``'s wave reaches block
``(i, j)`` (``i, j >= k``) at *global step* ``t = 3k + (i-k) + (j-k)``:

* iteration ``k`` starts (Op1 at ``(k,k)``) three steps after iteration
  ``k-1`` started — one step after Op4 of iteration ``k-1`` finished on
  ``(k,k)``;
* each step is one computation phase followed by one communication phase,
  matching the paper's alternating non-overlapping restriction.

Data movement per active block (systolic, neighbour-to-neighbour):

* ``(k,k)`` after Op1 sends ``L^-1`` right to ``(k,k+1)`` and ``U^-1``
  down to ``(k+1,k)``;
* ``(k,j)`` after Op2 forwards ``L^-1`` right and sends its transformed
  row block down;
* ``(i,k)`` after Op3 forwards ``U^-1`` down and sends its transformed
  column block right;
* ``(i,j)`` after Op4 forwards the column block right and the row block
  down.

Messages between blocks owned by the same processor are *local* — real
executions do them as memory copies; the simple LogGP prediction skips
them (paper section 6.3) while the machine emulator charges a copy cost.

This module provides both the **trace generator** (consumed by predictor
and emulator) and a **numerical executor** that actually factorises a
matrix with the four basic ops, verified against ``L @ U = A``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..blockops import ops as bops
from ..core.message import CommPattern
from ..layouts.base import DataLayout
from ..trace.program import ProgramTrace, Step, Work

__all__ = [
    "GEConfig",
    "build_ge_trace",
    "execute_blocked_ge",
    "verify_lu",
    "random_spd_like_matrix",
    "PAPER_MATRIX_N",
    "PAPER_BLOCK_SIZES",
]

#: the paper's matrix order (reconstructed; see DESIGN.md)
PAPER_MATRIX_N = 960

#: the paper's 14 block sizes (reconstructed; all divide 960)
PAPER_BLOCK_SIZES = (10, 12, 15, 20, 24, 30, 40, 48, 60, 64, 80, 96, 120, 160)


@dataclass(frozen=True)
class GEConfig:
    """One GE experiment configuration."""

    n: int
    b: int
    layout: DataLayout

    def __post_init__(self) -> None:
        if self.n < 1 or self.b < 1:
            raise ValueError("matrix and block sizes must be >= 1")
        if self.n % self.b:
            raise ValueError(f"block size {self.b} does not divide n={self.n}")
        if self.layout.nb != self.n // self.b:
            raise ValueError(
                f"layout grid {self.layout.nb} != n/b = {self.n // self.b}"
            )

    @property
    def nb(self) -> int:
        """Blocks per matrix side."""
        return self.n // self.b


def _op_of(i: int, j: int, k: int) -> str:
    if i == k and j == k:
        return "op1"
    if i == k:
        return "op2"
    if j == k:
        return "op3"
    return "op4"


#: the last GE trace built, keyed by everything it depends on.  Replicate
#: studies rebuild one configuration many times; a rebuild is then a copy
#: around the same frozen work and message objects.  One entry: a Fig. 7
#: grid never revisits a configuration.  :func:`clear_trace_cache` (and
#: :func:`repro.kernel.clear_all_caches`) drops it.
_last_built: Optional[tuple[tuple, ProgramTrace]] = None


def build_ge_trace(config: GEConfig) -> ProgramTrace:
    """Generate the wavefront GE program trace for one configuration.

    The trace has ``3*(nb-1) + 1`` steps; step ``t`` holds the computation
    of every block ``(i, j, k)`` with ``3k + (i-k) + (j-k) == t`` and the
    communication pattern of the data those blocks emit.  Every call
    returns an independent trace.
    """
    return _shared_trace(config).copy()


def _shared_trace(config: GEConfig) -> ProgramTrace:
    """The cached trace of ``config``, shared with later callers: read only.

    The kernel's plan cache holds this object, so a process keeps one
    trace per configuration in memory, not two.
    """
    global _last_built
    nb = config.nb
    b = config.b
    layout = config.layout
    owner = tuple(tuple(layout.owner(i, j) for j in range(nb)) for i in range(nb))
    key = (b, layout.num_procs, layout.name, owner)
    last = _last_built
    if last is not None and last[0] == key:
        return last[1]
    last = _last_built = None  # release the previous trace before building
    trace = _wavefront_trace(b, layout.num_procs, owner)
    trace.meta.update(
        {
            "app": "gauss",
            "n": config.n,
            "b": b,
            "nb": nb,
            "layout": layout.name,
            "num_procs": layout.num_procs,
            "block_bytes": b * b * 8,
            "factor_bytes": b * (b + 1) // 2 * 8,
        }
    )
    _last_built = (key, trace)
    return trace


def clear_trace_cache() -> None:
    """Forget the cached trace: the next build starts from scratch."""
    global _last_built
    _last_built = None


def _wavefront_trace(b: int, num_procs: int, owner) -> ProgramTrace:
    """The steps of :func:`build_ge_trace`; ``owner[i][j]`` owns block (i, j)."""
    nb = len(owner)
    block_bytes = b * b * 8
    factor_bytes = b * (b + 1) // 2 * 8  # one triangular factor

    trace = ProgramTrace(num_procs=num_procs)
    last_t = 3 * (nb - 1)
    for t in range(last_t + 1):
        work: dict[int, list[Work]] = {}
        edges: list[tuple[int, int, int]] = []  # (src, dst, bytes) in send order
        # iterations whose wave is alive at step t
        k_hi = min(t // 3, nb - 1)
        for k in range(k_hi + 1):
            s = t - 3 * k
            if s > 2 * (nb - 1 - k):
                continue
            # blocks (i, j) with i,j >= k and (i-k) + (j-k) == s
            di_lo = max(0, s - (nb - 1 - k))
            di_hi = min(s, nb - 1 - k)
            for di in range(di_lo, di_hi + 1):
                i = k + di
                j = k + (s - di)
                me = owner[i][j]
                op = _op_of(i, j, k)
                work.setdefault(me, []).append(
                    Work(op=op, b=b, block=(i, j), iteration=k)
                )
                # outgoing data (systolic forwarding)
                if op == "op1":
                    if j + 1 < nb:
                        edges.append((me, owner[i][j + 1], factor_bytes))
                    if i + 1 < nb:
                        edges.append((me, owner[i + 1][j], factor_bytes))
                elif op == "op2":
                    if j + 1 < nb:
                        edges.append((me, owner[i][j + 1], factor_bytes))
                    if i + 1 < nb:
                        edges.append((me, owner[i + 1][j], block_bytes))
                elif op == "op3":
                    if i + 1 < nb:
                        edges.append((me, owner[i + 1][j], factor_bytes))
                    if j + 1 < nb:
                        edges.append((me, owner[i][j + 1], block_bytes))
                else:  # op4 forwards both streams
                    if j + 1 < nb:
                        edges.append((me, owner[i][j + 1], block_bytes))
                    if i + 1 < nb:
                        edges.append((me, owner[i + 1][j], block_bytes))
        pattern = CommPattern(num_procs, edges)  # one bulk, validated-once build
        trace.add_step(Step(work=work, pattern=pattern, label=f"t={t}"))
    return trace


def random_spd_like_matrix(n: int, seed: int = 0) -> np.ndarray:
    """A random diagonally dominant matrix (safe for GE without pivoting)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a += n * np.eye(n)
    return a


def execute_blocked_ge(
    matrix: np.ndarray, b: int
) -> tuple[np.ndarray, np.ndarray]:
    """Numerically run the blocked GE with the four basic operations.

    Returns ``(L, U)`` with ``L`` unit lower triangular and ``U`` upper
    triangular such that ``L @ U`` equals the input (up to round-off).
    This executes the same arithmetic the distributed wavefront performs,
    in dependency order, validating that the trace's operation set is a
    correct factorisation (paper section 5.1's basic-op decomposition).
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    if n % b:
        raise ValueError(f"block size {b} does not divide n={n}")
    nb = n // b
    a = np.array(matrix, dtype=np.float64, copy=True)

    def blk(i: int, j: int) -> np.ndarray:
        return a[i * b : (i + 1) * b, j * b : (j + 1) * b]

    lower = np.eye(n)
    upper = np.zeros((n, n))

    for k in range(nb):
        factors = bops.op1_factor(blk(k, k))  # Op1
        lower[k * b : (k + 1) * b, k * b : (k + 1) * b] = factors.lower
        upper[k * b : (k + 1) * b, k * b : (k + 1) * b] = factors.upper
        for j in range(k + 1, nb):  # Op2 across the pivot row
            u_kj = bops.op2_row(factors.lower_inv, blk(k, j))
            blk(k, j)[:] = u_kj
            upper[k * b : (k + 1) * b, j * b : (j + 1) * b] = u_kj
        for i in range(k + 1, nb):  # Op3 down the pivot column
            l_ik = bops.op3_col(blk(i, k), factors.upper_inv)
            blk(i, k)[:] = l_ik
            lower[i * b : (i + 1) * b, k * b : (k + 1) * b] = l_ik
        for i in range(k + 1, nb):  # Op4 on the trailing submatrix
            for j in range(k + 1, nb):
                blk(i, j)[:] = bops.op4_update(blk(i, j), blk(i, k), blk(k, j))

    return lower, upper


def verify_lu(
    matrix: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rtol: float = 1e-8,
    atol: float = 1e-6,
) -> bool:
    """Check ``L @ U == A`` (within tolerance) and triangularity."""
    n = matrix.shape[0]
    if not np.allclose(lower, np.tril(lower), atol=atol):
        return False
    if not np.allclose(np.diag(lower), np.ones(n), atol=atol):
        return False
    if not np.allclose(upper, np.triu(upper), atol=atol):
        return False
    return np.allclose(lower @ upper, matrix, rtol=rtol, atol=atol)
