"""Simulated multi-rank runtime: the correctness oracle.

Executes CoCoNet programs numerically on N simulated ranks with numpy
arrays. Every transformed schedule must produce the same results as the
original program here — this is the library's enforcement of the paper's
"semantics preserving transformations".

One rank-major store (one stacked ``(num_ranks, *shape)`` array per
tensor; collectives as single numpy expressions) and one interpreter:
``Executor.run_lowered`` runs the shared lowered instruction stream
(:mod:`repro.core.lower`) — fused blocks as units, overlap groups
chunk-by-chunk — so scheduled execution itself is numerically verified.
``Executor.run`` is the same interpreter on an unscheduled program. The
per-rank dict-of-arrays oracle it is property-tested bit-identical
against lives in ``tests/oracle.py``.

``Executor.run_spmd`` leaves the single process altogether: it generates
the per-rank SPMD module once and runs that very source as one real OS
process per rank over the shared-memory communicator of
:mod:`repro.runtime.spmd`, bit-identical to ``run_lowered``.
:mod:`repro.runtime.faults` injects deterministic, seeded failures
(stragglers, stalls, dropped chunks, dead ranks) into that backend, and
``Executor.run_spmd(relower=...)`` recovers from dead ranks by
re-lowering for the surviving world size.
"""

from repro.runtime.executor import Executor, ProgramResult
from repro.runtime.faults import FaultPlan
from repro.runtime.spmd import (
    SpmdCommunicator,
    SpmdError,
    SpmdPeerAbort,
    SpmdTimeout,
    SpmdWorkerError,
)
from repro.runtime.world import SimWorld

__all__ = [
    "Executor",
    "FaultPlan",
    "ProgramResult",
    "SimWorld",
    "SpmdCommunicator",
    "SpmdError",
    "SpmdPeerAbort",
    "SpmdTimeout",
    "SpmdWorkerError",
]
