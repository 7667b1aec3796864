"""Real SPMD execution: every rank on its own shared-memory communicator.

The lowered-stream interpreter executes every rank inside one
interpreter loop, so "communication" is a library call over arrays it
already owns. This module runs the generated per-rank module
(``CodeGenerator``, ``target="spmd"`` or ``"native"``) as genuinely
concurrent ranks that rendezvous through a :class:`SpmdCommunicator`
built on ``multiprocessing.shared_memory``. Every rank executes the
one module source the parent generated (``GeneratedProgram.source``),
and two launchers share one rank body (:func:`_run_rank`):

* :func:`launch` spawns one OS process per rank (``multiprocessing``
  spawn context) and ships it the source — the tier
  ``Executor.run_spmd`` drives, with fault injection, tracing and
  elastic recovery;
* :func:`run_threads` runs one thread per rank in the calling process —
  what ``GeneratedProgram.run`` uses.

Transport protocol
------------------

The parent lays out one *slot* per (communication site, rank) in a
single shared data segment, plus an ``int64`` flags segment. A site is
a process group (key ``g<start>x<size>``) or a point-to-point pair
(``p<src>><dst>``). Each slot holds a small self-describing header
(shape + dtype) and the payload; each (site, rank) pair has a *ready*
and a *done* sequence counter in the flags segment. Every exchange is
one *publication*, released chunk by chunk; a whole payload is one
chunk:

* open: take the site's next ``seq`` and write the slot header;
* publish: write chunk ``c``, then store ``ready = seq * 2^20 + c + 1``;
* read: chunk-major — for each chunk, spin until every peer's ready
  counter covers it, then read it through a view shaped by that peer's
  header;
* finish: store ``done = seq``. A publisher may only reuse its slot for
  ``seq`` once every participant's ``done`` reached ``seq - 1``.

Because the program is SPMD, every member of a group issues that
group's operations in the same order, so the per-site sequence numbers
advance in lockstep and the tiny protocol above is a full rendezvous.

The publish-then-flag ordering relies on total-store-order visibility
between the payload write and the flag store (plus the fences CPython
itself executes between the two numpy calls). That holds on x86-64 —
every environment this repository's CI runs — but is not guaranteed by
weakly-ordered ISAs; a port to ARM should add an explicit fence (or a
``multiprocessing`` synchronization primitive) between the two stores.

Numerics
--------

Collectives apply the *same* reduction/slicing formulas as
:mod:`repro.runtime.collectives` (float64 accumulation in rank order),
so every collective is bit-identical to its vectorized counterpart —
the property the ``run_spmd`` ≡ ``run_lowered`` acceptance tests rely
on. A collective consumes either its argument, published whole, or
the chunked publication an overlapped producer opened on the group
(:meth:`SpmdCommunicator.begin_chunked` /
:meth:`SpmdCommunicator.publish_chunks`, §5.3), which releases the
producer's output at the lowering's chunk granularity. Reductions over
the rank axis are element-wise in the data dimensions, so reducing
chunk ``c`` as soon as every rank published it is bit-identical to
reducing the whole stack, while genuinely pipelining the reduce behind
the wire; a whole payload is one chunk, so it is reduced as one stack.
The pairwise AllToAll drains peers in the step order of
:func:`repro.nccl.algorithms.all_to_all_steps`.

Failure handling
----------------

A rank that raises stores a failure marker in the flags segment; every
spin loop polls the marker, so peers blocked mid-collective abort
promptly instead of deadlocking the rendezvous. Both launchers tear
down in a ``finally``: they join every rank (``launch`` terminates
stragglers) and close and unlink both shared-memory segments, so a
failing kernel can never leak ``/dev/shm`` segments.

Usage
-----

The high-level entry point is ``Executor.run_spmd`` (code generation,
tracing, elastic recovery); ``launch`` is the raw engine
underneath. Not a doctest — it spawns one real OS process per rank:

.. code-block:: python

    from repro.cli import _seeded_inputs
    from repro.runtime.executor import Executor
    from repro.workloads.adam import AdamWorkload

    sched = AdamWorkload.build(1024, 4).schedules()['fuse(RS-Adam-AG)']
    inputs = _seeded_inputs(sched.program, seed=0)
    out = Executor().run_spmd(sched, inputs, allow_downcast=True)
    # bit-identical to run_lowered(sched, inputs) — the acceptance
    # property tests/test_spmd.py holds the backend to; pass
    # codegen_target="native" for compiled C kernels, relower= plus
    # a FaultPlan for recovery from dead ranks.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
import uuid
from contextlib import contextmanager
from multiprocessing import connection as _mp_connection
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core import ops
from repro.core.process_group import ProcessGroup
from repro.core.tensor import Tensor
from repro.errors import ExecutionError
from repro.observe.ring import (
    KIND_COMPILE,
    KIND_FAULT,
    KIND_KERNEL,
    KIND_PUBLISH,
    KIND_REDUCE,
    KIND_STALL,
    KIND_WAIT,
    TraceRing,
)
from repro.runtime.collectives import _node_grid, _reduce_stack
from repro.runtime.faults import FaultPlan
from repro.runtime.world import (
    place_inputs,
    rank_invariant,
    replicate,
    slice_of,
    unstack_global,
)

__all__ = [
    "SpmdCommunicator",
    "SpmdError",
    "SpmdPeerAbort",
    "SpmdTimeout",
    "SpmdWorkerError",
    "launch",
    "run_threads",
    "scaled_default_timeout",
]

#: bytes reserved at the start of every slot for the payload header
HEADER_BYTES = 192
#: ready counters encode ``seq * PROGRESS_BASE + chunks_published``
PROGRESS_BASE = 1 << 20
#: records each rank's trace ring holds (``launch(trace_dir=...)``)
TRACE_CAPACITY = 32768
#: error-flag value stored by a failing rank
_ERR_FAILED = 1
#: error-flag value the *parent* stores for a rank whose process died
#: without reporting — peers abort exactly like on a failure, but the
#: message distinguishes "died" from "raised"
_ERR_DEAD = 2
#: spin-wait granularity (seconds) and its escalation ceiling
_SPIN = 5e-5
_SPIN_MAX = 5e-3
#: default per-wait timeout (seconds)
DEFAULT_TIMEOUT = 120.0
#: default soft (escalation) deadline inside a wait: after this many
#: seconds without progress the spin backs off and a stall marker is
#: recorded; the hard ``timeout`` still bounds the wait
DEFAULT_SOFT_TIMEOUT = 2.0
#: exit code of a rank killed by an injected ``die`` fault
_DIE_EXIT_CODE = 86


class SpmdError(ExecutionError):
    """Base error of the SPMD backend."""


class SpmdTimeout(SpmdError):
    """A rendezvous wait exceeded its deadline."""


class SpmdPeerAbort(SpmdError):
    """Another rank failed; this rank aborted its pending waits."""


class SpmdWorkerError(SpmdError):
    """A run failed; ``context`` carries the failing rank's structured
    state — ``{"rank", "op", "site", "seq"}`` — captured at the point
    of failure, so the error is diagnosable from the merged trace
    without parsing the traceback string. ``dead_ranks`` lists ranks
    whose *process* vanished without reporting (killed, ``os._exit``,
    OOM) — the elastic-recovery trigger."""

    def __init__(
        self,
        message: str,
        context: Optional[dict] = None,
        dead_ranks: Optional[Sequence[int]] = None,
    ) -> None:
        super().__init__(message)
        self.context = context or {}
        self.dead_ranks = sorted(dead_ranks or [])


def _group_key(group: ProcessGroup) -> str:
    return f"g{group.start}x{group.size}"


def _p2p_key(src: int, dst: int) -> str:
    return f"p{src}>{dst}"


def _round64(n: int) -> int:
    return (n + 63) // 64 * 64


class SpmdLayout:
    """Deterministic slot layout shared by the parent and every rank.

    ``sites`` maps a site key to ``(participants, slot_bytes, offset)``
    where ``offset`` is the byte offset of the site's rank-0 slot in the
    data segment; rank ``r``'s slot starts at ``offset + r *
    slot_bytes``. Picklable by construction (plain ints/tuples) so the
    spawn context can ship it to every worker.
    """

    def __init__(self, nranks: int) -> None:
        self.nranks = nranks
        self.sites: Dict[str, Tuple[Tuple[int, ...], int, int]] = {}
        self.data_size = 64
        self._pending: Dict[str, Tuple[Tuple[int, ...], int]] = {}

    def add_site(
        self, key: str, participants: Sequence[int], payload_bytes: int
    ) -> None:
        participants = tuple(participants)
        slot = HEADER_BYTES + _round64(max(64, int(payload_bytes))) + 64
        old = self._pending.get(key)
        if old is not None:
            participants = old[0]
            slot = max(old[1], slot)
        self._pending[key] = (participants, slot)

    def freeze(self) -> int:
        """Assign offsets; returns the total data-segment size."""
        offset = 0
        for key in sorted(self._pending):
            participants, slot = self._pending[key]
            self.sites[key] = (participants, slot, offset)
            offset += slot * self.nranks
        self.data_size = max(offset, 64)
        return self.data_size

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    def flags_length(self) -> int:
        # ready+done per (site, rank), then one error flag per rank
        return self.num_sites * self.nranks * 2 + self.nranks


def build_layout(program) -> SpmdLayout:
    """Enumerate the program's communication sites and size their slots.

    One site per process group touched by a collective or cross-rank
    reduction, one per point-to-point (src, dst) pair of every Send, and
    one world-sized site for barriers. Slot sizes cover the largest
    per-rank payload published at that site (collective inputs, chunked
    staging buffers, gathered scalars).
    """
    world_size = program.inputs[0].group.world_size
    layout = SpmdLayout(world_size)
    layout.add_site(
        _group_key(ProcessGroup(0, world_size, world_size)),
        range(world_size),
        64,
    )
    for e in program.operations:
        if isinstance(e, ops.Send):
            src_group = e.inputs[0].group
            dst_group = e.group
            nbytes = e.inputs[0].per_rank_bytes()
            for local in range(src_group.size):
                src = src_group.global_rank(local)
                dst = dst_group.global_rank(local)
                layout.add_site(_p2p_key(src, dst), (src, dst), nbytes)
        elif isinstance(e, ops.CommOp):
            nbytes = max(
                e.inputs[0].per_rank_bytes(), e.per_rank_bytes()
            )
            layout.add_site(_group_key(e.group), e.group.ranks, nbytes)
        elif (
            isinstance(e, (ops.Norm, ops.ReduceTensor)) and e.crosses_ranks
        ):
            layout.add_site(_group_key(e.group), e.group.ranks, 64)
    layout.freeze()
    return layout


def scaled_default_timeout(
    layout: SpmdLayout, wire_s_per_mb: float,
    compile_allowance_s: float = 0.0,
) -> float:
    """The default per-wait deadline, scaled to the simulated wire.

    Publishing a slot of S MiB costs ``wire_s_per_mb * S`` seconds of
    simulated wire sleep; chunked sites republish the payload per chunk
    and a straggler can serialize every rank's wire time behind it, so
    the flat :data:`DEFAULT_TIMEOUT` gains ``4 x wire x largest-site x
    nranks`` of headroom — slow simulated wires must stretch waits, not
    fail them.

    ``compile_allowance_s`` is the native target's one-time
    cold-kernel-cache headroom: on the first run each rank compiles (or
    waits behind a peer's ``flock`` for) the module's C kernels between
    the barrier and its first rendezvous, which the flat deadline would
    misread as a dead peer. Warm-cache runs pass 0.
    """
    base = DEFAULT_TIMEOUT + max(0.0, compile_allowance_s)
    if wire_s_per_mb <= 0.0 or not layout.sites:
        return base
    largest = max(slot for (_, slot, _) in layout.sites.values())
    scale = 4.0 * wire_s_per_mb * (largest / (1 << 20)) * layout.nranks
    return base + scale


class _Publication:
    """One rank's payload on a site, released chunk by chunk.

    ``bounds`` of ``None`` is one chunk covering the whole payload,
    indexed with ``Ellipsis`` so 0-d scalars stay 0-d. A reader with
    nothing to publish (a receiver, a broadcast non-root) holds a
    publication without a ``payload``; it only names the site, the
    sequence number and the chunking it reads.
    """

    def __init__(
        self, key, seq, payload=None, chunk_dim=0, bounds=None
    ) -> None:
        self.key = key
        self.seq = seq
        self.payload = payload
        self.chunk_dim = chunk_dim
        self.bounds = None if bounds is None else tuple(bounds)

    @property
    def whole(self) -> bool:
        return self.bounds is None

    def chunks(self) -> list:
        """The index of every chunk, in release order."""
        if self.bounds is None:
            return [Ellipsis]
        out = []
        for lo, hi in self.bounds:
            sl = [slice(None)] * self.payload.ndim
            sl[self.chunk_dim] = slice(lo, hi)
            out.append(tuple(sl))
        return out


class SpmdCommunicator:
    """One rank's endpoint of the shared-memory rendezvous."""

    def __init__(
        self,
        layout: SpmdLayout,
        rank: int,
        data: SharedMemory,
        flags: SharedMemory,
        wire_s_per_mb: float = 0.0,
        timeout: float = DEFAULT_TIMEOUT,
        owns_segments: bool = False,
        trace_path: Optional[str] = None,
        soft_timeout: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.layout = layout
        self.rank = rank
        self.nranks = layout.nranks
        self.wire_s_per_mb = float(wire_s_per_mb)
        self.timeout = float(timeout)
        self.soft_timeout = min(
            self.timeout,
            DEFAULT_SOFT_TIMEOUT if soft_timeout is None
            else float(soft_timeout),
        )
        self._data = data
        self._flags_shm = flags
        self._owns = owns_segments
        self._flags = np.ndarray(
            (layout.flags_length(),), dtype=np.int64, buffer=flags.buf
        )
        self._site_order = sorted(layout.sites)
        self._site_idx = {k: i for i, k in enumerate(self._site_order)}
        self._seq: Dict[str, int] = {}
        #: chunked publications opened by ``begin_chunked``, by site
        self._pending: Dict[str, _Publication] = {}
        self._err_off = layout.num_sites * layout.nranks * 2
        self._closed = False
        # observability: the per-rank trace ring plus the current
        # operation context (kept even without a ring — it is the
        # structured context attached to propagated worker errors)
        self._ring: Optional[TraceRing] = (
            TraceRing(trace_path) if trace_path else None
        )
        self._op = ""
        self._site = ""
        self._site_seq = 0
        self._streams: List["_Stream"] = []
        # fault injection: the plan's per-rank view (None when inert);
        # armed events are recorded up front so a post-mortem trace
        # shows what was injected even if the rank never reaches it
        self._faults = faults.for_rank(rank) if faults is not None else None
        if self._faults is not None and self._ring is not None:
            now = time.monotonic_ns()
            for desc in self._faults.armed():
                self._ring.append(KIND_FAULT, now, 0, name=f"armed:{desc}")

    # -- attach (worker side) -------------------------------------------

    @classmethod
    def attach(
        cls,
        layout: SpmdLayout,
        rank: int,
        data_name: str,
        flags_name: str,
        wire_s_per_mb: float = 0.0,
        timeout: float = DEFAULT_TIMEOUT,
        trace_path: Optional[str] = None,
        soft_timeout: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
    ) -> "SpmdCommunicator":
        data = SharedMemory(name=data_name)
        flags = SharedMemory(name=flags_name)
        # NOTE: attaching does not register with the resource tracker on
        # supported Pythons (3.9+), and spawned workers share the
        # parent's tracker — the parent's unlink() is the only
        # deregistration, so no double-unlink warnings.
        return cls(
            layout, rank, data, flags, wire_s_per_mb, timeout,
            trace_path=trace_path, soft_timeout=soft_timeout,
            faults=faults,
        )

    # -- flags ----------------------------------------------------------

    def _ready_idx(self, key: str, rank: int) -> int:
        return (self._site_idx[key] * self.nranks + rank) * 2

    def _ready(self, key: str, rank: int) -> int:
        return int(self._flags[self._ready_idx(key, rank)])

    def _set_ready(self, key: str, rank: int, value: int) -> None:
        self._flags[self._ready_idx(key, rank)] = value

    def _done(self, key: str, rank: int) -> int:
        return int(self._flags[self._ready_idx(key, rank) + 1])

    def _set_done(self, key: str, rank: int, value: int) -> None:
        self._flags[self._ready_idx(key, rank) + 1] = value

    def signal_error(self, kind: int = _ERR_FAILED) -> None:
        """Mark this rank failed so peers abort their pending waits."""
        if not self._closed:
            self._flags[self._err_off + self.rank] = kind

    def _check_peers(self) -> None:
        errs = self._flags[self._err_off : self._err_off + self.nranks]
        if errs.any():
            failed = [
                r for r in range(self.nranks)
                if errs[r] and r != self.rank
            ]
            if failed:
                dead = [r for r in failed if int(errs[r]) == _ERR_DEAD]
                extra = f" (rank(s) {dead} died)" if dead else ""
                raise SpmdPeerAbort(
                    f"rank {self.rank}: aborting, peer rank(s) "
                    f"{failed} failed{extra}"
                )

    def _spin(self, cond, what: str, site: str = "") -> None:
        """Wait for ``cond`` with escalation instead of one flat wall.

        Under :attr:`soft_timeout` the loop spins at fine granularity;
        each soft deadline that passes without progress is a *soft
        retry* — the spin interval backs off (doubling up to
        ``_SPIN_MAX``) and a stall marker is recorded, so transient
        hiccups (an injected ``stall_publish``, a delayed chunk
        redelivery, a straggler) are ridden out visibly. Only the hard
        :attr:`timeout` raises :class:`SpmdTimeout`, after signalling
        the error flag so every peer aborts its own waits (the
        peer-abort broadcast).
        """
        if cond():
            return
        t0 = time.monotonic_ns() if self._ring is not None else 0
        start = time.monotonic()
        deadline = start + self.timeout
        next_soft = start + self.soft_timeout
        interval = _SPIN
        retries = 0
        try:
            while not cond():
                self._check_peers()
                now = time.monotonic()
                if now > deadline:
                    self.signal_error(_ERR_FAILED)
                    raise SpmdTimeout(
                        f"rank {self.rank}: timed out after "
                        f"{self.timeout:.0f}s ({retries} soft retries of "
                        f"{self.soft_timeout:.2g}s) waiting for {what}"
                    )
                if now >= next_soft:
                    retries += 1
                    interval = min(interval * 2.0, _SPIN_MAX)
                    next_soft = now + self.soft_timeout
                    if self._ring is not None:
                        self._ring.append(
                            KIND_STALL, time.monotonic_ns(), 0,
                            seq=retries, site=site or self._site,
                            name=what,
                        )
                time.sleep(interval)
        finally:
            # recorded even when the wait dies (timeout / peer abort):
            # the stall is exactly what the merged trace must show
            if self._ring is not None:
                self._ring.append(
                    KIND_WAIT, t0, time.monotonic_ns() - t0,
                    seq=self._site_seq, site=site or self._site, name=what,
                )

    # -- observability ----------------------------------------------------

    def _trace(
        self, kind: int, t0: int, *, nbytes: int = 0, seq: int = 0,
        site: str = "", name: str = "",
    ) -> None:
        if self._ring is not None:
            self._ring.append(
                kind, t0, time.monotonic_ns() - t0,
                nbytes=nbytes, seq=seq, site=site, name=name,
            )

    def kernel_span(self, name: str):
        """Scope one generated-kernel call: maintains the current-op
        context (attached to worker errors) and, when tracing, records
        the call as a kernel span."""
        return _KernelSpan(self, name)

    def record_compile(
        self, name: str, seconds: float, status: str
    ) -> None:
        """Record a native kernel-cache outcome as an instant event.

        Called by :func:`repro.core.codegen.native.load_kernels` when
        the communicator is passed as its observer; Perfetto timelines
        then show cold-cache compile stalls (``compile:<key>``) next to
        the kernels they delayed. ``status`` is ``"compile"``, ``"hit"``
        or ``"recompile"``; ``dur`` carries the elapsed time so the
        merged metrics can aggregate per-rank compile seconds.
        """
        if self._ring is not None:
            self._ring.append(
                KIND_COMPILE,
                time.monotonic_ns(),
                int(seconds * 1e9),
                name=f"{status}:{name}",
            )

    def error_context(self) -> Dict[str, object]:
        """The structured where-was-I snapshot for failure reports."""
        return {
            "rank": self.rank,
            "op": self._op,
            "site": self._site,
            "seq": self._site_seq,
        }

    # -- slots -----------------------------------------------------------

    def _slot_bounds(self, key: str, rank: int) -> Tuple[int, int]:
        try:
            _, slot, offset = self.layout.sites[key]
        except KeyError:
            raise SpmdError(
                f"rank {self.rank}: no communication site {key!r}; the "
                f"launcher sized sites from the program — this op was "
                f"not part of it"
            ) from None
        base = offset + rank * slot
        return base, slot

    def _write_header(self, key: str, arr: np.ndarray) -> None:
        base, slot = self._slot_bounds(key, self.rank)
        if HEADER_BYTES + arr.nbytes > slot:
            raise SpmdError(
                f"rank {self.rank}: payload of {arr.nbytes} B exceeds the "
                f"{slot} B slot of site {key!r}"
            )
        if arr.ndim > 8:
            raise SpmdError(f"payloads are limited to 8 dims, got {arr.ndim}")
        header = np.ndarray((10,), dtype=np.int64, buffer=self._data.buf,
                            offset=base)
        header[0] = arr.nbytes
        header[1] = arr.ndim
        for i in range(8):
            header[2 + i] = arr.shape[i] if i < arr.ndim else 0
        dt = arr.dtype.str.encode("ascii")
        self._data.buf[base + 80 : base + 80 + len(dt)] = dt
        self._data.buf[base + 80 + len(dt)] = 0
        del header

    def _payload_view(
        self, key: str, rank: int, shape: Tuple[int, ...], dtype
    ) -> np.ndarray:
        """A writable ndarray view of a slot's payload region.

        Callers must drop the view before :meth:`close` (views pin the
        shared-memory buffer).
        """
        base, _ = self._slot_bounds(key, rank)
        return np.ndarray(
            shape, dtype=dtype, buffer=self._data.buf,
            offset=base + HEADER_BYTES,
        )

    def _peer_view(self, key: str, rank: int) -> np.ndarray:
        """A view of a peer's payload, shaped by its slot header."""
        base, _ = self._slot_bounds(key, rank)
        header = np.ndarray((10,), dtype=np.int64, buffer=self._data.buf,
                            offset=base)
        ndim = int(header[1])
        shape = tuple(int(header[2 + i]) for i in range(ndim))
        del header
        raw = bytes(self._data.buf[base + 80 : base + 112])
        dtype = np.dtype(raw.split(b"\0", 1)[0].decode("ascii"))
        return self._payload_view(key, rank, shape, dtype)

    def _wire_sleep(self, nbytes: int) -> None:
        if self.wire_s_per_mb > 0.0 and nbytes > 0:
            factor = (
                self._faults.wire_factor if self._faults is not None else 1.0
            )
            time.sleep(self.wire_s_per_mb * factor * nbytes / (1 << 20))

    # -- fault injection --------------------------------------------------

    def _fault_publish(self, site: str, seq: int) -> None:
        """One publish-side injection point: stall, then possibly die.

        Called after the payload is written but before the ready flag —
        a stall delays visibility (peers soft-retry through it), and a
        kill leaves a written-but-unannounced payload behind, exactly
        like a process dying mid-transfer.
        """
        f = self._faults
        if f is None:
            return
        delay = f.publish_delay(site, seq)
        if delay > 0.0:
            self._trace(
                KIND_FAULT, time.monotonic_ns(), seq=seq, site=site,
                name=f"stall_publish {delay:g}s",
            )
            time.sleep(delay)
        if f.should_die(site):
            self._die(site, seq)

    def _die(self, site: str, seq: int) -> None:
        """Injected hard death: no error flag, no parent message.

        The fault marker is flushed to the ring first (the page cache
        keeps it through process exit), then the process vanishes —
        detection is entirely the parent's and the peers' problem,
        which is the point.
        """
        if self._ring is not None:
            self._ring.append(
                KIND_FAULT, time.monotonic_ns(), 0, seq=seq, site=site,
                name="die",
            )
            self._ring.close()
        os._exit(_DIE_EXIT_CODE)

    # -- rendezvous core --------------------------------------------------
    #
    # Every exchange is one publication: ``_open`` takes the site's next
    # sequence number, ``publish_chunks`` releases the payload chunk by
    # chunk (a whole payload is one chunk), ``_read`` drains peers
    # chunk-major, and ``_finish`` lets the site's slots be reused.

    def _begin(self, key: str, participants: Sequence[int]) -> int:
        seq = self._seq.get(key, 0) + 1
        self._seq[key] = seq
        self._site = key
        self._site_seq = seq
        if seq > 1:
            # slot reuse: everyone must have finished the previous op
            self._spin(
                lambda: all(
                    self._done(key, p) >= seq - 1 for p in participants
                ),
                f"site {key} seq {seq - 1} completion",
            )
        return seq

    def _open(
        self, key: str, participants: Sequence[int], payload=None,
        chunk_dim: int = 0, bounds=None,
    ) -> _Publication:
        """Take the site's next sequence number; with a ``payload``,
        write this rank's slot header for it."""
        seq = self._begin(key, participants)
        if payload is not None:
            payload = np.asarray(payload)
            if not payload.flags["C_CONTIGUOUS"]:
                # (ascontiguousarray unconditionally would promote 0-d
                # scalars to shape (1,) and break the payload round-trip)
                payload = np.ascontiguousarray(payload)
            self._write_header(key, payload)
        return _Publication(key, seq, payload, chunk_dim, bounds)

    def _publication(
        self, group: ProcessGroup, x, publish: bool = True
    ) -> _Publication:
        """The publication a group collective consumes: the chunked one
        the generated orchestrator opened on ``group``, if any, else
        ``x`` published whole now (``publish=False``: this rank only
        reads)."""
        key = _group_key(group)
        pub = self._pending.pop(key, None)
        if pub is None:
            pub = self._open(key, group.ranks, x if publish else None)
            if publish:
                self.publish_chunks(pub)
        return pub

    def _read(self, pub: _Publication, ranks: Sequence[int], take) -> None:
        """Drain ``ranks`` chunk-major: for every chunk ``c`` in order,
        wait until each rank published it, then ``take(j, index, view)``
        with ``j`` the position in ``ranks`` and ``view`` that peer's
        payload."""
        views: List[Optional[np.ndarray]] = [None] * len(ranks)
        try:
            for c, sl in enumerate(pub.chunks()):
                want = pub.seq * PROGRESS_BASE + c + 1
                for j, r in enumerate(ranks):
                    self._spin(
                        lambda: self._ready(pub.key, r) >= want,
                        f"chunk {c} from rank {r} at site {pub.key}",
                        site=pub.key,
                    )
                    if views[j] is None:
                        views[j] = self._peer_view(pub.key, r)
                    take(j, sl, views[j])
        finally:
            del views

    def _rows(
        self, pub: _Publication, ranks: Sequence[int]
    ) -> List[np.ndarray]:
        """A copy of every rank's payload, in ``ranks`` order."""
        rows: List[Optional[np.ndarray]] = [None] * len(ranks)

        def take(j, sl, view):
            if rows[j] is None:
                rows[j] = np.empty_like(view)
            rows[j][sl] = view[sl]

        self._read(pub, ranks, take)
        self._finish(pub)
        return rows

    def _reduced(
        self, pub: _Publication, group: ProcessGroup, op: str
    ) -> np.ndarray:
        """The float64 rank-order reduction of the group's payloads,
        chunk ``c`` reduced as soon as every rank published it (see
        Numerics in the module docstring)."""
        t0 = time.monotonic_ns() if self._ring is not None else 0
        total = np.empty(pub.payload.shape, dtype=np.float64)
        parts: List[Optional[np.ndarray]] = [None] * group.size

        def take(j, sl, view):
            parts[j] = view[sl]
            if j == group.size - 1:
                total[sl] = _reduce_stack(np.stack(parts, axis=0), op)

        try:
            self._read(pub, group.ranks, take)
        finally:
            del parts
        self._finish(pub)
        self._trace(
            KIND_REDUCE, t0, seq=pub.seq, site=pub.key,
            name=self._op or op,
        )
        return total

    def _finish(self, pub: _Publication) -> None:
        self._set_done(pub.key, self.rank, pub.seq)

    # -- collectives ------------------------------------------------------
    #
    # Each method mirrors the corresponding ``*_vectorized`` formula of
    # :mod:`repro.runtime.collectives` on a contiguous rank-major stack,
    # so results are bit-identical to the vectorized backend.

    def allreduce(self, x, group: ProcessGroup, op: str, dtype) -> np.ndarray:
        """Every rank receives the reduction of all ranks' values."""
        pub = self._publication(group, x)
        return self._reduced(pub, group, op).astype(dtype)

    def reducescatter(
        self, x, group: ProcessGroup, op: str, dim: int, dtype,
        context: str = "",
    ) -> np.ndarray:
        """This rank receives its slice of the reduction."""
        pub = self._publication(group, x)
        total = self._reduced(pub, group, op).astype(dtype)
        i = group.local_rank(self.rank)
        return slice_of(total, dim, i, group.size, context=context).copy()

    def allgather(self, x, group: ProcessGroup, dim: int) -> np.ndarray:
        """Concatenation of all ranks' slices, in rank order."""
        rows = self._rows(self._publication(group, x), group.ranks)
        return np.concatenate(rows, axis=dim)

    def alltoall(
        self, x, group: ProcessGroup, dim: int, context: str = ""
    ) -> np.ndarray:
        """This rank receives chunk ``i`` of every rank, in source order.

        Peers are drained in the pairwise step order of
        :func:`repro.nccl.algorithms.all_to_all_steps` (in step ``t``
        rank ``r`` receives from ``(r - t - 1) mod n``); the result is
        assembled in source-rank order, matching the rank-major
        :func:`repro.runtime.collectives.alltoall_vectorized`.
        """
        n = group.size
        i = group.local_rank(self.rank)
        order = [i] + [(i - t - 1) % n for t in range(n - 1)]
        drained = self._rows(
            self._publication(group, x),
            [group.global_rank(j) for j in order],
        )
        rows = dict(zip(order, drained))
        parts_out = [
            slice_of(rows[s], dim, i, n, context=context) for s in range(n)
        ]
        return np.concatenate(parts_out, axis=dim)

    def alltoall_intra(
        self, x, group: ProcessGroup, dim: int, node_size: int,
        context: str = "",
    ) -> np.ndarray:
        """Intra-node phase of the hierarchical AllToAll (this rank)."""
        k, m = _node_grid(group, node_size)
        n = group.size
        rows = self._rows(self._publication(group, x), group.ranks)
        local = group.local_rank(self.rank)
        a, q = divmod(local, m)
        parts = [
            slice_of(
                rows[a * m + p], dim, b * m + q, n, context=context
            )
            for b in range(k)
            for p in range(m)
        ]
        return np.concatenate(parts, axis=dim)

    def alltoall_inter(
        self, x, group: ProcessGroup, dim: int, node_size: int,
        context: str = "",
    ) -> np.ndarray:
        """Inter-node phase of the hierarchical AllToAll (this rank)."""
        k, m = _node_grid(group, node_size)
        n = group.size
        rows = self._rows(self._publication(group, x), group.ranks)
        local = group.local_rank(self.rank)
        b, q = divmod(local, m)
        parts = [
            slice_of(
                rows[a * m + q], dim, b * m + p, n, context=context
            )
            for a in range(k)
            for p in range(m)
        ]
        return np.concatenate(parts, axis=dim)

    def reduce(
        self, x, group: ProcessGroup, op: str, root: int, dtype
    ) -> np.ndarray:
        """Root receives the reduction; non-roots keep their input
        (NCCL leaves non-root receive buffers unmodified).

        Only the root reads (and reduces) the published payloads; every
        rank still contributes one, and the sequence counters keep the
        rendezvous symmetric.
        """
        pub = self._publication(group, x)
        if self.rank == group.global_rank(root):
            return self._reduced(pub, group, op).astype(dtype)
        self._finish(pub)
        return np.asarray(x).astype(dtype)

    def broadcast(self, x, group: ProcessGroup, root: int) -> np.ndarray:
        """Every rank receives the root rank's value.

        Only the root publishes a payload — one wire transfer, not one
        per rank — while the sequence counters still rendezvous the
        whole group.
        """
        root_rank = group.global_rank(root)
        pub = self._publication(group, x, publish=self.rank == root_rank)
        return self._rows(pub, [root_rank])[0]

    def exchange_scalars(self, value, group: ProcessGroup) -> List[np.float64]:
        """Gather one float64 scalar per rank, in rank order (§5.2:
        the AllReduce of partial reductions)."""
        pub = self._publication(group, np.asarray(value, dtype=np.float64))
        return [np.float64(r) for r in self._rows(pub, group.ranks)]

    def barrier(self, group: Optional[ProcessGroup] = None) -> None:
        if group is None:
            group = ProcessGroup(0, self.nranks, self.nranks)
        pub = self._publication(group, np.zeros((1,), dtype=np.int64))
        self._rows(pub, group.ranks)

    # -- P2P --------------------------------------------------------------

    def send(self, x, dst: int) -> None:
        """Send this rank's value to global rank ``dst``."""
        pub = self._open(_p2p_key(self.rank, dst), (self.rank, dst), x)
        self.publish_chunks(pub)
        self._finish(pub)

    def recv(self, src: int) -> np.ndarray:
        """Receive the value global rank ``src`` sent to this rank."""
        pub = self._open(_p2p_key(src, self.rank), (src, self.rank))
        return self._rows(pub, [src])[0]

    # -- chunked publication (overlap, §5.3) ------------------------------

    def begin_chunked(
        self,
        group: ProcessGroup,
        staging: np.ndarray,
        chunk_dim: int,
        bounds: Sequence[Tuple[int, int]],
    ) -> _Publication:
        """Open a chunked publication of ``staging`` on the group site.

        The next collective this rank issues on ``group`` consumes it
        chunk-by-chunk instead of publishing its own argument whole.

        Chunks are released in *index order* on every rank. The real
        backend's ring collective consumes rank-rotated chunks (rank
        ``i`` starts at chunk ``i``, Figure 9) because the reduction
        travels around the ring; this communicator's collectives reduce
        in rank order (the bitwise contract with the lowered oracle), so
        chunk ``c`` is complete once every rank published its ``c``-th
        release — under rotation that only happens at the final step for
        *every* chunk, which would serialize the pipeline, while index
        order completes chunk ``c`` at step ``c`` and genuinely overlaps
        the consumer's reduction with the remaining chunks' wire time.
        """
        key = _group_key(group)
        pub = self._open(key, group.ranks, staging, chunk_dim, bounds)
        self._pending[key] = pub
        return pub

    def publish_chunks(
        self, pub: _Publication, out: Optional[np.ndarray] = None
    ) -> None:
        """Release a publication's chunks, one wire transfer per chunk.

        ``out``, when given, receives each chunk as it is published —
        the consumer-visible buffer of the lowered ``publish`` mode.
        Injected chunk drops apply to chunked publications only.
        """
        payload = pub.payload
        chunks = pub.chunks()
        view = self._payload_view(
            pub.key, self.rank, payload.shape, payload.dtype
        )
        # an injected drop_chunk withholds the ready bump: the payload
        # is written, but visibility is redelivered later (with the next
        # chunk's bump, or after the drop's redeliver delay for the last
        # chunk) — consumers soft-retry through the gap
        redeliver: Optional[float] = None
        try:
            for c, sl in enumerate(chunks):
                t0 = time.monotonic_ns() if self._ring is not None else 0
                view[sl] = payload[sl]
                if out is not None:
                    out[sl] = payload[sl]
                nbytes = payload[sl].nbytes
                # a whole publish is traced and stalled by its site
                # sequence number, a chunk by its index
                tag = pub.seq if pub.whole else c
                self._wire_sleep(nbytes)
                self._fault_publish(pub.key, tag)
                if self._faults is not None and not pub.whole:
                    drop = self._faults.drop(pub.key, c)
                    if drop is not None:
                        self._trace(
                            KIND_FAULT, time.monotonic_ns(), seq=c,
                            site=pub.key, name=f"drop_chunk {c}",
                        )
                        redeliver = drop.redeliver
                        continue
                if redeliver is not None:
                    time.sleep(redeliver)
                    self._trace(
                        KIND_FAULT, time.monotonic_ns(), seq=c,
                        site=pub.key, name="redeliver",
                    )
                    redeliver = None
                self._set_ready(
                    pub.key, self.rank, pub.seq * PROGRESS_BASE + c + 1
                )
                self._trace(
                    KIND_PUBLISH, t0, nbytes=nbytes, seq=tag, site=pub.key,
                    name=(self._op or pub.key) if pub.whole else f"chunk{c}",
                )
            if redeliver is not None:
                # the dropped chunk was the last one: redeliver it
                time.sleep(redeliver)
                self._trace(
                    KIND_FAULT, time.monotonic_ns(),
                    seq=len(chunks) - 1, site=pub.key, name="redeliver",
                )
                self._set_ready(
                    pub.key, self.rank,
                    pub.seq * PROGRESS_BASE + len(chunks),
                )
        finally:
            del view

    # -- streams ----------------------------------------------------------

    def start_stream(self, fn) -> "_Stream":
        """Run ``fn`` on a worker thread — one per GPU stream, giving
        overlap groups actual intra-rank concurrency."""
        s = _Stream(fn, self)
        self._streams.append(s)
        return s

    def join_streams(self, *streams: "_Stream") -> None:
        for s in streams:
            s.join()

    # -- teardown ---------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # every started stream must be joined by now (the generated
        # orchestrators join in a finally); any thread still alive gets
        # a short grace join and is tagged in the trace — a leaked
        # producer is a teardown bug the post-mortem must show
        for s in self._streams:
            if s.alive():
                s.wait(1.0)
                if s.alive() and self._ring is not None:
                    self._ring.append(
                        KIND_FAULT, time.monotonic_ns(), 0,
                        name="stream-leak",
                    )
        self._streams = []
        self._flags = None
        if self._ring is not None:
            self._ring.close()
            self._ring = None
        for shm in (self._data, self._flags_shm):
            try:
                shm.close()
            except BufferError:  # pragma: no cover - view still alive
                pass


class _KernelSpan:
    """Context manager scoping one generated-kernel call.

    Maintains the communicator's current-op name (nested in the
    overlap case: a producer stream publishes while the consumer kernel
    runs) and records the call as a kernel span when tracing.
    """

    def __init__(self, comm: SpmdCommunicator, name: str) -> None:
        self._comm = comm
        self._name = name
        self._prev = ""
        self._t0 = 0

    def __enter__(self) -> "_KernelSpan":
        comm = self._comm
        self._prev = comm._op
        comm._op = self._name
        faults = comm._faults
        if comm._ring is not None or (
            faults is not None and faults.kernel_factor > 1.0
        ):
            self._t0 = time.monotonic_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        comm = self._comm
        faults = comm._faults
        if (
            faults is not None
            and faults.kernel_factor > 1.0
            and self._t0
            and exc_type is None
        ):
            # straggler: stretch the kernel's elapsed time by the factor
            elapsed = (time.monotonic_ns() - self._t0) / 1e9
            time.sleep(elapsed * (faults.kernel_factor - 1.0))
        comm._trace(
            KIND_KERNEL, self._t0, seq=comm._site_seq, site=comm._site,
            name=self._name,
        )
        if exc_type is None:
            comm._op = self._prev
        # on failure the op name is left in place so error_context()
        # reports the kernel that raised


class _Stream(object):
    """A worker thread standing in for one GPU stream."""

    def __init__(self, fn, comm: SpmdCommunicator) -> None:
        self._exc: Optional[BaseException] = None
        self._comm = comm

        def run():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - reraised at join
                self._exc = exc
                comm.signal_error(_ERR_FAILED)

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()

    def alive(self) -> bool:
        return self._thread.is_alive()

    def wait(self, timeout: float) -> None:
        """Join without re-raising (teardown-side best effort)."""
        self._thread.join(timeout)

    def join(self) -> None:
        self._thread.join(self._comm.timeout)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise SpmdTimeout("stream thread did not finish")
        if self._exc is not None:
            raise self._exc


# ---------------------------------------------------------------------------
# Worker entry point (must be importable for the spawn context).
# ---------------------------------------------------------------------------


def _run_rank(rank: int, attach, module, inputs: Dict[str, np.ndarray]):
    """One rank's whole run, shared by the process and thread launchers.

    ``attach()`` returns this rank's :class:`SpmdCommunicator` and
    ``module()`` the compiled module code. Returns the report the
    launcher classifies — ``("ok", outputs, states, seconds)``,
    ``("aborted", message)`` or ``("error", summary, traceback,
    context)`` — and always closes the communicator.
    """
    comm = None
    try:
        comm = attach()
        namespace: Dict[str, object] = {}
        exec(module(), namespace)
        ensure = namespace.get("_ensure_native")
        if ensure is not None:
            # compile/load native kernels before the timing barrier so
            # the one-time cc invocation and dlopen+BLAS bind count as
            # startup (like spawn), not as execution time
            ensure(comm)
        # synchronize before timing so launch stagger (rank 0 idling in
        # its first collective until the last rank is up) does not
        # count as execution time
        comm.barrier()
        t0 = time.perf_counter()
        outputs, states = namespace["run_rank"](comm, inputs)
        return ("ok", outputs, states, time.perf_counter() - t0)
    except SpmdPeerAbort as exc:
        return ("aborted", str(exc))
    except BaseException as exc:  # noqa: BLE001 - reported to the launcher
        if comm is not None:
            comm.signal_error(_ERR_FAILED)
            context = comm.error_context()
        else:
            context = {"rank": rank, "op": "", "site": "", "seq": 0}
        summary = f"rank {rank}: {type(exc).__name__}: {exc}"
        if context.get("op") or context.get("site"):
            summary += (
                f" (op {context.get('op') or '?'!r}, "
                f"site {context.get('site') or '?'!r}, "
                f"seq {context.get('seq', 0)})"
            )
        return ("error", summary, traceback.format_exc(), context)
    finally:
        if comm is not None:
            comm.close()


def _rank_main(
    rank: int,
    source,
    layout: SpmdLayout,
    data_name: str,
    flags_name: str,
    inputs: Dict[str, np.ndarray],
    wire_s_per_mb: float,
    timeout: float,
    soft_timeout: Optional[float],
    fault_plan: Optional[FaultPlan],
    trace_path: Optional[str],
    conn,
) -> None:
    try:
        conn.send(_run_rank(
            rank,
            lambda: SpmdCommunicator.attach(
                layout, rank, data_name, flags_name, wire_s_per_mb,
                timeout, trace_path=trace_path, soft_timeout=soft_timeout,
                faults=fault_plan,
            ),
            lambda: compile(source, f"<spmd rank {rank}>", "exec"),
            inputs,
        ))
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Parent-side launcher.
# ---------------------------------------------------------------------------


def _place_per_rank(
    program, inputs: Mapping[str, np.ndarray], allow_downcast
) -> List[Dict[str, np.ndarray]]:
    """Scatter global inputs into per-rank shards.

    Each shard is a row of the tensor's stacked placement. A replicated
    stack is a stride-0 view, so its rows are copied: ranks running as
    threads must never share an input buffer.
    """
    world = place_inputs(program, inputs, allow_downcast)
    shards: List[Dict[str, np.ndarray]] = [
        {} for _ in range(program.inputs[0].group.world_size)
    ]
    for t in program.inputs:
        stacked = world.state(t.name)
        shared = rank_invariant(stacked)
        for i, r in enumerate(t.group):
            row = stacked[i, ...]  # an ndarray even for 0-d scalars
            shards[r][t.name] = row.copy() if shared else row
    return shards


def _assemble(e, rows: List[np.ndarray]) -> np.ndarray:
    """The global value of ``e`` from its group's per-rank rows."""
    if e.layout.is_replicated:
        stacked = replicate(rows[0], len(rows))
    else:
        stacked = np.stack(rows, axis=0)
    return unstack_global(stacked, e.layout, e.shape)


@contextmanager
def _segments(layout: SpmdLayout):
    """Create a run's zeroed data + flags segments; always unlinked."""
    uid = uuid.uuid4().hex[:8]
    made: List[SharedMemory] = []
    try:
        made.append(SharedMemory(
            create=True, size=layout.data_size, name=f"spmd_{uid}_d"
        ))
        made.append(SharedMemory(
            create=True, size=layout.flags_length() * 8,
            name=f"spmd_{uid}_f",
        ))
        np.ndarray(
            (layout.flags_length(),), dtype=np.int64, buffer=made[1].buf
        ).fill(0)
        yield made[0], made[1]
    finally:
        for shm in made:
            try:
                shm.close()
            finally:
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass


class _Reports:
    """The rank reports of one run, classified to its root cause.

    A dead process (4) outranks a raised error (3) outranks a silent
    timeout (2) outranks a peer abort (1) — survivors' aborts are
    symptoms, never the reported cause.
    """

    def __init__(self) -> None:
        self.results: Dict[int, tuple] = {}
        self.dead_ranks: List[int] = []
        self._sev = 0
        self._failure: Tuple[str, str, Optional[dict]] = ("", "", None)

    def fail(
        self, sev: int, msg: str, detail: str = "",
        context: Optional[dict] = None,
    ) -> None:
        if sev > self._sev:
            self._sev = sev
            self._failure = (msg, detail, context)

    def take(self, rank: int, report: tuple) -> None:
        """Record one :func:`_run_rank` report."""
        if report[0] == "ok":
            self.results[rank] = report[1:]
        elif report[0] == "error":
            self.fail(3, report[1], report[2], report[3])
        else:  # aborted by a peer's failure
            self.fail(1, report[1])

    def result(self, program):
        """Raise the root-cause failure, or reassemble the run's
        per-rank outputs and states into a ``ProgramResult``."""
        from repro.runtime.executor import ProgramResult

        if self._sev:
            msg, detail, context = self._failure
            raise SpmdWorkerError(
                f"SPMD run failed: {msg}" + (f"\n{detail}" if detail else ""),
                context=context,
                dead_ranks=self.dead_ranks,
            )
        results = self.results
        outputs = {}
        for o in program.outputs:
            outputs[o.name] = _assemble(
                o, [results[r][0][o.name] for r in o.group]
            )
        states = {}
        for t in program.inputs:
            if not isinstance(t, Tensor):
                continue
            states[t.name] = _assemble(
                t, [results[r][1][t.name] for r in t.group]
            )
        result = ProgramResult(outputs, states)
        # per-rank wall-clock of the rank bodies (barrier-synchronized,
        # so launch time is excluded); the slowest rank is the step time
        result.spmd_rank_seconds = {r: results[r][2] for r in results}
        result.spmd_seconds = max(results[r][2] for r in results)
        return result


def run_threads(
    source: str,
    program,
    inputs: Mapping[str, np.ndarray],
    *,
    compile_allowance_s: float = 0.0,
):
    """Run a generated SPMD module in this process, one thread per rank.

    Every rank thread attaches its own :class:`SpmdCommunicator` to one
    shared-memory segment pair and runs the same body as a spawned rank
    (:func:`_run_rank`), so results are bit-identical to
    :func:`launch`'s. Inputs are cast to the program's dtypes silently.
    A rank that raises flags its failure, its peers abort their pending
    waits, and the run raises :class:`SpmdWorkerError`; every rank
    thread is joined and both segments are unlinked on the way out.
    """
    world_size = program.inputs[0].group.world_size
    shards = _place_per_rank(program, inputs, allow_downcast=True)
    layout = build_layout(program)
    timeout = scaled_default_timeout(layout, 0.0, compile_allowance_s)
    code = compile(source, f"<spmd threads:{program.name}>", "exec")
    raw: Dict[int, tuple] = {}
    with _segments(layout) as (data, flags):

        def rank_thread(r: int) -> None:
            raw[r] = _run_rank(
                r,
                lambda: SpmdCommunicator.attach(
                    layout, r, data.name, flags.name, timeout=timeout
                ),
                lambda: code,
                shards[r],
            )

        threads = [
            threading.Thread(
                target=rank_thread, args=(r,), name=f"spmd-rank{r}",
                daemon=True,
            )
            for r in range(world_size)
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + timeout + 60.0
        for t in threads:
            t.join(max(0.0, deadline - time.monotonic()))
    reports = _Reports()
    for r in range(world_size):
        if r in raw:
            reports.take(r, raw[r])
        else:
            reports.fail(2, f"rank {r} did not report within {timeout:.0f}s")
    return reports.result(program)


def launch(
    source: str,
    program,
    inputs: Mapping[str, np.ndarray],
    *,
    allow_downcast: Optional[bool] = None,
    wire_s_per_mb: float = 0.0,
    timeout: Optional[float] = None,
    soft_timeout: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    trace_dir: Optional[str] = None,
    compile_allowance_s: float = 0.0,
):
    """Run a generated SPMD module as one process per rank.

    Spawns ``world_size`` processes, hands each the generated module
    ``source`` and its placed input shard, executes ``run_rank`` on
    every rank over a shared-memory communicator, gathers per-rank
    outputs/states and reassembles them into a
    :class:`~repro.runtime.executor.ProgramResult`. Teardown is
    exception-safe: workers are joined (terminated on timeout) and both
    shared-memory segments are closed and unlinked in a ``finally`` even
    when a rank raises mid-collective.

    ``timeout`` bounds every rendezvous wait (default:
    :func:`scaled_default_timeout`, so slow simulated wires stretch the
    deadline instead of false-timing-out); ``soft_timeout`` is the
    escalation (soft-retry) deadline inside each wait;
    ``compile_allowance_s`` widens the deadline once for a cold native
    kernel cache. ``fault_plan`` injects the given
    :class:`~repro.runtime.faults.FaultPlan` into every rank. The
    parent watches worker *process sentinels* alongside
    their result pipes: a rank that dies without reporting (killed, an
    injected ``die``, OOM) is detected promptly, its error flag is
    broadcast on its behalf so surviving ranks abort their in-flight
    collectives with :class:`SpmdPeerAbort` rather than spinning to
    their own timeouts, and the failure is raised as a
    :class:`SpmdWorkerError` with ``dead_ranks`` populated — the
    elastic-recovery trigger.

    ``trace_dir``, when given, receives one pre-created
    ``rank<N>.ring`` trace file per rank (see
    :mod:`repro.observe.ring`); every rank records its
    publish/wait/reduce/kernel spans there. The files are ordinary
    mapped files owned by the caller — they survive faulty-rank
    teardown and are *not* removed here, so the caller can merge them
    whether or not the run succeeded.
    """
    world_size = program.inputs[0].group.world_size
    shards = _place_per_rank(program, inputs, allow_downcast)
    layout = build_layout(program)
    timeout = (
        scaled_default_timeout(layout, wire_s_per_mb, compile_allowance_s)
        if timeout is None
        else float(timeout) + max(0.0, compile_allowance_s)
    )

    trace_paths: List[Optional[str]] = [None] * world_size
    if trace_dir is not None:
        for r in range(world_size):
            path = os.path.join(trace_dir, f"rank{r}.ring")
            TraceRing.create(path, TRACE_CAPACITY).close()
            trace_paths[r] = path

    procs: List = []
    conns: List = []
    reports = _Reports()
    err_off = layout.num_sites * world_size * 2
    with _segments(layout) as (data, flags):
        flags_arr: Optional[np.ndarray] = np.ndarray(
            (layout.flags_length(),), dtype=np.int64, buffer=flags.buf
        )

        def _mark_dead(r: int) -> None:
            reports.dead_ranks.append(r)
            code = procs[r].exitcode
            reports.fail(
                4,
                f"rank {r} died without reporting (exit code {code})",
                context={"rank": r, "op": "", "site": "", "seq": 0,
                         "dead": True},
            )
            # broadcast on the corpse's behalf: peers blocked on its
            # payloads abort promptly instead of spinning to timeout
            flags_arr[err_off + r] = _ERR_DEAD

        try:
            ctx_mp = get_context("spawn")
            for r in range(world_size):
                parent_conn, child_conn = ctx_mp.Pipe()
                p = ctx_mp.Process(
                    target=_rank_main,
                    args=(
                        r, source, layout, data.name, flags.name,
                        shards[r], wire_s_per_mb, timeout, soft_timeout,
                        fault_plan, trace_paths[r], child_conn,
                    ),
                    daemon=True,
                )
                p.start()
                child_conn.close()
                procs.append(p)
                conns.append(parent_conn)

            deadline = time.monotonic() + timeout + 60.0
            pending: Dict[int, object] = dict(enumerate(conns))
            while pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    for r in sorted(pending):
                        reports.fail(
                            2,
                            f"rank {r} did not report within "
                            f"{timeout:.0f}s",
                        )
                    break
                # wait on result pipes AND process sentinels: a report
                # wakes us, and so does a silent death
                waitables = list(pending.values()) + [
                    procs[r].sentinel for r in pending
                ]
                _mp_connection.wait(waitables, timeout=min(remaining, 1.0))
                for r in sorted(pending):
                    conn = pending[r]
                    if conn.poll(0):
                        del pending[r]
                        try:
                            report = conn.recv()
                        except (EOFError, OSError):
                            _mark_dead(r)
                            continue
                        reports.take(r, report)
                    elif not procs[r].is_alive():
                        del pending[r]
                        _mark_dead(r)
        finally:
            flags_arr = None  # drop the view before closing the segment
            for p in procs:
                p.join(timeout=5.0)
            for p in procs:
                if p.is_alive():  # pragma: no cover - hung worker
                    p.terminate()
                    p.join(timeout=5.0)
            for conn in conns:
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
    return reports.result(program)
