"""Property tests: SpmdCommunicator collectives ≡ vectorized collectives.

Every collective of the shared-memory communicator must be bit-identical
(``np.array_equal``) to its ``repro.runtime.collectives`` vectorized
counterpart — across fp32/fp16 payloads and rank counts {2, 4, 8},
including every divisor node size of the hierarchical AllToAll (uneven
grids like 8 = 2×4) — both when the collective publishes its argument
whole and when it consumes a chunked (§5.3 overlap) publication opened
before the call. Each call runs one thread per rank, every thread
attached to its own :class:`SpmdCommunicator` over a fresh segment pair
— the mechanism ``run_threads`` uses — so thousands of real
rendezvous cost no process spawn. Cross-process rendezvous is covered
by the ``tests/test_spmd.py`` parity tests at 4 and 8 rank processes.
:class:`TestWholePublicationFaults` pins how injected faults treat a
whole publication, read back through the per-rank trace rings.
"""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import world
from repro.observe.ring import KIND_FAULT, TraceRing
from repro.runtime import collectives
from repro.runtime.faults import FaultPlan
from repro.runtime.spmd import (
    _ERR_FAILED,
    SpmdCommunicator,
    SpmdError,
    SpmdLayout,
    _group_key,
    _segments,
)

RANK_COUNTS = (2, 4, 8)
DTYPES = (np.float32, np.float16)
SLOT_BYTES = 1 << 18
TIMEOUT = 60.0


def run_ranks(n, body, faults=None, trace_dir=None):
    """Run ``body(comm, r)`` on ``n`` rank threads, each attached to its
    own communicator over one fresh segment pair; returns the results
    in rank order. ``trace_dir`` gives every rank a ``rank<r>.ring``."""
    layout = SpmdLayout(n)
    layout.add_site(_group_key(world(n)), range(n), SLOT_BYTES)
    layout.freeze()
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    out = [None] * n
    errors = []
    with _segments(layout) as (data, flags):

        def rank(r):
            trace = None
            if trace_dir is not None:
                trace = os.path.join(str(trace_dir), f"rank{r}.ring")
                TraceRing.create(trace).close()
            comm = SpmdCommunicator.attach(
                layout, r, data.name, flags.name, timeout=TIMEOUT,
                trace_path=trace, faults=faults,
            )
            try:
                out[r] = body(comm, r)
            except Exception as exc:
                comm.signal_error(_ERR_FAILED)
                errors.append(f"rank {r}: {type(exc).__name__}: {exc}")
            finally:
                comm.close()

        threads = [
            threading.Thread(target=rank, args=(r,), daemon=True)
            for r in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(TIMEOUT + 10.0)
    if errors or any(t.is_alive() for t in threads):
        raise SpmdError("; ".join(errors) or "a rank thread hung")
    return out


def chunking(shape, seed):
    """Seeded ``(chunk_dim, bounds)``: 1-4 contiguous chunks covering
    one dimension of ``shape``, the same on every rank."""
    rng = np.random.RandomState(seed)
    dim = int(rng.randint(len(shape)))
    extent = shape[dim]
    k = int(rng.randint(1, min(extent, 4) + 1))
    cuts = sorted(int(c) for c in rng.choice(
        np.arange(1, extent), k - 1, replace=False
    )) if k > 1 else []
    edges = [0] + cuts + [extent]
    return dim, [(edges[i], edges[i + 1]) for i in range(k)]


def invoke(comm, method, args, kwargs=None, chunks=None):
    """Call communicator ``method``; with ``chunks=(chunk_dim, bounds)``
    first open a chunked publication of the payload (``args[0]``) on the
    group (``args[1]``) and release it from a producer stream, exactly
    as a generated overlap orchestrator does — the collective then
    consumes that publication instead of publishing its argument whole.
    """
    fn = getattr(comm, method)
    if chunks is None:
        return fn(*args, **(kwargs or {}))
    pub = comm.begin_chunked(args[1], np.asarray(args[0]), *chunks)
    producer = comm.start_stream(lambda: comm.publish_chunks(pub))
    try:
        return fn(*args, **(kwargs or {}))
    finally:
        comm.join_streams(producer)


def call(n, method, per_rank_args, kwargs=None, mode="whole", seed=0):
    """Invoke communicator ``method`` on ``n`` rank threads, one
    positional-args tuple per rank; returns the results in rank order.
    ``mode="chunked"`` consumes a chunked publication with
    :func:`chunking` bounds drawn from ``seed`` (see :func:`invoke`)."""

    def body(comm, r):
        args = per_rank_args[r]
        chunks = None
        if mode == "chunked":
            chunks = chunking(np.shape(args[0]), seed)
        return invoke(comm, method, args, kwargs, chunks)

    return run_ranks(n, body)


def _stacked(seed: int, n: int, shape, dtype) -> np.ndarray:
    rng = np.random.RandomState(seed)
    return (rng.randn(n, *shape) * 4).astype(dtype)


def _assert_rows_equal(rows, stacked_ref):
    for i, row in enumerate(rows):
        np.testing.assert_array_equal(row, np.asarray(stacked_ref[i]))


# -- one oracle check per collective, shared by both publication modes ---

ALLREDUCE = dict(
    n=st.sampled_from(RANK_COUNTS),
    per=st.integers(1, 3),
    dtype=st.sampled_from(DTYPES),
    op=st.sampled_from(["+", "*", "max", "min"]),
    seed=st.integers(0, 10_000),
)
SQUARE = dict(
    n=st.sampled_from(RANK_COUNTS),
    per=st.integers(1, 2),
    dim=st.integers(0, 1),
    dtype=st.sampled_from(DTYPES),
    seed=st.integers(0, 10_000),
)
ROOTED = dict(
    n=st.sampled_from(RANK_COUNTS),
    root=st.integers(0, 7),
    dtype=st.sampled_from(DTYPES),
    seed=st.integers(0, 10_000),
)


def check_allreduce(mode, n, per, dtype, op, seed):
    g = world(n)
    x = _stacked(seed, n, (n * per,), dtype)
    ref = collectives.allreduce_vectorized(x, g, op, dtype)
    rows = call(
        n, "allreduce", [(x[i], g, op, dtype) for i in range(n)],
        mode=mode, seed=seed,
    )
    _assert_rows_equal(rows, ref)


def check_reducescatter(mode, n, per, dim, dtype, seed):
    g = world(n)
    x = _stacked(seed, n, (n * per, n * per), dtype)
    ref = collectives.reducescatter_vectorized(
        x, g, "+", dim, dtype, context="rs"
    )
    rows = call(
        n, "reducescatter",
        [(x[i], g, "+", dim, dtype) for i in range(n)],
        kwargs={"context": "rs"}, mode=mode, seed=seed,
    )
    _assert_rows_equal(rows, ref)


def check_reduce(mode, n, root, dtype, op, seed):
    root = root % n
    g = world(n)
    x = _stacked(seed, n, (2 * n,), dtype)
    ref = collectives.reduce_vectorized(x, g, op, root, dtype)
    rows = call(
        n, "reduce", [(x[i], g, op, root, dtype) for i in range(n)],
        mode=mode, seed=seed,
    )
    _assert_rows_equal(rows, ref)


def check_allgather(mode, n, per, dim, dtype, seed):
    g = world(n)
    x = _stacked(seed, n, (n * per, per), dtype)
    ref = collectives.allgather_vectorized(x, g, dim)
    rows = call(
        n, "allgather", [(x[i], g, dim) for i in range(n)],
        mode=mode, seed=seed,
    )
    _assert_rows_equal(rows, ref)


def check_alltoall(mode, n, per, dim, dtype, seed):
    g = world(n)
    x = _stacked(seed, n, (n * per, n * per), dtype)
    ref = collectives.alltoall_vectorized(x, g, dim, context="a2a")
    rows = call(
        n, "alltoall", [(x[i], g, dim) for i in range(n)],
        kwargs={"context": "a2a"}, mode=mode, seed=seed,
    )
    _assert_rows_equal(rows, ref)


def check_broadcast(mode, n, root, dtype, seed):
    root = root % n
    g = world(n)
    x = _stacked(seed, n, (3,), dtype)
    ref = collectives.broadcast_vectorized(x, g, root)
    rows = call(
        n, "broadcast", [(x[i], g, root) for i in range(n)],
        mode=mode, seed=seed,
    )
    _assert_rows_equal(rows, ref)


def check_every_divisor(mode, n, dtype):
    """intra/inter phases for *every* divisor node size of ``n`` —
    uneven grids (8 = 2×4) included — and their composition to flat."""
    g = world(n)
    x = _stacked(1234 + n, n, (2 * n, 3), dtype)
    flat = collectives.alltoall_vectorized(x, g, 0)
    for m in range(1, n + 1):
        if n % m != 0:
            continue
        intra_ref = collectives.alltoall_intra_vectorized(x, g, 0, m)
        intra = call(
            n, "alltoall_intra", [(x[i], g, 0, m) for i in range(n)],
            mode=mode, seed=m,
        )
        _assert_rows_equal(intra, intra_ref)
        inter = call(
            n, "alltoall_inter",
            [(np.asarray(intra_ref[i]), g, 0, m) for i in range(n)],
            mode=mode, seed=n + m,
        )
        _assert_rows_equal(inter, flat)


# -- whole-buffer publication: each collective publishes its argument ---


class TestReductionCollectives:
    @given(**ALLREDUCE)
    @settings(max_examples=12, deadline=None)
    def test_allreduce(self, n, per, dtype, op, seed):
        check_allreduce("whole", n, per, dtype, op, seed)

    @given(**SQUARE)
    @settings(max_examples=12, deadline=None)
    def test_reducescatter(self, n, per, dim, dtype, seed):
        check_reducescatter("whole", n, per, dim, dtype, seed)

    @given(op=st.sampled_from(["+", "max"]), **ROOTED)
    @settings(max_examples=10, deadline=None)
    def test_reduce_keeps_non_root_inputs(self, n, root, dtype, op, seed):
        check_reduce("whole", n, root, dtype, op, seed)


class TestDataMovementCollectives:
    @given(**SQUARE)
    @settings(max_examples=12, deadline=None)
    def test_allgather(self, n, per, dim, dtype, seed):
        check_allgather("whole", n, per, dim, dtype, seed)

    @given(**SQUARE)
    @settings(max_examples=12, deadline=None)
    def test_alltoall(self, n, per, dim, dtype, seed):
        check_alltoall("whole", n, per, dim, dtype, seed)

    @given(**ROOTED)
    @settings(max_examples=10, deadline=None)
    def test_broadcast(self, n, root, dtype, seed):
        check_broadcast("whole", n, root, dtype, seed)


class TestHierarchicalAllToAll:
    @pytest.mark.parametrize("n", RANK_COUNTS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_every_divisor(self, n, dtype):
        check_every_divisor("whole", n, dtype)


# -- chunked publication: a pending §5.3 publication feeds the collective -


class TestChunkedCollectives:
    """The same oracles, each collective consuming a chunked
    publication opened before the call, as an overlapped GEMM's
    consumer does."""

    @given(**ALLREDUCE)
    @settings(max_examples=12, deadline=None)
    def test_allreduce(self, n, per, dtype, op, seed):
        check_allreduce("chunked", n, per, dtype, op, seed)

    @given(**SQUARE)
    @settings(max_examples=12, deadline=None)
    def test_reducescatter(self, n, per, dim, dtype, seed):
        check_reducescatter("chunked", n, per, dim, dtype, seed)

    @given(op=st.sampled_from(["+", "max"]), **ROOTED)
    @settings(max_examples=10, deadline=None)
    def test_reduce_keeps_non_root_inputs(self, n, root, dtype, op, seed):
        check_reduce("chunked", n, root, dtype, op, seed)

    @given(**SQUARE)
    @settings(max_examples=12, deadline=None)
    def test_allgather(self, n, per, dim, dtype, seed):
        check_allgather("chunked", n, per, dim, dtype, seed)

    @given(**SQUARE)
    @settings(max_examples=12, deadline=None)
    def test_alltoall(self, n, per, dim, dtype, seed):
        check_alltoall("chunked", n, per, dim, dtype, seed)

    @given(**ROOTED)
    @settings(max_examples=10, deadline=None)
    def test_broadcast(self, n, root, dtype, seed):
        check_broadcast("chunked", n, root, dtype, seed)

    @pytest.mark.parametrize("n", RANK_COUNTS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_every_divisor(self, n, dtype):
        check_every_divisor("chunked", n, dtype)


class TestScalarExchange:
    @given(
        n=st.sampled_from(RANK_COUNTS),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=8, deadline=None)
    def test_exchange_scalars_rank_order(self, n, seed):
        g = world(n)
        rng = np.random.RandomState(seed)
        vals = rng.randn(n)
        rows = call(
            n, "exchange_scalars", [(vals[i], g) for i in range(n)]
        )
        for per_rank in rows:
            assert [float(p) for p in per_rank] == [float(v) for v in vals]


def _fault_records(trace_dir, r):
    """``(seq, name)`` of every fault record in rank ``r``'s ring."""
    ring = TraceRing(os.path.join(str(trace_dir), f"rank{r}.ring"))
    try:
        recs = ring.records()
    finally:
        ring.close()
    return [
        (int(rec["seq"]), rec["name"].decode())
        for rec in recs
        if rec["kind"] == KIND_FAULT
    ]


class TestWholePublicationFaults:
    """A whole-buffer publish is one chunk on the wire, but keeps its
    own injection rules: stalls key on the site sequence number, chunk
    drops never apply, and each publish counts once toward a kill."""

    G = world(2)
    X = np.arange(4, dtype=np.float32)
    CHUNKS = (0, [(0, 1), (1, 3), (3, 4)])

    def _allreduce(self, comm, chunks=None):
        return invoke(
            comm, "allreduce", (self.X, self.G, "+", np.float32),
            chunks=chunks,
        )

    def test_drop_chunk_skips_whole_publishes(self, tmp_path):
        plan = FaultPlan().drop_chunk("g", 0)
        run_ranks(
            2, lambda comm, r: self._allreduce(comm), faults=plan,
            trace_dir=tmp_path / "whole",
        )
        run_ranks(
            2, lambda comm, r: self._allreduce(comm, self.CHUNKS),
            faults=plan, trace_dir=tmp_path / "chunked",
        )
        for r in range(2):
            whole = _fault_records(tmp_path / "whole", r)
            assert [n for _, n in whole if n.startswith("armed:drop")]
            assert not [n for _, n in whole if n.startswith("drop_chunk")]
            chunked = _fault_records(tmp_path / "chunked", r)
            assert (0, "drop_chunk 0") in chunked

    def test_stall_publish_keys_on_the_site_sequence(self, tmp_path):
        plan = FaultPlan().stall_publish("g0x2", 0.01, seq=2)

        def body(comm, r):
            return [self._allreduce(comm) for _ in range(3)]

        out = run_ranks(2, body, faults=plan, trace_dir=tmp_path)
        assert all(
            np.array_equal(v, 2 * self.X) for rows in out for v in rows
        )
        for r in range(2):
            stalls = [
                seq for seq, n in _fault_records(tmp_path, r)
                if n.startswith("stall_publish")
            ]
            assert stalls == [2]

    def test_die_counts_whole_publishes_and_chunks_alike(self):
        plan = FaultPlan().die(0, at_site="g", after=1000)

        def body(comm, r):
            self._allreduce(comm)
            self._allreduce(comm, self.CHUNKS)
            return comm._faults

        views = run_ranks(2, body, faults=plan)
        assert views[0]._die_counts == [1 + len(self.CHUNKS[1])]
        assert views[1] is None
