"""Property tests: SpmdCommunicator collectives ≡ vectorized collectives.

Every collective of the shared-memory communicator must be bit-identical
(``np.array_equal``) to its ``repro.runtime.collectives`` vectorized
counterpart — across fp32/fp16 payloads and rank counts {2, 4, 8},
including every divisor node size of the hierarchical AllToAll (uneven
grids like 8 = 2×4). Each call runs one thread per rank, every thread
attached to its own :class:`SpmdCommunicator` over a fresh segment pair
— the mechanism ``run_threads`` uses — so thousands of real
rendezvous cost no process spawn. Cross-process rendezvous is covered
by the ``tests/test_spmd.py`` parity tests at 4 and 8 rank processes.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import world
from repro.runtime import collectives
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


def call(n, method, per_rank_args, kwargs=None):
    """Invoke communicator ``method`` on ``n`` rank threads, one
    positional-args tuple per rank; returns the results in rank order."""
    layout = SpmdLayout(n)
    layout.add_site(_group_key(world(n)), range(n), SLOT_BYTES)
    layout.freeze()
    out = [None] * n
    errors = []
    with _segments(layout) as (data, flags):

        def rank(r):
            comm = SpmdCommunicator.attach(
                layout, r, data.name, flags.name, timeout=TIMEOUT
            )
            try:
                out[r] = getattr(comm, method)(
                    *per_rank_args[r], **(kwargs or {})
                )
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


def _stacked(seed: int, n: int, shape, dtype) -> np.ndarray:
    rng = np.random.RandomState(seed)
    return (rng.randn(n, *shape) * 4).astype(dtype)


def _assert_rows_equal(rows, stacked_ref):
    for i, row in enumerate(rows):
        np.testing.assert_array_equal(row, np.asarray(stacked_ref[i]))


class TestReductionCollectives:
    @given(
        n=st.sampled_from(RANK_COUNTS),
        per=st.integers(1, 3),
        dtype=st.sampled_from(DTYPES),
        op=st.sampled_from(["+", "*", "max", "min"]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_allreduce(self, n, per, dtype, op, seed):
        g = world(n)
        x = _stacked(seed, n, (n * per,), dtype)
        ref = collectives.allreduce_vectorized(x, g, op, dtype)
        rows = call(
            n, "allreduce", [(x[i], g, op, dtype) for i in range(n)]
        )
        _assert_rows_equal(rows, ref)

    @given(
        n=st.sampled_from(RANK_COUNTS),
        per=st.integers(1, 2),
        dim=st.integers(0, 1),
        dtype=st.sampled_from(DTYPES),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_reducescatter(self, n, per, dim, dtype, seed):
        g = world(n)
        x = _stacked(seed, n, (n * per, n * per), dtype)
        ref = collectives.reducescatter_vectorized(
            x, g, "+", dim, dtype, context="rs"
        )
        rows = call(
            n, "reducescatter",
            [(x[i], g, "+", dim, dtype) for i in range(n)],
            kwargs={"context": "rs"},
        )
        _assert_rows_equal(rows, ref)

    @given(
        n=st.sampled_from(RANK_COUNTS),
        root=st.integers(0, 7),
        dtype=st.sampled_from(DTYPES),
        op=st.sampled_from(["+", "max"]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_reduce_keeps_non_root_inputs(self, n, root, dtype, op, seed):
        root = root % n
        g = world(n)
        x = _stacked(seed, n, (2 * n,), dtype)
        ref = collectives.reduce_vectorized(x, g, op, root, dtype)
        rows = call(
            n, "reduce", [(x[i], g, op, root, dtype) for i in range(n)]
        )
        _assert_rows_equal(rows, ref)


class TestDataMovementCollectives:
    @given(
        n=st.sampled_from(RANK_COUNTS),
        per=st.integers(1, 2),
        dim=st.integers(0, 1),
        dtype=st.sampled_from(DTYPES),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_allgather(self, n, per, dim, dtype, seed):
        g = world(n)
        x = _stacked(seed, n, (n * per, per), dtype)
        ref = collectives.allgather_vectorized(x, g, dim)
        rows = call(n, "allgather", [(x[i], g, dim) for i in range(n)])
        _assert_rows_equal(rows, ref)

    @given(
        n=st.sampled_from(RANK_COUNTS),
        per=st.integers(1, 2),
        dim=st.integers(0, 1),
        dtype=st.sampled_from(DTYPES),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_alltoall(self, n, per, dim, dtype, seed):
        g = world(n)
        x = _stacked(seed, n, (n * per, n * per), dtype)
        ref = collectives.alltoall_vectorized(x, g, dim, context="a2a")
        rows = call(
            n, "alltoall",
            [(x[i], g, dim) for i in range(n)],
            kwargs={"context": "a2a"},
        )
        _assert_rows_equal(rows, ref)

    @given(
        n=st.sampled_from(RANK_COUNTS),
        root=st.integers(0, 7),
        dtype=st.sampled_from(DTYPES),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=10, deadline=None)
    def test_broadcast(self, n, root, dtype, seed):
        root = root % n
        g = world(n)
        x = _stacked(seed, n, (3,), dtype)
        ref = collectives.broadcast_vectorized(x, g, root)
        rows = call(n, "broadcast", [(x[i], g, root) for i in range(n)])
        _assert_rows_equal(rows, ref)


class TestHierarchicalAllToAll:
    """intra/inter phases for *every* divisor node size of {2,4,8} —
    uneven grids (8 = 2×4) included — and their composition to flat."""

    @pytest.mark.parametrize("n", RANK_COUNTS)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_every_divisor(self, n, dtype):
        g = world(n)
        x = _stacked(1234 + n, n, (2 * n, 3), dtype)
        flat = collectives.alltoall_vectorized(x, g, 0)
        for m in range(1, n + 1):
            if n % m != 0:
                continue
            intra_ref = collectives.alltoall_intra_vectorized(x, g, 0, m)
            intra = call(
                n, "alltoall_intra", [(x[i], g, 0, m) for i in range(n)]
            )
            _assert_rows_equal(intra, intra_ref)
            inter = call(
                n, "alltoall_inter",
                [(np.asarray(intra_ref[i]), g, 0, m) for i in range(n)],
            )
            _assert_rows_equal(inter, flat)


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
