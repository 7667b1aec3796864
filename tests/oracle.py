"""Reference oracles: the original, unoptimized implementations.

Each oracle is the executable specification its product counterpart is
property-tested against; none of them is reachable from ``src/``.

* :func:`reference_run` — the per-rank dict-of-arrays interpreter: it
  walks the raw DFG in topological order and evaluates every expression
  once per rank over ``{global rank -> ndarray}`` storage
  (:class:`ReferenceWorld`). ``Executor().run`` / ``run_lowered`` must
  be bit-identical (``np.array_equal``) to it on outputs *and* final
  tensor states.
* ``*_reference`` collectives over dicts of per-rank arrays, the oracle
  of the rank-major ``repro.runtime.collectives.*_vectorized`` family.
* :class:`ReferenceEngine` — the O(n²) ready-scan list scheduler that
  the event-driven heap scheduler of :class:`repro.perf.Engine` must
  reproduce span for span.
* :func:`replay` — re-applies an autotuner move script from the root,
  the specification of the tuner's incremental fork-per-move search.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core import dfg, ops
from repro.core.layout import normalize_dim
from repro.core.tensor import Const, Expr, Scalar, Tensor
from repro.errors import CoCoNetError, ExecutionError
from repro.perf.engine import Engine, Task, Timeline
from repro.runtime import rng
from repro.runtime.collectives import _node_grid, _reduce_stack
from repro.runtime.executor import (
    _BINARY_FNS,
    _UNARY_FNS,
    ProgramResult,
    _combine_partials,
    _conv2d,
    _local_reduce_fn,
)
from repro.runtime.world import checked_input, slice_of

RankValues = Dict[int, np.ndarray]


def assemble_slices(parts: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """Concatenate per-rank slices back into the global array."""
    return np.concatenate(list(parts), axis=dim)


def assemble(e: Expr, per_rank: RankValues) -> np.ndarray:
    """Reassemble one expression's per-rank values into its global array."""
    group = e.group
    if e.layout.is_replicated:
        return per_rank[group.start]
    if e.layout.is_sliced:
        dim = normalize_dim(e.layout.dim, len(e.shape))
        return assemble_slices([per_rank[r] for r in group], dim)
    return np.stack([per_rank[r] for r in group], axis=0)


# ---------------------------------------------------------------------------
# Collectives over dicts of per-rank arrays.
# ---------------------------------------------------------------------------


def _accumulate(values: RankValues, group, op: str) -> np.ndarray:
    stack = np.stack([values[r] for r in group], axis=0)
    return _reduce_stack(stack, op)


def allreduce_reference(values: RankValues, group, op: str, dtype) -> RankValues:
    """Every rank receives the reduction of all ranks' values."""
    total = _accumulate(values, group, op).astype(dtype)
    return {r: total.copy() for r in group}


def reducescatter_reference(
    values: RankValues, group, op: str, dim: int, dtype, context: str = ""
) -> RankValues:
    """Rank i receives slice i of the reduction."""
    total = _accumulate(values, group, op).astype(dtype)
    return {
        r: slice_of(total, dim, i, group.size, context=context).copy()
        for i, r in enumerate(group)
    }


def allgather_reference(values: RankValues, group, dim: int) -> RankValues:
    """Every rank receives the concatenation of all ranks' slices."""
    full = assemble_slices([values[r] for r in group], dim)
    return {r: full.copy() for r in group}


def alltoall_reference(
    values: RankValues, group, dim: int, context: str = ""
) -> RankValues:
    """Rank ``i`` receives chunk ``i`` of every rank, in source order.

    Each rank's buffer is split into ``group.size`` equal chunks along
    ``dim``; chunk ``j`` travels to the rank with local index ``j``, and
    the receiver concatenates incoming chunks in source-rank order —
    GShard's MoE dispatch/combine exchange.
    """
    n = group.size
    out: RankValues = {}
    for i, r in enumerate(group):
        out[r] = np.concatenate(
            [slice_of(values[s], dim, i, n, context=context) for s in group],
            axis=dim,
        )
    return out


def alltoall_intra_reference(
    values: RankValues, group, dim: int, node_size: int, context: str = ""
) -> RankValues:
    """Intra-node phase of the hierarchical AllToAll.

    Rank ``(a, q)`` (node ``a``, local index ``q``) collects, from every
    rank ``(a, p)`` of its node, the chunks destined for the ranks that
    share local index ``q``, regrouped by destination node: output chunk
    ``b*m + p`` holds source ``(a, p)``'s chunk for rank ``(b, q)``.
    Composing :func:`alltoall_inter_reference` after this phase
    reproduces the flat :func:`alltoall_reference` exactly.
    """
    n = group.size
    k, m = _node_grid(group, node_size)
    out: RankValues = {}
    for a in range(k):
        for q in range(m):
            r = group.global_rank(a * m + q)
            parts = [
                slice_of(
                    values[group.global_rank(a * m + p)],
                    dim, b * m + q, n, context=context,
                )
                for b in range(k)
                for p in range(m)
            ]
            out[r] = np.concatenate(parts, axis=dim)
    return out


def alltoall_inter_reference(
    values: RankValues, group, dim: int, node_size: int, context: str = ""
) -> RankValues:
    """Inter-node phase of the hierarchical AllToAll.

    Applied to the intra-phase output: rank ``(b, q)`` receives block
    ``b`` (the ``m`` chunks regrouped for it) from the rank with local
    index ``q`` on every node ``a``, concatenated in node order — which
    restores exact source-rank order.
    """
    n = group.size
    k, m = _node_grid(group, node_size)
    out: RankValues = {}
    for b in range(k):
        for q in range(m):
            r = group.global_rank(b * m + q)
            parts = [
                slice_of(
                    values[group.global_rank(a * m + q)],
                    dim, b * m + p, n, context=context,
                )
                for a in range(k)
                for p in range(m)
            ]
            out[r] = np.concatenate(parts, axis=dim)
    return out


def reduce_reference(
    values: RankValues, group, op: str, root: int, dtype
) -> RankValues:
    """The root rank receives the reduction; non-root ranks keep their
    input values (cast to ``dtype``), as ``ncclReduce`` leaves non-root
    receive buffers unmodified."""
    total = _accumulate(values, group, op).astype(dtype)
    root_rank = group.global_rank(root)
    return {
        r: total.copy()
        if r == root_rank
        else np.asarray(values[r]).astype(dtype)
        for r in group
    }


def broadcast_reference(values: RankValues, group, root: int) -> RankValues:
    """Every rank receives the root rank's value."""
    src = values[group.global_rank(root)]
    return {r: src.copy() for r in group}


# ---------------------------------------------------------------------------
# The dict-of-ranks world and interpreter.
# ---------------------------------------------------------------------------


class ReferenceWorld:
    """Tensor storage as one ``np.ndarray`` per (tensor name, rank)."""

    def __init__(self, num_ranks: int) -> None:
        if num_ranks <= 0:
            raise ExecutionError("world needs at least one rank")
        self.num_ranks = num_ranks
        #: name -> {global rank -> ndarray}
        self.storage: Dict[str, RankValues] = {}

    def place_input(
        self, tensor: Expr, value, allow_downcast: Optional[bool] = None
    ) -> None:
        """Distribute a global input: one independent copy per rank."""
        value = checked_input(tensor, value, allow_downcast)
        group = tensor.group
        per_rank: RankValues = {}
        if tensor.layout.is_replicated:
            for r in group:
                per_rank[r] = value.copy()
        elif tensor.layout.is_sliced:
            dim = normalize_dim(tensor.layout.dim, len(tensor.shape))
            for i, r in enumerate(group):
                per_rank[r] = slice_of(
                    value, dim, i, group.size, context=tensor.name
                ).copy()
        else:
            for i, r in enumerate(group):
                per_rank[r] = value[i].copy()
        self.storage[tensor.name] = per_rank

    def read_back(self, tensor: Expr) -> np.ndarray:
        """Reassemble a tensor's global value from its storage."""
        return assemble(tensor, self.storage[tensor.name])

    def rank_value(self, name: str, rank: int) -> np.ndarray:
        """One rank's current value of a tensor."""
        try:
            return self.storage[name][rank]
        except KeyError:
            raise ExecutionError(
                f"no value for tensor {name!r} on rank {rank}"
            ) from None


def reference_run(
    program,
    inputs: Mapping[str, np.ndarray],
    allow_downcast: Optional[bool] = None,
) -> ProgramResult:
    """Interpret ``program``'s raw DFG once per rank over dict storage."""
    world = ReferenceWorld(program.inputs[0].group.world_size)
    for t in program.inputs:
        if t.name not in inputs:
            raise ExecutionError(f"missing input {t.name!r}")
        world.place_input(
            t, np.asarray(inputs[t.name]), allow_downcast=allow_downcast
        )
    extra = set(inputs) - {t.name for t in program.inputs}
    if extra:
        raise ExecutionError(f"unknown inputs: {sorted(extra)}")

    values: Dict[Expr, RankValues] = {}
    for e in dfg.topological(program.roots):
        if isinstance(e, Const):
            values[e] = {
                r: np.asarray(e.value, dtype=e.dtype.to_numpy())
                for r in e.group
            }
        elif isinstance(e, (Tensor, Scalar)):
            # Snapshot: DFG edges to a leaf reference its value at
            # program start, even if an Update later rewrites storage.
            values[e] = {
                r: world.rank_value(e.name, r).copy() for r in e.group
            }
        else:
            values[e] = _eval(e, values, world)
    outputs = {o.name: assemble(o, values[o]) for o in program.outputs}
    states = {
        t.name: world.read_back(t)
        for t in program.inputs
        if isinstance(t, Tensor)
    }
    return ProgramResult(outputs, states)


def _eval(e: Expr, values: Dict[Expr, RankValues], world) -> RankValues:
    o = ops
    if isinstance(e, o.AllReduce):
        return allreduce_reference(
            values[e.inputs[0]], e.group, e.reduction, e.dtype.to_numpy()
        )
    if isinstance(e, o.ReduceScatter):
        return reducescatter_reference(
            values[e.inputs[0]],
            e.group,
            e.reduction,
            normalize_dim(e.layout.dim, len(e.shape)),
            e.dtype.to_numpy(),
            context=e.name,
        )
    if isinstance(e, o.AllGather):
        gathered = allgather_reference(values[e.inputs[0]], e.group, e.dim)
        if e.writeback is not None:
            wb = e.writeback
            for r in e.group:
                world.storage[wb.name][r] = gathered[r].astype(
                    wb.dtype.to_numpy()
                )
        return gathered
    if isinstance(e, o.AllToAllPhase):
        fn = (
            alltoall_intra_reference
            if e.phase == "intra"
            else alltoall_inter_reference
        )
        return fn(
            values[e.inputs[0]], e.group, e.dim, e.node_size, context=e.name
        )
    if isinstance(e, o.AllToAll):
        return alltoall_reference(
            values[e.inputs[0]], e.group, e.dim, context=e.name
        )
    if isinstance(e, o.Reduce):
        return reduce_reference(
            values[e.inputs[0]], e.group, e.reduction, e.root,
            e.dtype.to_numpy(),
        )
    if isinstance(e, o.Broadcast):
        return broadcast_reference(values[e.inputs[0]], e.group, e.root)
    if isinstance(e, o.Send):
        return _eval_send(e, values)
    if isinstance(e, o.MatMul):
        return _per_rank(e, values, lambda a, b: np.matmul(a, b))
    if isinstance(e, o.Conv2D):
        return _per_rank(
            e, values, lambda x, w: _conv2d(x, w, e.stride, e.padding)
        )
    if isinstance(e, o.Binary):
        return _per_rank(e, values, _BINARY_FNS[e.op])
    if isinstance(e, o.Unary):
        return _per_rank(e, values, _UNARY_FNS[e.op])
    if isinstance(e, o.Dropout):
        return _eval_dropout(e, values)
    if isinstance(e, o.Cast):
        return _per_rank(e, values, lambda x: x)
    if isinstance(e, o.Slice):
        return _eval_slice(e, values)
    if isinstance(e, (o.Norm, o.ReduceTensor)):
        return _eval_reduction(e, values)
    if isinstance(e, o.Update):
        return _eval_update(e, values, world)
    raise ExecutionError(f"cannot execute {type(e).__name__}")


def _per_rank(e: Expr, values, fn) -> RankValues:
    out: RankValues = {}
    dtype = e.dtype.to_numpy()
    for r in e.group:
        args = [values[i][r] for i in e.inputs]
        out[r] = np.asarray(fn(*args)).astype(dtype)
    return out


def _eval_send(e: ops.Send, values) -> RankValues:
    src_group = e.inputs[0].group
    dst_group = e.group
    out: RankValues = {}
    src_values = values[e.inputs[0]]
    for r in src_group:
        local = src_group.local_rank(r)
        out[dst_group.global_rank(local)] = src_values[r].copy()
    return out


def _eval_dropout(e: ops.Dropout, values) -> RankValues:
    out: RankValues = {}
    dtype = e.dtype.to_numpy()
    for r in e.group:
        x = values[e.inputs[0]][r]
        if e.layout.is_sliced:
            dim = normalize_dim(e.layout.dim, len(e.shape))
            mask = rng.dropout_mask(
                e.seed, e.prob, e.shape,
                slice_dim=dim,
                slice_index=e.group.local_rank(r),
                num_slices=e.group.size,
            )
        else:
            mask = rng.dropout_mask(e.seed, e.prob, e.shape)
        out[r] = (x.astype(np.float64) * mask).astype(dtype)
    return out


def _eval_slice(e: ops.Slice, values) -> RankValues:
    dim = normalize_dim(e.layout.dim, len(e.shape))
    out: RankValues = {}
    for r in e.group:
        full = values[e.inputs[0]][r]
        out[r] = slice_of(
            full, dim, e.group.local_rank(r), e.group.size, context=e.name
        ).copy()
    return out


def _eval_reduction(e: Expr, values) -> RankValues:
    x_values = values[e.inputs[0]]
    is_norm = isinstance(e, ops.Norm)
    op = "+" if is_norm else e.reduction
    dtype = e.dtype.to_numpy()
    local_reduce = _local_reduce_fn(is_norm, op)

    if e.crosses_ranks:
        partials = {r: local_reduce(x_values[r]) for r in e.group}
        total = _combine_partials(list(partials.values()), is_norm, op)
        return {r: np.asarray(total).astype(dtype) for r in e.group}
    out: RankValues = {}
    for r in e.group:
        v = local_reduce(x_values[r])
        if is_norm:
            v = np.sqrt(v)
        out[r] = np.asarray(v).astype(dtype)
    return out


def _eval_update(e: ops.Update, values, world) -> RankValues:
    target = e.target
    value = values[e.inputs[0]]
    dtype = target.dtype.to_numpy()
    out: RankValues = {}
    for r in e.group:
        new = value[r].astype(dtype)
        out[r] = new
        store = world.storage[target.name]
        if e.layout.is_sliced and target.layout.is_replicated:
            # Write this rank's slice into its full-size storage; the
            # rest becomes valid when an AllGather writes back.
            dim = normalize_dim(e.layout.dim, len(e.shape))
            full = store[r]
            extent = full.shape[dim] // e.group.size
            idx = [slice(None)] * full.ndim
            local = e.group.local_rank(r)
            idx[dim] = slice(local * extent, (local + 1) * extent)
            full[tuple(idx)] = new
        else:
            store[r] = new.copy()
    return out


# ---------------------------------------------------------------------------
# The O(n²) list scheduler.
# ---------------------------------------------------------------------------


class ReferenceEngine(Engine):
    """:class:`Engine` whose :meth:`run` is the original ready-scan."""

    def run(self, tasks: Sequence[Task]) -> Timeline:
        """Repeatedly start the ready task that can begin earliest
        (first in input order on ties)."""
        self._validate(tasks)
        timeline = Timeline()
        resource_free: Dict[str, float] = {}
        pending: List[Task] = list(tasks)
        scheduled: set = set()
        while pending:
            best_idx = -1
            best_start = float("inf")
            for i, t in enumerate(pending):
                if any(d not in scheduled for d in t.deps):
                    continue
                ready = max((timeline.end(d) for d in t.deps), default=0.0)
                start = max(ready, resource_free.get(t.resource, 0.0))
                if start < best_start:
                    best_start, best_idx = start, i
            if best_idx < 0:
                names = [t.name for t in pending]
                raise CoCoNetError(
                    f"dependency cycle among tasks: {names[:5]}..."
                )
            t = pending.pop(best_idx)
            end = best_start + self._duration(t)
            timeline.spans[t.name] = (best_start, end)
            timeline.resources[t.name] = t.resource
            resource_free[t.resource] = end
            scheduled.add(t.name)
        return timeline


# ---------------------------------------------------------------------------
# Autotuner move-script replay.
# ---------------------------------------------------------------------------


def replay(tuner, program, moves):
    """Apply a move script to a fresh root schedule of ``program``."""
    sched = tuner._fresh(program)
    for m in moves:
        tuner._apply(sched, m)
    return sched
