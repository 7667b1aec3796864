"""The simulated world: rank-major tensor storage for N ranks.

Each tensor is one stacked numpy array of shape
``(group.size, *per_rank_shape)``, axis 0 indexing the local ranks of
the tensor's group. Collectives and element-wise computation become
single numpy expressions over the stack (see
:mod:`repro.runtime.collectives`), and replicated values are stored as
stride-0 broadcast views of a single per-rank array, so rank-invariant
work is done once instead of once per rank.

Input preparation distributes a *global* array according to the tensor's
layout: replicated tensors are visible on every rank, sliced tensors are
partitioned along their slice dimension, and local tensors take per-rank
values stacked on a leading axis. :func:`place_inputs` is the one entry
point every backend uses to validate and place a run's inputs.

Rank-major storage invariant: stacked arrays are never mutated in place.
Updates *replace* a tensor's array (copying first when they must write
per-rank slices), which is what lets leaf snapshots and replicated
broadcast views alias storage safely.
"""

from __future__ import annotations

import warnings
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.core.layout import normalize_dim
from repro.core.process_group import ProcessGroup
from repro.core.tensor import Expr
from repro.errors import ExecutionError


def context_suffix(context: str) -> str:
    """``" (in <name>)"`` — appended to sharding errors so uneven-split
    mistakes are attributable to a tensor/op from the message alone."""
    return f" (in {context})" if context else ""


def check_divisible(
    shape: Sequence[int], dim: int, parts: int, context: str = ""
) -> int:
    """Assert ``shape[dim]`` splits into ``parts``; return the step."""
    extent = shape[dim]
    if extent % parts != 0:
        raise ExecutionError(
            f"dim {dim} of shape {tuple(shape)} not divisible into "
            f"{parts} parts{context_suffix(context)}"
        )
    return extent // parts


def slice_of(
    array: np.ndarray, dim: int, index: int, parts: int, context: str = ""
) -> np.ndarray:
    """The ``index``-th of ``parts`` equal slices of ``array`` along ``dim``."""
    step = check_divisible(array.shape, dim, parts, context)
    sl = [slice(None)] * array.ndim
    sl[dim] = slice(index * step, (index + 1) * step)
    return array[tuple(sl)]


# ---------------------------------------------------------------------------
# Rank-major (stacked) helpers — shared by the vectorized collectives and
# the vectorized executor.
# ---------------------------------------------------------------------------


def replicate(base: np.ndarray, num_ranks: int) -> np.ndarray:
    """A read-only ``(num_ranks, *base.shape)`` stride-0 view of ``base``.

    The rank-major representation of a replicated value: every rank's row
    aliases the same memory, so producing it is O(1) and downstream code
    can detect the invariance (see :func:`rank_invariant`) to compute on
    a single representative rank.
    """
    base = np.asarray(base)
    return np.broadcast_to(base, (num_ranks,) + base.shape)


def rank_invariant(stacked: np.ndarray) -> bool:
    """True when every rank's row provably aliases the same data.

    Detected via the stride-0 leading axis that :func:`replicate`
    produces. A ``False`` answer does not mean rows differ — only that
    they are stored separately.
    """
    return stacked.ndim > 0 and stacked.strides[0] == 0


def scatter_axis(
    array: np.ndarray, dim: int, parts: int, context: str = ""
) -> np.ndarray:
    """View ``array`` as its ``parts`` equal slices along ``dim``, stacked.

    The rank-major equivalent of ``[slice_of(array, dim, i, parts) for i
    in range(parts)]``: a reshape plus axis move, no data copied. The
    result has shape ``(parts, *slice_shape)``.
    """
    step = check_divisible(array.shape, dim, parts, context)
    view = array.reshape(
        array.shape[:dim] + (parts, step) + array.shape[dim + 1 :]
    )
    return np.moveaxis(view, dim, 0)


def gather_axis(stacked: np.ndarray, dim: int) -> np.ndarray:
    """Merge a ``(parts, *slice_shape)`` stack back along ``dim``.

    Inverse of :func:`scatter_axis`; equals concatenating the rows along
    ``dim`` in rank order.
    """
    moved = np.moveaxis(stacked, 0, dim)
    shape = (
        moved.shape[:dim]
        + (moved.shape[dim] * moved.shape[dim + 1],)
        + moved.shape[dim + 2 :]
    )
    return moved.reshape(shape)


def unstack_global(stacked: np.ndarray, layout, shape) -> np.ndarray:
    """Reassemble a stacked value into its global array, for callers.

    The single result boundary of every backend (program outputs and
    ``read_back`` tensor states). The returned array never aliases the
    stack and is always writable, so internal stride-0 replicated views
    never leak.
    """
    if layout.is_replicated:
        base = stacked[0]
    elif layout.is_sliced:
        base = gather_axis(stacked, normalize_dim(layout.dim, len(shape)))
    else:
        base = np.ascontiguousarray(stacked)
    if np.may_share_memory(base, stacked):
        base = base.copy()
    return base


def copy_stacked(stacked: np.ndarray) -> np.ndarray:
    """Snapshot a stacked value, preserving replicated stride-0 views."""
    if rank_invariant(stacked):
        return replicate(stacked[0].copy(), stacked.shape[0])
    return stacked.copy()


def astype_stacked(stacked: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Cast a stacked value, preserving replicated stride-0 views."""
    if rank_invariant(stacked):
        return replicate(stacked[0].astype(dtype), stacked.shape[0])
    return stacked.astype(dtype)


# ---------------------------------------------------------------------------
# Lossy-downcast detection for input placement.
# ---------------------------------------------------------------------------


def _dtype_lossy(src: np.dtype, dst: np.dtype) -> bool:
    """Is a ``src`` → ``dst`` cast a precision-losing downcast?

    float64 → float32 is the simulator's standard working precision
    (every test feeds ``randn`` float64 into FP32 tensors) and stays
    silent; casts to below-single-precision floats (FP16) and casts that
    numpy itself calls unsafe across kinds (float → int, narrowing int)
    are flagged.
    """
    src, dst = np.dtype(src), np.dtype(dst)
    if src == dst or np.can_cast(src, dst, casting="safe"):
        return False
    if src.kind in "fc" and dst.kind in "fc":
        return dst.itemsize < 4
    return True


def checked_input(
    tensor: Expr, value: np.ndarray, allow_downcast: Optional[bool]
) -> np.ndarray:
    """A global input cast to the tensor dtype and checked for shape.

    ``allow_downcast=True`` casts silently, ``False`` raises on a
    value-changing lossy downcast, and ``None`` (the default) warns.
    Replicated and sliced tensors take the global shape; local tensors
    take their group's per-rank values stacked on a leading axis.
    """
    value = np.asarray(value)
    target = tensor.dtype.to_numpy()
    if allow_downcast is not True and _dtype_lossy(value.dtype, target):
        cast = value.astype(target)
        if not np.array_equal(cast.astype(value.dtype), value, equal_nan=True):
            msg = (
                f"placing input {tensor.name!r}: lossy downcast "
                f"{value.dtype} -> {target} changes values; pass "
                f"allow_downcast=True to accept"
            )
            if allow_downcast is False:
                raise ExecutionError(msg)
            warnings.warn(msg, RuntimeWarning, stacklevel=3)
        value = cast
    elif value.dtype != target:
        value = value.astype(target)
    if tensor.layout.is_replicated or tensor.layout.is_sliced:
        if tuple(value.shape) != tensor.shape:
            what = "shape" if tensor.layout.is_replicated else "global shape"
            raise ExecutionError(
                f"{tensor.name}: expected {what} {tensor.shape}, "
                f"got {value.shape}"
            )
    else:  # local: leading axis indexes ranks of the group
        expected = (tensor.group.size,) + tensor.shape
        if tuple(value.shape) != expected:
            raise ExecutionError(
                f"{tensor.name} is local: expected shape {expected} "
                f"(group size leading), got {value.shape}"
            )
    return value


class SimWorld:
    """Rank-major tensor storage for a simulated run."""

    def __init__(self, num_ranks: int) -> None:
        if num_ranks <= 0:
            raise ExecutionError("world needs at least one rank")
        self.num_ranks = num_ranks
        #: name -> (group.size, *per_rank_shape)
        self._state: Dict[str, np.ndarray] = {}
        self._groups: Dict[str, ProcessGroup] = {}

    def place_input(
        self,
        tensor: Expr,
        value: np.ndarray,
        allow_downcast: Optional[bool] = None,
    ) -> None:
        """Distribute a global input array according to the tensor layout.

        The stored stack never aliases the caller's array: it is copied
        once, unless the dtype cast already made a fresh array.
        """
        placed = checked_input(tensor, value, allow_downcast)
        if np.may_share_memory(placed, value):
            placed = placed.copy()
        group = tensor.group
        if tensor.layout.is_replicated:
            stacked = replicate(placed, group.size)
        elif tensor.layout.is_sliced:
            dim = normalize_dim(tensor.layout.dim, len(tensor.shape))
            stacked = np.ascontiguousarray(
                scatter_axis(placed, dim, group.size, context=tensor.name)
            )
        else:
            stacked = placed
        self.set_state(tensor.name, stacked, group)

    def state(self, name: str) -> np.ndarray:
        """The stacked ``(group.size, *per_rank_shape)`` array of a tensor."""
        try:
            return self._state[name]
        except KeyError:
            raise ExecutionError(f"no value for tensor {name!r}") from None

    def set_state(
        self, name: str, stacked: np.ndarray, group: Optional[ProcessGroup] = None
    ) -> None:
        """Replace a tensor's stacked array (never mutate one in place)."""
        if group is not None:
            self._groups[name] = group
        elif name not in self._groups:
            raise ExecutionError(f"no group recorded for tensor {name!r}")
        self._state[name] = stacked

    def read_back(self, tensor: Expr) -> np.ndarray:
        """Reassemble a tensor's global value from its storage."""
        return unstack_global(
            self.state(tensor.name), tensor.layout, tensor.shape
        )


def place_inputs(
    program, inputs: Mapping[str, np.ndarray], allow_downcast: Optional[bool]
) -> SimWorld:
    """A fresh world holding a run's inputs, every name checked.

    Raises :class:`~repro.errors.ExecutionError` on a missing or an
    unknown input name (and, via :meth:`SimWorld.place_input`, on a
    wrong shape or a refused lossy downcast).
    """
    world = SimWorld(program.inputs[0].group.world_size)
    for t in program.inputs:
        if t.name not in inputs:
            raise ExecutionError(f"missing input {t.name!r}")
        world.place_input(
            t, np.asarray(inputs[t.name]), allow_downcast=allow_downcast
        )
    extra = set(inputs) - {t.name for t in program.inputs}
    if extra:
        raise ExecutionError(f"unknown inputs: {sorted(extra)}")
    return world
