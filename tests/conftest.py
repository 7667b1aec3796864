"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import (
    FP32,
    RANK,
    AllReduce,
    Binary,
    Dropout,
    Execute,
    MatMul,
    Replicated,
    Sliced,
    Tensor,
    world,
)


def spmd_segments():
    """Names of the SPMD communicator segments now in ``/dev/shm``."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return set()
    return {f for f in os.listdir("/dev/shm") if f.startswith("spmd_")}


@pytest.fixture(scope="session", autouse=True)
def no_leaked_spmd_segments():
    """Fail the session if it leaves communicator segments behind:
    every launcher must unlink its pair, whether its ranks succeed,
    raise or die."""
    before = spmd_segments()
    yield
    leaked = sorted(spmd_segments() - before)
    assert not leaked, f"the test session leaked /dev/shm segments {leaked}"


@pytest.fixture
def rng():
    return np.random.RandomState(0xC0C0)


@pytest.fixture
def small_world():
    return world(4)


def build_attention_program(
    n=4, batch=4, seq=8, hidden=16, seed=42, dtype=FP32
):
    """Figure 3's program at test scale; returns (program, handles)."""
    W = world(n)
    w = Tensor(dtype, (hidden, hidden), Sliced(0), W, RANK, name="w")
    b = Tensor(dtype, (hidden,), Replicated, W, name="b")
    in_ = Tensor(dtype, (batch, seq, hidden), Sliced(2), W, RANK, name="in")
    r = Tensor(dtype, (batch, seq, hidden), Replicated, W, name="r")
    layer = MatMul(in_, w, name="layer")
    s = AllReduce("+", layer, name="sum")
    sum_b = Binary("+", s, b, name="sum_b")
    drop = Dropout(sum_b, 0.1, seed=seed, name="drop")
    out = Binary("+", drop, r, name="out")
    prog = Execute("attn", [w, in_, b, r], [out])
    handles = dict(
        layer=layer, allreduce=s, sum_b=sum_b, drop=drop, out=out,
        w=w, b=b, in_=in_, r=r,
    )
    return prog, handles


def attention_inputs(rng, batch=4, seq=8, hidden=16):
    return {
        "w": rng.randn(hidden, hidden),
        "b": rng.randn(hidden),
        "in": rng.randn(batch, seq, hidden),
        "r": rng.randn(batch, seq, hidden),
    }


@pytest.fixture
def attention_program():
    return build_attention_program()


def assert_matches_lowered(result, sched, inputs):
    """``result`` is bit-identical to ``run_lowered`` on every output
    and tensor state of the schedule's program."""
    from repro.runtime import Executor

    program = getattr(sched, "program", sched)
    ref = Executor().run_lowered(sched, inputs, allow_downcast=True)
    for o in program.outputs:
        np.testing.assert_array_equal(
            result.output(o.name), ref.output(o.name), err_msg=o.name
        )
    for t in program.inputs:
        if isinstance(t, Tensor):
            np.testing.assert_array_equal(
                result.tensor_state(t.name), ref.tensor_state(t.name),
                err_msg=f"state {t.name}",
            )
