"""Additional code-generation coverage: library collectives, Conv2D,
mixed precision, AR-form fused collectives, and emitted-source details."""

import numpy as np
import pytest

from repro.core import (
    FP16,
    FP32,
    RANK,
    AllReduce,
    Binary,
    Broadcast,
    Cast,
    Conv2D,
    Execute,
    Local,
    Norm,
    Reduce,
    ReduceTensor,
    Replicated,
    Sliced,
    Tensor,
    world,
)
from repro.core.codegen import CodeGenerator
from repro.core.transforms import (
    AllReduceFuse,
    ComputationFuse,
    Schedule,
)
from tests.conftest import assert_matches_lowered


@pytest.fixture
def rng():
    return np.random.RandomState(55)


def roundtrip(prog_or_sched, inputs, protocol="Simple"):
    """Generated module run in-process ≡ run_lowered, bit for bit."""
    sched = (
        prog_or_sched
        if isinstance(prog_or_sched, Schedule)
        else Schedule(prog_or_sched)
    )
    gen = CodeGenerator(protocol).generate(sched)
    assert_matches_lowered(gen.run(inputs), sched, inputs)
    return gen


class TestLibraryCollectives:
    def test_reduce_and_broadcast(self, rng):
        W = world(4)
        x = Tensor(FP32, (8,), Local, W, RANK, name="x")
        red = Reduce("+", x, root=1, name="red")
        bc = Broadcast(red, root=1, name="bc")
        prog = Execute("p", [x], [bc])
        roundtrip(prog, {"x": rng.randn(4, 8)})

    def test_reducescatter_standalone(self, rng):
        from repro.core import ReduceScatter, AllGather

        W = world(4)
        x = Tensor(FP32, (8,), Local, W, RANK, name="x")
        rs = ReduceScatter("+", x, name="rs")
        ag = AllGather(rs, name="ag")
        prog = Execute("p", [x], [ag])
        gen = roundtrip(prog, {"x": rng.randn(4, 8)})
        assert "comm.reducescatter" in gen.source
        assert "comm.allgather" in gen.source

    def test_max_allreduce(self, rng):
        W = world(4)
        x = Tensor(FP32, (8,), Local, W, RANK, name="x")
        ar = AllReduce("max", x, name="ar")
        prog = Execute("p", [x], [ar])
        roundtrip(prog, {"x": rng.randn(4, 8)})


class TestComputeCodegen:
    def test_conv2d(self, rng):
        W = world(2)
        x = Tensor(FP32, (1, 2, 6, 6), Replicated, W, name="x")
        k = Tensor(FP32, (3, 2, 3, 3), Replicated, W, name="k")
        conv = Conv2D(x, k, padding=1, name="conv")
        prog = Execute("p", [x, k], [conv])
        gen = roundtrip(prog, {"x": rng.randn(1, 2, 6, 6),
                               "k": rng.randn(3, 2, 3, 3)})
        assert "dev.conv2d" in gen.source

    def test_mixed_precision_cast_chain(self, rng):
        W = world(2)
        x = Tensor(FP32, (16,), Replicated, W, name="x")
        half = Cast(FP16, x, name="half")
        back = Cast(FP32, half, name="back")
        y = Binary("*", back, 2.0, name="y")
        prog = Execute("p", [x], [y])
        gen = roundtrip(prog, {"x": rng.randn(16)})
        assert "astype(np.float16)" in gen.source

    def test_norm_and_reducetensor_non_cross(self, rng):
        W = world(2)
        x = Tensor(FP32, (16,), Replicated, W, name="x")
        n = Norm(x, name="n")
        rt = ReduceTensor("max", x, name="rt")
        prog = Execute("p", [x], [Binary("+", n, rt, name="out")])
        roundtrip(prog, {"x": rng.randn(16)})

    def test_cross_rank_norm_in_fused_block(self, rng):
        W = world(4)
        from repro.core import ReduceScatter

        x = Tensor(FP32, (8,), Local, W, RANK, name="x")
        rs = ReduceScatter("+", x, name="rs")
        n = Norm(rs, name="n")
        scaled = Binary("*", rs, n, name="scaled")
        from repro.core import AllGather

        ag = AllGather(scaled, name="ag")
        prog = Execute("p", [x], [ag])
        sched = Schedule(prog)
        sched.fuse(n, scaled, policy=ComputationFuse)
        gen = roundtrip(sched, {"x": rng.randn(4, 8)})
        assert "AllReduce reusing the established connections" in gen.source


class TestFusedARForm:
    def test_allreduce_plus_compute_fusion(self, rng):
        """AllReduceFuse over a plain AR (no split): the AR branch of
        the fused-collective emitter."""
        W = world(4)
        x = Tensor(FP32, (8,), Local, W, RANK, name="x")
        ar = AllReduce("+", x, name="ar")
        y = Binary("*", ar, 3.0, name="y")
        z = Binary("+", y, 1.0, name="z")
        prog = Execute("p", [x], [z])
        sched = Schedule(prog)
        sched.fuse(ar, y, z, policy=AllReduceFuse)
        gen = roundtrip(sched, {"x": rng.randn(4, 8)})
        assert "comm.allreduce" in gen.source


class TestEmittedSource:
    def test_protocol_constant_embedded(self):
        W = world(2)
        x = Tensor(FP32, (8,), Local, W, RANK, name="x")
        prog = Execute("p", [x], [AllReduce("+", x, name="ar")])
        for proto in ("LL", "LL128", "Simple"):
            gen = CodeGenerator(proto).generate(prog)
            assert f'PROTOCOL = "{proto}"' in gen.source
            assert "PACK_BYTES" not in gen.source

    def test_groups_emitted_as_constants(self):
        from repro.core import split_world, Send
        from repro.core.ops import GROUP, GroupRank

        g0, g1 = split_world(8, 2)
        x = Tensor(FP32, (8,), Replicated, g0, name="x")
        s = Send(x, GroupRank(GROUP + 1, RANK), name="s")
        prog = Execute("p", [x], [s])
        gen = CodeGenerator().generate(prog)
        assert "G0_4 = ProcessGroup(0, 4, 8)" in gen.source
        assert "G4_4 = ProcessGroup(4, 4, 8)" in gen.source

    def test_docstrings_name_fused_ops(self, rng):
        prog_inputs = {"x": rng.randn(4, 8)}
        W = world(4)
        x = Tensor(FP32, (8,), Local, W, RANK, name="x")
        ar = AllReduce("+", x, name="ar")
        a = Binary("+", ar, 1.0, name="a")
        b = Binary("*", a, 2.0, name="b")
        prog = Execute("p", [x], [b])
        sched = Schedule(prog)
        sched.fuse(a, b, policy=ComputationFuse)
        gen = CodeGenerator().generate(sched)
        fused_src = next(
            s for name, s in gen.kernel_sources.items()
            if "computationfuse" in name
        )
        assert "a, b" in fused_src

    def test_schedule_lines_recorded(self):
        prog_w = world(4)
        x = Tensor(FP32, (8,), Local, prog_w, RANK, name="x")
        ar = AllReduce("+", x, name="ar")
        prog = Execute("p", [x], [ar])
        sched = Schedule(prog)
        gen = CodeGenerator().generate(sched)
        assert gen.schedule_lines == 0
