"""The real-process SPMD backend against the lowered-interpreter oracle.

Differential harness: ``Executor.run_spmd`` — one OS process per rank,
shared-memory collectives — must be *bit-identical* (``np.array_equal``
on outputs and tensor states) to ``Executor.run_lowered`` across every
workload's original / named / autotuned schedules at real rank counts
(4 and 8). Plus the exception-safety regression: a kernel failing on
one rank must tear the whole run down without leaking shared-memory
segments or deadlocking peers.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import FP32
from repro.core import Replicated as Replicated_
from repro.core.autotuner import Autotuner
from repro.core.codegen import CodeGenerator, GeneratedProgram
from repro.core.tensor import Tensor
from repro.core.transforms import Schedule
from repro.errors import CodegenError, ExecutionError
from repro.runtime import Executor
from repro.runtime.spmd import build_layout, launch, run_threads
from repro.workloads.adam import AdamWorkload
from repro.workloads.attention import AttentionWorkload
from repro.workloads.lamb import LambWorkload
from repro.workloads.moe import MoEWorkload
from repro.workloads.pipeline import PipelineWorkload
from tests.conftest import spmd_segments


@pytest.fixture
def rng():
    return np.random.RandomState(0x59D0)


def optimizer_inputs(rng, n=4, N=64):
    return dict(
        g=rng.randn(n, N) * 0.1,
        p=rng.randn(N),
        m=rng.randn(N) * 0.01,
        v=np.abs(rng.randn(N)) * 0.01,
        lr=0.01,
        t=3.0,
    )


def attention_inputs(rng, hidden=16, batch=4, seq=8):
    return {
        "w": rng.randn(hidden, hidden),
        "b": rng.randn(hidden),
        "in": rng.randn(batch, seq, hidden),
        "r": rng.randn(batch, seq, hidden),
    }


def assert_spmd_parity(sched, inputs, **spmd_kwargs):
    """run_spmd ≡ run_lowered, bit-for-bit, outputs and states."""
    program = sched.program if isinstance(sched, Schedule) else sched
    ex = Executor()
    low = ex.run_lowered(sched, inputs, allow_downcast=True)
    spmd = ex.run_spmd(sched, inputs, allow_downcast=True, **spmd_kwargs)
    for o in program.outputs:
        np.testing.assert_array_equal(
            spmd.output(o.name), low.output(o.name), err_msg=o.name
        )
    for t in program.inputs:
        if isinstance(t, Tensor):
            np.testing.assert_array_equal(
                spmd.tensor_state(t.name),
                low.tensor_state(t.name),
                err_msg=f"state {t.name}",
            )


class TestSpmdParity:
    """Every workload × original/named schedules, at ≥ 4 real ranks."""

    def test_adam_all_schedules(self, rng):
        wl = AdamWorkload.build(64, 4)
        inputs = optimizer_inputs(rng)
        assert_spmd_parity(wl.program, inputs)
        for sched in wl.schedules().values():
            assert_spmd_parity(sched, inputs)

    def test_lamb_all_schedules(self, rng):
        wl = LambWorkload.build(64, 4)
        inputs = optimizer_inputs(rng)
        assert_spmd_parity(wl.program, inputs)
        for sched in wl.schedules().values():
            assert_spmd_parity(sched, inputs)

    def test_attention_all_schedules(self, rng):
        # includes CoCoNet: the ring GEMM→fused-collective chunk loop
        # executes with a real producer stream thread per rank
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32, dropout_seed=6)
        inputs = attention_inputs(rng)
        assert_spmd_parity(wl.program, inputs)
        for sched in wl.schedules().values():
            assert_spmd_parity(sched, inputs)

    def test_moe_all_schedules(self, rng):
        wl = MoEWorkload.build(3, 6, 8, world_size=4, dtype=FP32)
        inputs = {
            "x": rng.randn(4, 4, 3, 6),
            "w1": rng.randn(4, 6, 8),
            "w2": rng.randn(4, 8, 6),
        }
        assert_spmd_parity(wl.program, inputs)
        for sched in wl.schedules().values():
            assert_spmd_parity(sched, inputs)
        assert_spmd_parity(wl.schedule_hierarchical(node_size=2), inputs)

    def test_pipeline_all_schedules_at_8_ranks(self, rng):
        # 8 real processes, two stage groups, P2P sends between them
        wl = PipelineWorkload.build(
            2, 8, 16, world_size=8, num_groups=2, dtype=FP32, dropout_seed=5
        )
        inputs = {
            "in": rng.randn(4, 2, 8, 16),
            "b": rng.randn(16),
            "r": rng.randn(2, 8, 16),
        }
        assert_spmd_parity(wl.program, inputs)
        for sched in wl.schedules().values():
            assert_spmd_parity(sched, inputs)

    def test_autotuned_schedules(self, rng):
        # the autotuner's winner plus a sample of enumerated candidates
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32, dropout_seed=6)
        result = Autotuner(Cluster(1)).tune(wl.program)
        inputs = attention_inputs(rng)
        assert_spmd_parity(result.best.schedule, inputs)
        others = [c for c in result.candidates if c is not result.best]
        for cand in others[:3]:
            assert_spmd_parity(cand.schedule, inputs)

    def test_wire_simulation_does_not_change_numerics(self, rng):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32, dropout_seed=6)
        assert_spmd_parity(
            wl.schedule_coconet(), attention_inputs(rng),
            wire_s_per_mb=0.5,
        )

    def test_ring_overlap_with_alltoall_consumer(self, rng):
        # regression: overlap(mm, a2a) lowers to a ring loop whose
        # consumer is NOT a reduction — the orchestrator must fall back
        # to whole-buffer publication instead of opening a chunk token
        # the AllToAll's pair-wise exchange would leave dangling
        # (which deadlocked the site's next sequence number)
        from repro.core import (
            RANK, AllToAll, Execute, Local, MatMul, world,
        )
        from repro.core.tensor import Tensor as T

        W = world(4)
        x = T(FP32, (8, 16), Local, W, RANK, name="x")
        w = T(FP32, (16, 16), Replicated_, W, name="w")
        mm = MatMul(x, w, name="mm")
        a2a = AllToAll(mm, dim=0, name="a2a")
        prog = Execute("mm_a2a", [x, w], [a2a])
        sched = Schedule(prog)
        sched.overlap(mm, a2a)
        loops = sched.lowered().chunk_loops()
        assert loops and loops[0].ring
        inputs = {"x": rng.randn(4, 8, 16), "w": rng.randn(16, 16)}
        assert_spmd_parity(sched, inputs, timeout=60.0)


class TestSpmdInterface:
    def test_generator_rejects_unknown_target(self):
        with pytest.raises(CodegenError, match="target"):
            CodeGenerator(target="cuda")

    def test_generated_spmd_program_metadata(self):
        wl = AdamWorkload.build(64, 4)
        gen = CodeGenerator(target="spmd").generate(
            wl.schedule_fused()
        )
        assert isinstance(gen, GeneratedProgram)
        assert "run_rank(comm, inputs)" in gen.source
        assert gen.loc() > 0
        assert gen.kernel_sources  # one entry per kernel
        for name in gen.kernel_sources:
            assert gen.kernel_loc(name) > 0

    def test_layout_enumerates_groups_and_p2p_pairs(self):
        wl = PipelineWorkload.build(
            2, 8, 16, world_size=8, num_groups=2, dtype=FP32
        )
        layout = build_layout(wl.program)
        keys = set(layout.sites)
        assert any(k.startswith("g") for k in keys)
        # one p2p site per same-local-rank pair between the stage groups
        assert {f"p{r}>{r + 4}" for r in range(4)} <= keys

    def test_missing_and_unknown_inputs_rejected(self, rng):
        wl = AdamWorkload.build(64, 4)
        inputs = optimizer_inputs(rng)
        del inputs["v"]
        with pytest.raises(ExecutionError, match="missing input 'v'"):
            Executor().run_spmd(wl.program, inputs, allow_downcast=True)
        inputs = optimizer_inputs(rng)
        inputs["bogus"] = np.zeros(3)
        with pytest.raises(ExecutionError, match="unknown inputs"):
            Executor().run_spmd(wl.program, inputs, allow_downcast=True)


class TestPlacePerRank:
    """Every rank's input shard is its own writable buffer, so ranks
    running as threads can never see each other's in-place writes."""

    def _program(self):
        from repro.core import RANK, Execute, Local, Scalar, Sliced, world

        W = world(4)
        rep = Tensor(FP32, (8,), Replicated_, W, name="rep")
        sl = Tensor(FP32, (8, 2), Sliced(0), W, RANK, name="sl")
        loc = Tensor(FP32, (3,), Local, W, RANK, name="loc")
        lr = Scalar(FP32, name="lr", group=W)
        outs = [rep * lr, sl * 2.0, loc * 2.0]
        return Execute("place", [rep, sl, loc, lr], outs)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shards_are_private_and_writable(self, rng, dtype):
        from repro.runtime.spmd import _place_per_rank
        from tests.oracle import ReferenceWorld

        prog = self._program()
        inputs = {
            "rep": rng.randn(8).astype(dtype),
            "sl": rng.randn(8, 2).astype(dtype),
            "loc": rng.randn(4, 3).astype(dtype),
            "lr": np.asarray(rng.randn(), dtype=dtype),
        }
        shards = _place_per_rank(prog, inputs, allow_downcast=True)
        ref = ReferenceWorld(4)
        for t in prog.inputs:
            ref.place_input(t, inputs[t.name], allow_downcast=True)
        assert len(shards) == 4
        for name, value in inputs.items():
            rows = [shards[r][name] for r in range(4)]
            for r, row in enumerate(rows):
                np.testing.assert_array_equal(row, ref.storage[name][r])
                assert isinstance(row, np.ndarray), (name, r)
                assert row.flags.writeable, (name, r)
                assert not np.shares_memory(row, value), (name, r)
                for other in rows[r + 1:]:
                    assert not np.shares_memory(row, other), (name, r)


def _failing_on_rank_1(gen, docstring='"""collective kernel: avg"""'):
    """The module with a fault injected: rank 1 raises inside the
    kernel with ``docstring`` while its peers block in the rendezvous."""
    source = gen.source.replace(
        docstring,
        docstring + "\n"
        "    if comm.rank == 1:\n"
        "        raise RuntimeError('injected kernel fault')",
        1,
    )
    assert "injected kernel fault" in source
    return source


class TestSpmdTeardown:
    """A rank failing mid-collective must not leak segments or hang."""

    @pytest.mark.skipif(
        sys.platform != "linux", reason="/dev/shm inspection is Linux-only"
    )
    def test_failing_kernel_on_rank_1_tears_down_cleanly(self, rng):
        wl = AdamWorkload.build(64, 4)
        gen = CodeGenerator(target="spmd").generate(wl.program)
        source = _failing_on_rank_1(gen)
        before = spmd_segments()
        with pytest.raises(ExecutionError, match="rank 1") as err:
            launch(
                source, gen.program, optimizer_inputs(rng),
                allow_downcast=True, timeout=30.0,
            )
        assert "injected kernel fault" in str(err.value)
        # every shared-memory segment created by the run was unlinked
        assert spmd_segments() == before

    @pytest.mark.skipif(
        sys.platform != "linux", reason="/dev/shm inspection is Linux-only"
    )
    @pytest.mark.parametrize("case", ["collective", "overlap"])
    def test_in_process_failing_kernel_tears_down_cleanly(self, rng, case):
        # the thread launcher behind GeneratedProgram.run: peers abort
        # on the failure flag (well inside the 120 s wait deadline), no
        # segment and no rank or stream thread outlives the run
        if case == "collective":
            gen = CodeGenerator().generate(AdamWorkload.build(64, 4).program)
            source = _failing_on_rank_1(gen)
            inputs, op = optimizer_inputs(rng), "avg"
        else:
            # the consumer of a chunked GEMM raises while rank 1's
            # producer stream thread is publishing
            wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
            gen = CodeGenerator().generate(wl.schedule_coconet())
            source = _failing_on_rank_1(
                gen,
                '"""fused_collective kernel: '
                'rs_sum, sum_b, dropout, out, ag_out"""',
            )
            inputs, op = attention_inputs(rng), "overlap_0"
        before = spmd_segments()
        threads_before = set(threading.enumerate())
        t0 = time.monotonic()
        with pytest.raises(ExecutionError, match="rank 1") as err:
            run_threads(source, gen.program, inputs)
        assert time.monotonic() - t0 < 10.0
        assert "injected kernel fault" in str(err.value)
        assert err.value.context["rank"] == 1
        assert err.value.context["op"] == op
        assert spmd_segments() == before
        assert set(threading.enumerate()) == threads_before

    def test_successful_run_leaves_no_segments(self, rng):
        wl = AdamWorkload.build(64, 4)
        before = spmd_segments()
        Executor().run_spmd(
            wl.program, optimizer_inputs(rng), allow_downcast=True
        )
        assert spmd_segments() == before
