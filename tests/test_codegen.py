"""Tests for the code generator: differential execution against the
interpreter across schedules and protocols, plus LoC accounting."""

import numpy as np
import pytest

from repro.core import FP32
from repro.core.codegen import CodeGenerator, count_loc
from repro.core.codegen import device as dev
from repro.core.transforms import (
    AllReduceFuse,
    ARSplitRSAG,
    ComputationFuse,
    Schedule,
)
from repro.errors import CodegenError, ExecutionError
from repro.workloads.adam import AdamWorkload
from repro.workloads.attention import AttentionWorkload
from repro.workloads.pipeline import PipelineWorkload
from tests.conftest import (
    assert_matches_lowered,
    attention_inputs,
    build_attention_program,
)


@pytest.fixture
def rng():
    return np.random.RandomState(21)


def assert_generated_matches(sched, inputs, protocol="Simple"):
    """The generated module, run in-process, is bit-identical to the
    lowered interpreter on outputs and tensor states."""
    gen = CodeGenerator(protocol).generate(sched)
    assert_matches_lowered(gen.run(inputs), sched, inputs)
    return gen


class TestDeviceLibrary:
    def test_slice_bounds(self):
        x = np.arange(16).reshape(2, 8)
        np.testing.assert_array_equal(
            dev.slice_of(x, 1, 1, 4), [[2, 3], [10, 11]]
        )

    def test_slice_is_a_writable_view(self):
        # the generated Update store writes a rank's slice in place
        x = np.zeros(8)
        dev.slice_of(x, 0, 1, 4)[...] = 7.0
        np.testing.assert_array_equal(x, [0, 0, 7, 7, 0, 0, 0, 0])

    def test_uneven_slice_names_its_tensor(self):
        with pytest.raises(ExecutionError, match=r"not divisible.*\(in w\)"):
            dev.slice_of(np.zeros(6), 0, 0, 4, context="w")


class TestDifferentialExecution:
    @pytest.mark.parametrize("protocol", ["LL", "LL128", "Simple"])
    def test_attention_all_protocols(self, rng, protocol):
        inputs = attention_inputs(rng)
        prog, h = build_attention_program(seed=5)
        sched = Schedule(prog)
        rs, ag = sched.split(h["allreduce"])
        results = sched.reorder(ag, h["sum_b"], h["drop"], h["out"])
        sched.fuse(rs, *results, policy=AllReduceFuse)
        assert_generated_matches(sched, inputs, protocol)

    @pytest.mark.parametrize(
        "schedule", ["megatron", "mm_ar_c", "gshard", "coconet"]
    )
    def test_attention_all_schedules(self, rng, schedule):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32, dropout_seed=3)
        inputs = attention_inputs(rng, 4, 8, 16)
        sched = getattr(wl, f"schedule_{schedule}")()
        assert_generated_matches(sched, inputs)

    @pytest.mark.parametrize("schedule", ["ar_opt", "gshard", "fused"])
    def test_adam_all_schedules(self, rng, schedule):
        wl = AdamWorkload.build(32, 4, grad_dtype=FP32)
        inputs = dict(
            g=rng.randn(4, 32) * 0.1, p=rng.randn(32),
            m=rng.randn(32) * 0.01, v=np.abs(rng.randn(32)) * 0.01,
            lr=0.01, t=2.0,
        )
        sched = getattr(wl, f"schedule_{schedule}")()
        assert_generated_matches(sched, inputs)

    @pytest.mark.parametrize(
        "schedule", ["megatron", "ar_c_p2p_ag", "gshard", "coconet"]
    )
    def test_pipeline_all_schedules(self, rng, schedule):
        wl = PipelineWorkload.build(
            2, 8, 16, world_size=8, num_groups=2, dtype=FP32, dropout_seed=4
        )
        inputs = {
            "in": rng.randn(4, 2, 8, 16),
            "b": rng.randn(16),
            "r": rng.randn(2, 8, 16),
        }
        sched = getattr(wl, f"schedule_{schedule}")()
        assert_generated_matches(sched, inputs)

    def test_generated_overlap_runs_producer_in_chunk_order(self, rng):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
        sched = wl.schedule_coconet()
        (loop,) = sched.lowered().chunk_loops()
        # Figure 9's GEMM→collective pair lowers to a ring chunk loop
        assert loop.ring
        gen = CodeGenerator("Simple").generate(sched)
        orchestrator = gen.kernel_sources[loop.name]
        # the GEMM output is published chunk by chunk on a producer
        # stream while the consumer collective ingests it, and the
        # producer is joined even when the consumer raises
        assert "comm.begin_chunked(" in orchestrator
        assert "_producer = comm.start_stream(" in orchestrator
        assert "comm.publish_chunks(_token" in orchestrator
        finally_at = orchestrator.index("finally:")
        assert orchestrator.index("comm.join_streams(_producer)") > finally_at
        assert_generated_matches(sched, {
            "w": rng.randn(16, 16), "b": rng.randn(16),
            "in": rng.randn(4, 8, 16), "r": rng.randn(4, 8, 16),
        })


class TestLoCAccounting:
    def test_count_loc_ignores_blanks_and_comments(self):
        src = "a = 1\n\n# comment\nb = 2\n   # indented comment\n"
        assert count_loc(src) == 2

    def test_fused_generates_more_code_than_unfused(self):
        # Table 3's key relationship
        wl1 = AdamWorkload.build(32, 4, grad_dtype=FP32)
        unfused = CodeGenerator().generate(wl1.schedule_ar_opt())
        wl2 = AdamWorkload.build(32, 4, grad_dtype=FP32)
        fused = CodeGenerator().generate(wl2.schedule_fused())
        assert fused.loc() > 0 and unfused.loc() > 0
        assert fused.kernel_loc is not None

    def test_overlap_generates_most_code(self):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
        locs = {}
        for name in ("megatron", "mm_ar_c", "coconet"):
            wl2 = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
            sched = getattr(wl2, f"schedule_{name}")()
            locs[name] = CodeGenerator().generate(sched).loc()
        assert locs["coconet"] > locs["mm_ar_c"]

    def test_generated_loc_exceeds_dsl_loc(self):
        # "lines of generated code ... are significantly more than the
        # implementation in CoCoNet" (Table 3)
        wl = AdamWorkload.build(32, 4, grad_dtype=FP32)
        sched = wl.schedule_fused()
        gen = CodeGenerator().generate(sched)
        assert gen.loc() > sched.dsl_line_count()

    def test_kernel_sources_partition_named_kernels(self):
        wl = AdamWorkload.build(32, 4, grad_dtype=FP32)
        sched = wl.schedule_fused()
        gen = CodeGenerator().generate(sched)
        plan_names = {k.name for k in sched.plan().kernels}
        assert plan_names <= set(gen.kernel_sources)


class TestValidation:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(CodegenError):
            CodeGenerator("LL256")

    def test_per_rank_module_is_the_only_python_target(self):
        assert CodeGenerator().target == "spmd"
        with pytest.raises(CodegenError, match="target"):
            CodeGenerator(target="sim")

    def test_generated_module_is_importable_source(self):
        wl = AdamWorkload.build(32, 4, grad_dtype=FP32)
        gen = CodeGenerator().generate(wl.schedule_ar_opt())
        compile(gen.source, "<check>", "exec")  # no syntax errors
