"""Tests for the PyTorch-style integration layer (§5.5)."""

import numpy as np
import pytest

from repro.core import FP32
from repro.errors import CoCoNetError
from repro.frontend.integration import DistributedModule
from repro.runtime import Executor
from repro.workloads.adam import AdamWorkload, adam_reference
from tests.conftest import assert_matches_lowered


@pytest.fixture
def rng():
    return np.random.RandomState(31)


@pytest.fixture
def module():
    return DistributedModule()


class TestRegistration:
    def test_register_and_call(self, module, rng):
        wl = AdamWorkload.build(32, 4, grad_dtype=FP32)
        sched = wl.schedule_fused()
        fn = module.register(sched, name="adam_step")
        inputs = dict(
            g=rng.randn(4, 32) * 0.1, p=rng.randn(32),
            m=rng.randn(32) * 0.01, v=np.abs(rng.randn(32)) * 0.01,
            lr=0.01, t=1.0,
        )
        result = fn(inputs)
        # the registered function runs the generated per-rank module
        assert_matches_lowered(result, sched, inputs)
        p_ref, _, _ = adam_reference(
            inputs["g"], inputs["p"], inputs["m"], inputs["v"], 0.01, 1.0
        )
        np.testing.assert_allclose(
            result.tensor_state("p"), p_ref, rtol=1e-5
        )

    def test_attribute_access(self, module):
        wl = AdamWorkload.build(32, 4, grad_dtype=FP32)
        module.register(wl.schedule_ar_opt(), name="my_adam")
        assert module.my_adam.name == "my_adam"

    def test_unknown_attribute(self, module):
        with pytest.raises(AttributeError, match="no registered"):
            module.nothing

    def test_duplicate_name_rejected(self, module):
        wl = AdamWorkload.build(32, 4, grad_dtype=FP32)
        module.register(wl.schedule_ar_opt(), name="dup")
        wl2 = AdamWorkload.build(32, 4, grad_dtype=FP32)
        with pytest.raises(CoCoNetError, match="already registered"):
            module.register(wl2.schedule_ar_opt(), name="dup")

    def test_plain_program_registrable(self, module):
        wl = AdamWorkload.build(32, 4, grad_dtype=FP32)
        fn = module.register(wl.program, name="plain")
        assert fn.compiled.loc() > 0

    def test_invocation_counter(self, module, rng):
        wl = AdamWorkload.build(32, 4, grad_dtype=FP32)
        fn = module.register(wl.schedule_ar_opt(), name="counted")
        inputs = dict(
            g=rng.randn(4, 32), p=rng.randn(32), m=rng.randn(32),
            v=np.abs(rng.randn(32)), lr=0.01, t=1.0,
        )
        fn(inputs)
        fn(inputs)
        assert fn.invocations == 2


class TestScatteredArguments:
    def test_scattered_gradients_roundtrip(self, module, rng):
        """Scattered per-layer tensors flow through the compiled fused
        schedule without the user flattening them (§5.4 + §5.5)."""
        wl = AdamWorkload.build(32, 4, grad_dtype=FP32)
        fn = module.register(wl.schedule_fused(), name="scattered_adam")
        layer_params = [rng.randn(8), rng.randn(24)]
        table = fn.prepare_scattered("p", layer_params)
        assert table.total_elements == 32
        inputs = dict(
            g=rng.randn(4, 32) * 0.1,
            p=None,  # provided through the bucket table
            m=rng.randn(32) * 0.01, v=np.abs(rng.randn(32)) * 0.01,
            lr=0.01, t=1.0,
        )
        flat_before = table.gather_flat().copy()
        result = fn(inputs)
        # per-layer tensors received the updated values in place
        updated = np.concatenate(
            [t.reshape(-1) for t in layer_params]
        )
        np.testing.assert_allclose(
            updated, result.tensor_state("p").astype(np.float64), rtol=1e-6
        )
        assert not np.allclose(updated, flat_before)

    def test_bucket_table_lookup(self, module, rng):
        wl = AdamWorkload.build(32, 4, grad_dtype=FP32)
        fn = module.register(wl.schedule_ar_opt(), name="lookup")
        fn.prepare_scattered("p", [rng.randn(32)])
        assert fn.bucket_table("p").total_elements == 32
        with pytest.raises(CoCoNetError):
            fn.bucket_table("q")

    def test_init_process_group(self, module):
        module.init_process_group()
        assert module.nccl_initialized
