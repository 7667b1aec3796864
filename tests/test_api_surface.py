"""The public API stays importable and coherent: everything the README
and the examples use must be exported where documented."""

import importlib

import pytest

import repro
from repro import errors


class TestPackageLayout:
    SUBPACKAGES = [
        "repro.core",
        "repro.core.transforms",
        "repro.core.codegen",
        "repro.cluster",
        "repro.nccl",
        "repro.perf",
        "repro.runtime",
        "repro.scattered",
        "repro.workloads",
        "repro.baselines",
        "repro.frontend",
    ]

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_imports(self, name):
        assert importlib.import_module(name) is not None

    def test_version(self):
        assert repro.__version__


class TestCoreExports:
    def test_all_names_resolve(self):
        core = importlib.import_module("repro.core")
        for name in core.__all__:
            assert hasattr(core, name), name

    def test_paper_vocabulary_present(self):
        # the paper's Table-1 vocabulary is the public surface
        core = importlib.import_module("repro.core")
        for name in (
            "AllReduce", "AllGather", "ReduceScatter", "Reduce",
            "Broadcast", "Send", "MatMul", "Conv2D", "Dropout", "Tanh",
            "ReLU", "Norm", "ReduceTensor", "Sqrt", "Pow", "Update",
            "Tensor", "Scalar", "Execute", "Sliced", "Replicated",
            "Local", "RANK", "GROUP", "GroupRank",
        ):
            assert name in core.__all__, name

    def test_transform_policies_present(self):
        t = importlib.import_module("repro.core.transforms")
        for name in (
            "Schedule", "ARSplitRSAG", "ARSplitReduceBroadcast",
            "ComputationFuse", "AllReduceFuse", "SendFuse",
        ):
            assert hasattr(t, name), name


class TestErrorHierarchy:
    def test_all_errors_derive_from_base(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if (
                isinstance(obj, type)
                and issubclass(obj, Exception)
                and obj is not errors.CoCoNetError
            ):
                assert issubclass(obj, errors.CoCoNetError), name

    def test_oom_is_execution_error(self):
        assert issubclass(errors.OutOfMemoryError, errors.ExecutionError)

    def test_catching_base_catches_all(self):
        from repro.core import FP16, Replicated, Tensor, world

        with pytest.raises(errors.CoCoNetError):
            Tensor(FP16, (7,), __import__(
                "repro.core.layout", fromlist=["Sliced"]
            ).Sliced(0), world(4), None)


class TestWorkloadsSurface:
    def test_workload_classes_exported(self):
        w = importlib.import_module("repro.workloads")
        for name in (
            "AdamWorkload", "LambWorkload", "AttentionWorkload",
            "PipelineWorkload", "ModelConfig", "BERT_336M", "GPT3_175B",
        ):
            assert hasattr(w, name), name

    def test_baselines_exported(self):
        b = importlib.import_module("repro.baselines")
        for name in (
            "FUSED_ADAM", "FUSED_LAMB", "NVBertStrategy",
            "PyTorchDDPStrategy", "ZeROStrategy", "CoCoNetStrategy",
        ):
            assert hasattr(b, name), name


class TestNoComparisonModes:
    """Product classes carry no option that only exists to be compared
    against: the oracles live in ``tests/oracle.py``."""

    REMOVED = ("reference", "baseline", "memoize", "scattered_metadata")

    @pytest.mark.parametrize(
        "path",
        [
            "repro.runtime.executor.Executor",
            "repro.runtime.world.SimWorld",
            "repro.perf.engine.Engine",
            "repro.core.autotuner.Autotuner",
            "repro.perf.program_cost.ProgramCostModel",
        ],
    )
    def test_constructor_takes_no_comparison_option(self, path):
        import inspect

        module, name = path.rsplit(".", 1)
        cls = getattr(importlib.import_module(module), name)
        params = inspect.signature(cls.__init__).parameters
        for option in self.REMOVED:
            assert option not in params, (path, option)


class TestOneModulePathIntoRanks:
    """Every rank runs the module source the parent generated: nothing
    rebuilds it from the artifact, and the launcher takes no knob that
    only restates the program."""

    @pytest.mark.parametrize(
        "name", ["CollectivePool", "_pool_worker", "_module_source"]
    )
    def test_spmd_helper_is_gone(self, name):
        spmd = importlib.import_module("repro.runtime.spmd")
        assert not hasattr(spmd, name)

    @pytest.mark.parametrize(
        "module, qualname, removed",
        [
            (
                "repro.runtime.spmd", "launch",
                ("artifact_text", "protocol", "codegen_target", "nranks",
                 "trace_capacity"),
            ),
            ("repro.runtime.executor", "Executor.run_spmd",
             ("nranks", "elastic")),
            ("repro.core.codegen", "GeneratedProgram.launch", ("nranks",)),
        ],
    )
    def test_launcher_takes_no_removed_option(self, module, qualname, removed):
        import inspect

        obj = importlib.import_module(module)
        for name in qualname.split("."):
            obj = getattr(obj, name)
        params = inspect.signature(obj).parameters
        for option in removed:
            assert option not in params, (qualname, option)

    def test_generated_program_carries_no_artifact(self):
        from repro.core.codegen import CodeGenerator, GeneratedProgram
        from repro.workloads.adam import AdamWorkload

        gen = CodeGenerator().generate(AdamWorkload.build(64, 4).program)
        for attr in ("artifact_text", "_artifact_text", "lowered"):
            assert not hasattr(GeneratedProgram, attr), attr
            assert not hasattr(gen, attr), attr


class TestOneRendezvousPath:
    """The SPMD communicator has one transport: every exchange is a
    chunked publication (a whole payload is one chunk), so neither the
    whole-buffer helpers nor a separate chunk-token path come back; the
    generated modules slice through ``runtime.world.slice_of``."""

    def test_chunk_token_is_gone(self):
        spmd = importlib.import_module("repro.runtime.spmd")
        assert not hasattr(spmd, "_ChunkToken")

    @pytest.mark.parametrize(
        "name",
        ["_exchange_group", "_publish", "_collect", "_read_payload",
         "_reduced_total", "_gather_rows", "_token_reduce", "_token_rows",
         "_chunk_wait", "_node_grid"],
    )
    def test_communicator_helper_is_gone(self, name):
        from repro.runtime.spmd import SpmdCommunicator

        assert not hasattr(SpmdCommunicator, name)

    def test_run_spmd_takes_no_protocol(self):
        import inspect

        from repro.runtime.executor import Executor

        params = inspect.signature(Executor.run_spmd).parameters
        assert "protocol" not in params

    @pytest.mark.parametrize(
        "name", ["take_slice", "write_slice", "slice_bounds"]
    )
    def test_device_slicing_helper_is_gone(self, name):
        dev = importlib.import_module("repro.core.codegen.device")
        assert not hasattr(dev, name)
        world = importlib.import_module("repro.runtime.world")
        assert dev.slice_of is world.slice_of
