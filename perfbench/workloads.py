"""The benchmark's three workloads and the public user path they drive.

One request runs the path a user of this library takes, every layer
through its public API::

    Workload.build -> Autotuner.tune (through a ScheduleCache)
      -> Schedule.lowered -> artifact.dumps / artifact.loads
      -> CodeGenerator.generate -> Executor.run_spmd (native, 2 ranks)

* ``adam-steps`` and ``moe-step`` pay one request in set-up (cold
  schedule cache, cold kernel cache: tune, put, ``cc`` compile, warm-up
  run), then time steps: ``CodeGenerator.generate`` of the tuned
  artifact plus ``Executor.run_spmd`` on warm caches.
* ``cold-requests`` times whole requests from a seeded stream over
  adam / lamb / moe / attention at small shapes, through a schedule
  cache and a kernel cache that start empty, drawn by the Zipf
  popularity of ``benchmarks/bench_serve.py``; three requests in four
  repeat an earlier one, so cache hits run beside tune + put + compile.

Every op's outputs and final tensor states are checked against
``Executor.run_lowered`` on the same ``repro.cli._seeded_inputs``:
bit-identical for elementwise programs, within the BLAS tolerance for
GEMM-bearing ones. ``repro`` is imported inside functions only (see
``measure``).
"""

from __future__ import annotations

import itertools
import os
from typing import Callable, Dict, List, Optional, Tuple

#: every workload runs on two rank processes
NRANKS = 2

#: fp16 GEMM tolerance documented for BLAS reassociation (the native
#: target upconverts to fp32 and accumulates in a different order)
FP16_GEMM_TOL = dict(rtol=1e-2, atol=1e-3)
#: fp32 GEMMs differ from numpy's BLAS only by accumulation order
FP32_GEMM_TOL = dict(rtol=1e-4, atol=1e-6)

#: adam-steps: ~2^20 fp16 gradient elements per step
ADAM_ELEMENTS = 1 << 20
#: moe-step: FP32 so the run_lowered oracle's GEMMs use BLAS (numpy's
#: fp16 matmul has no BLAS path and would take minutes at this size)
MOE_SHAPE = dict(capacity=2048, model_dim=512, ffn_dim=2048)
#: simulated wire seconds per published MiB on moe-step
MOE_WIRE_S_PER_MB = 0.15

#: cold-requests: the shapes and popularity of ``benchmarks/bench_serve.py``
#: (full mode), at 2 ranks: weights 1 / i**ZIPF_S over ``UNIVERSE``,
#: most popular first. Its four adam shapes above 2^15 elements are left
#: out: a hit at 2^16 elements or more runs as long as a miss at 2^10,
#: which would blur hits and misses, and adam-steps covers large adam.
ZIPF_S = 1.1
UNIVERSE = tuple(
    [("adam", (1 << k,)) for k in range(10, 16)]
    + [("lamb", (1 << k,)) for k in (10, 12)]
    + [("moe", (3, 6, 8, 0)), ("attention", (4, 8, 16))]
)
#: repeats of earlier requests (cache hits) per new request (a miss).
#: An assumption, not a measured share: with 3 hits in 4 the median op
#: is a hit and p90 a miss, so a change to either path shows (with 2
#: in 3, hits of the larger adam shapes outlast misses of small ones
#: often enough that the median op can be a miss).
REPEATS = 3
#: requests between two emptyings of both caches: one new request per
#: universe shape
EPOCH = (REPEATS + 1) * len(UNIVERSE)
#: set-up's warm-up requests: one per kind, shapes outside ``UNIVERSE``
WARMUP_REQUESTS = (
    ("adam", (3000,)), ("lamb", (3000,)), ("moe", (4, 16, 32, 0)),
    ("attention", (1, 4, 8)),
)


# ---------------------------------------------------------------------------
# Requests.
# ---------------------------------------------------------------------------


def build_workload(kind: str, shape: Tuple[int, ...]):
    from repro import workloads

    if kind == "adam":
        return workloads.AdamWorkload.build(shape[0], NRANKS)
    if kind == "lamb":
        return workloads.LambWorkload.build(shape[0], NRANKS)
    if kind == "moe":
        from repro.core import FP16, FP32

        cap, dm, ff, fp32 = shape
        return workloads.MoEWorkload.build(
            capacity=cap, model_dim=dm, ffn_dim=ff, world_size=NRANKS,
            dtype=FP32 if fp32 else FP16,
        )
    if kind == "attention":
        batch, seq, hidden = shape
        return workloads.AttentionWorkload.build(batch, seq, hidden, NRANKS)
    raise ValueError(f"unknown request kind {kind!r}")


def request_stream(seed: int, n: int) -> List[Tuple[str, tuple]]:
    """``n`` seeded (kind, shape) requests, drawn by ``UNIVERSE`` weight.

    Every ``REPEATS + 1``-th request is a shape not yet requested in its
    epoch (a miss); the others repeat a shape requested earlier in it.
    """
    import numpy as np

    rng = np.random.RandomState(seed)
    weights = np.arange(1, len(UNIVERSE) + 1, dtype=np.float64) ** -ZIPF_S
    seen = np.zeros(len(UNIVERSE), dtype=bool)
    stream = []
    for i in range(n):
        if i % EPOCH == 0:
            seen[:] = False
        new = i % (REPEATS + 1) == 0
        p = np.where(seen != new, weights, 0.0)
        j = rng.choice(len(UNIVERSE), p=p / p.sum())
        seen[j] = True
        stream.append(UNIVERSE[j])
    return stream


# ---------------------------------------------------------------------------
# The public user path, one layer span per call.
# ---------------------------------------------------------------------------


class Context:
    """Per-run state the ops share: caches, executor, tracer, seed."""

    def __init__(self, seed: int, tracer, work: str) -> None:
        from repro.cluster.topology import Cluster
        from repro.runtime.executor import Executor

        self.seed = seed
        self.tracer = tracer
        self.cluster = Cluster(1)
        self.executor = Executor()
        self.schedule = ""  # name of the last tuned schedule
        self._work = work
        self._generation = itertools.count()
        self._predicted: Dict[str, float] = {}
        self.fresh_caches()

    def fresh_caches(self) -> None:
        """Point the kernel and schedule caches at new empty directories.

        The caches are found through ``$REPRO_KERNEL_CACHE`` (read by
        every rank) and ``$REPRO_SCHEDULE_CACHE``; ``self.cache`` is a
        schedule cache over the new directory whose get/put are timed.
        """
        from repro.serve.cache import ScheduleCache

        n = next(self._generation)
        for var, sub in (("REPRO_KERNEL_CACHE", "kernels"),
                         ("REPRO_SCHEDULE_CACHE", "schedules")):
            path = os.path.join(self._work, f"{sub}{n}")
            os.makedirs(path)
            os.environ[var] = path

        class TimedScheduleCache(ScheduleCache):
            op = None

            def get(self, *args, **kwargs):
                with self.op.layer("serve.get"):
                    return super().get(*args, **kwargs)

            def put(self, record):
                with self.op.layer("serve.put"):
                    return super().put(record)

        self.cache = TimedScheduleCache()

    def predicted_s(self, art) -> float:
        """The cost model's makespan of a tuned artifact (memoized)."""
        if art.content_hash not in self._predicted:
            from repro.perf.program_cost import ProgramCostModel

            self._predicted[art.content_hash] = ProgramCostModel(
                self.cluster
            ).time(art)
        return self._predicted[art.content_hash]


def _inputs(op, ctx: Context, program):
    from repro.cli import _seeded_inputs

    with op.untimed():
        return _seeded_inputs(program, ctx.seed)


def run(op, ctx: Context, art, inputs, wire_s_per_mb: float = 0.0):
    """``CodeGenerator.generate`` + ``Executor.run_spmd`` on ``native``."""
    from repro.core.codegen import CodeGenerator

    with op.layer("codegen.generate"):
        CodeGenerator(target="native").generate(art)
    with op.layer("spmd.launch"):
        result = ctx.executor.run_spmd(
            art, inputs, allow_downcast=True, codegen_target="native",
            wire_s_per_mb=wire_s_per_mb,
            tracer=ctx.tracer if op.traced else None,
        )
    op.info["rank_body_s"] = result.spmd_seconds
    if op.traced:
        with op.untimed():
            op.info["predicted_s"] = ctx.predicted_s(art)
    return result


def request(op, ctx: Context, kind: str, shape: tuple, wire_s_per_mb=0.0):
    """One request end to end; returns (artifact, inputs, result)."""
    from repro.core import artifact
    from repro.core.autotuner import Autotuner
    from repro.observe import MetricsRegistry

    with op.layer("core.build"):
        program = build_workload(kind, shape).program
    inputs = _inputs(op, ctx, program)
    tuner_metrics = MetricsRegistry()
    ctx.cache.op = op
    tuner = Autotuner(
        ctx.cluster, metrics=tuner_metrics, schedule_cache=ctx.cache
    )
    hits0 = ctx.cache.metrics.snapshot()
    with op.layer("autotuner.tune"):
        tuned = tuner.tune(program)
    ctx.schedule = tuned.best.name
    with op.layer("lower.lower"):
        lowered = tuned.best.schedule.lowered()
    with op.layer("artifact.dumps"):
        text = artifact.dumps(lowered)
    with op.layer("artifact.loads"):
        art = artifact.loads(text)
    hits1 = ctx.cache.metrics.snapshot()
    op.info["artifact.bytes"] = float(len(text))
    for key in ("tuner.candidates", "tuner.pruned"):
        op.info[key] = tuner_metrics.get(key)
    for key in ("serve.cache.hits", "serve.cache.misses"):
        op.info[key] = hits1.get(key, 0) - hits0.get(key, 0)
    return art, inputs, run(op, ctx, art, inputs, wire_s_per_mb)


# ---------------------------------------------------------------------------
# Correctness.
# ---------------------------------------------------------------------------


class Oracle:
    """``Executor.run_lowered`` of an artifact plus the check contract."""

    def __init__(self, op, ctx: Context, art, inputs) -> None:
        import time

        import numpy as np

        from repro.core import ops
        from repro.core.tensor import Tensor

        program = art.program
        t0 = time.perf_counter()
        self.expected = ctx.executor.run_lowered(
            art, inputs, allow_downcast=True
        )
        op.info["executor.run_lowered_s"] = time.perf_counter() - t0
        self.states = [t.name for t in program.inputs if isinstance(t, Tensor)]
        gemm = any(isinstance(e, ops.MatMul) for e in program.operations)
        self.tol: Optional[dict] = None
        if gemm:
            fp16 = any(
                np.dtype(e.dtype.to_numpy()) == np.float16
                for e in program.operations
            )
            self.tol = FP16_GEMM_TOL if fp16 else FP32_GEMM_TOL

    def _same(self, got, want) -> bool:
        import numpy as np

        if self.tol is None:
            return got.dtype == want.dtype and np.array_equal(got, want)
        return np.allclose(
            got.astype(np.float64), want.astype(np.float64), **self.tol
        )

    def check(self, result) -> bool:
        exp = self.expected
        if result.output_names != exp.output_names:
            return False
        return all(
            self._same(result.output(n), exp.output(n))
            for n in exp.output_names
        ) and all(
            self._same(result.tensor_state(n), exp.tensor_state(n))
            for n in self.states
        )


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


class Steps:
    """A tuned schedule run step after step on warm caches."""

    #: set-up is one request, so its layers are reported per layer
    setup_layers = True

    def __init__(self, kind: str, shape: tuple, wire_s_per_mb: float):
        self.kind, self.shape, self.wire = kind, shape, wire_s_per_mb

    def setup(self, op, ctx: Context) -> None:
        self.art, self.inputs, self.warmup = request(
            op, ctx, self.kind, self.shape, self.wire
        )

    def prepare(self, op, ctx: Context) -> bool:
        """Compute the oracle once; check set-up's warm-up run."""
        self.oracle = Oracle(op, ctx, self.art, self.inputs)
        return self.oracle.check(self.warmup)

    def op(self, op, ctx: Context) -> bool:
        result = run(op, ctx, self.art, self.inputs, self.wire)
        with op.untimed():
            return self.oracle.check(result)


class ColdRequests:
    """A seeded stream of requests through caches that start empty."""

    #: set-up is several warm-up requests; timed ops cover every layer
    setup_layers = False

    def setup(self, op, ctx: Context) -> None:
        self.warmups = [
            request(op, ctx, kind, shape) for kind, shape in WARMUP_REQUESTS
        ]
        self.stream = request_stream(ctx.seed, 4 * EPOCH)

    def prepare(self, op, ctx: Context) -> bool:
        """Check the warm-up requests, then empty both caches."""
        ok = all(
            Oracle(op, ctx, art, inputs).check(result)
            for art, inputs, result in self.warmups
        )
        ctx.fresh_caches()
        return ok

    def op(self, op, ctx: Context) -> bool:
        if op.index and op.index % EPOCH == 0:
            with op.untimed():
                ctx.fresh_caches()
        key = self.stream[op.index % len(self.stream)]
        art, inputs, result = request(op, ctx, *key)
        with op.untimed():
            # not memoized: held oracles would grow this process's RSS
            return Oracle(op, ctx, art, inputs).check(result)


WORKLOADS: Dict[str, Callable[[], object]] = {
    "adam-steps": lambda: Steps("adam", (ADAM_ELEMENTS,), 0.0),
    "moe-step": lambda: Steps(
        "moe",
        (MOE_SHAPE["capacity"], MOE_SHAPE["model_dim"],
         MOE_SHAPE["ffn_dim"], 1),
        MOE_WIRE_S_PER_MB,
    ),
    "cold-requests": ColdRequests,
}
