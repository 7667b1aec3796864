"""Tuning-as-a-service: an ``asyncio`` front end over the schedule cache.

Production traffic (the ROADMAP north star) means many users submitting
``(workload, shape, dtype, topology)`` requests concurrently, where the
overwhelming majority repeat a small set of popular shapes. The
:class:`TuningService` turns the one-shot offline autotuner (paper §6)
into that service:

* **hits never touch the tuner** — a request whose
  ``(structural_hash, topology_signature)`` pair is already tuned is
  answered from an in-process memory layer (microseconds) or the
  persistent on-disk :class:`~repro.serve.cache.ScheduleCache`
  (one JSON read), on the event loop, without blocking on the pool;
* **identical in-flight misses coalesce** — the first request for an
  untuned pair dispatches one tuning task; every identical request
  arriving while it runs awaits the *same* task, so a burst of new
  traffic costs one search, not N (``serve.coalesced`` counts the
  riders);
* **misses run on a bounded pool** — tuning is CPU-bound search, so it
  executes in a ``ProcessPoolExecutor`` of at most ``max_workers``
  tuner processes (spawn context, like the SPMD backend); the worker
  writes the record through :class:`~repro.core.autotuner.Autotuner`'s
  ``schedule_cache`` hook, which also makes the worker itself
  race-safe: a concurrent process tuning the same pair just produces
  the same record behind the cache's file lock.

Every request lands one latency span (category ``serve``) in the
optional :class:`~repro.observe.Tracer` and bumps
``serve.*`` counters in the service's
:class:`~repro.observe.metrics.MetricsRegistry`.

Usage (the ``repro-serve`` CLI wraps exactly this; see
``docs/serving.md`` for the full tour)::

    import asyncio
    from repro.serve import ScheduleCache, TuneRequest, TuningService

    async def main():
        async with TuningService(ScheduleCache()) as svc:
            req = TuneRequest.make(
                "adam", num_elements=2**20, world_size=16, nodes=1)
            first = await svc.submit(req)    # miss: tunes on the pool
            again = await svc.submit(req)    # hit: answered in-process
            print(first.source, again.source)  # tuned memory
            return again.artifact            # execute/codegen/cost it

    asyncio.run(main())
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import Executor as _PoolExecutor
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Dict, Optional, Tuple

from repro.cluster.topology import Cluster
from repro.core.artifact import Artifact
from repro.core.autotuner import schedule_cache_key
from repro.core.dtypes import dtype_by_name
from repro.core.program import Program
from repro.errors import CoCoNetError
from repro.observe.metrics import MetricsRegistry
from repro.serve.cache import CachedSchedule, ScheduleCache

__all__ = [
    "ServeError",
    "ServeResult",
    "TuneRequest",
    "TuningService",
    "WORKLOADS",
    "request_key",
]

DEFAULT_MAX_DEPTH = 3


class ServeError(CoCoNetError):
    """A malformed tuning request or a misused service."""


# ---------------------------------------------------------------------------
# Requests: picklable (workload, shape, dtype, topology) descriptors.
# ---------------------------------------------------------------------------

#: workload name -> required integer parameters, in declaration order.
#: Builders live in :meth:`TuneRequest.build_program`; adding a workload
#: means one entry here plus one branch there.
WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "adam": ("num_elements", "world_size"),
    "lamb": ("num_elements", "world_size"),
    "moe": ("capacity", "model_dim", "ffn_dim", "world_size"),
    "attention": ("batch", "seq", "hidden", "world_size"),
}


@dataclass(frozen=True)
class TuneRequest:
    """One tuning/serving request: what to tune, at what size, where.

    Frozen and hashable so it can key the service's in-process maps,
    and built from plain strings/ints so it pickles to the tuner worker
    processes unchanged. ``params`` is a sorted tuple of ``(name,
    value)`` pairs; use :meth:`make` rather than spelling that out.

    >>> req = TuneRequest.make("adam", num_elements=1024, world_size=4)
    >>> req.params_dict()["num_elements"]
    1024
    >>> TuneRequest.from_spec(req.spec()) == req
    True
    """

    workload: str
    params: Tuple[Tuple[str, int], ...]
    dtype: str = "FP16"
    nodes: int = 1

    @classmethod
    def make(
        cls, workload: str, dtype: str = "FP16", nodes: int = 1, **params
    ) -> "TuneRequest":
        """Build a validated request; unknown workloads/params raise."""
        required = WORKLOADS.get(workload)
        if required is None:
            raise ServeError(
                f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}"
            )
        missing = [p for p in required if p not in params]
        extra = [p for p in params if p not in required]
        if missing or extra:
            raise ServeError(
                f"workload {workload!r} takes parameters {required}; "
                f"missing {missing}, unexpected {extra}"
            )
        if nodes < 1:
            raise ServeError("nodes must be >= 1")
        dtype_by_name(dtype)  # raises on unknown names
        return cls(
            workload=workload,
            params=tuple(sorted((k, int(v)) for k, v in params.items())),
            dtype=dtype,
            nodes=int(nodes),
        )

    def params_dict(self) -> Dict[str, int]:
        return dict(self.params)

    def spec(self) -> Dict[str, Any]:
        """Plain-JSON form (what the CLI's replay files contain)."""
        return {
            "workload": self.workload,
            "params": self.params_dict(),
            "dtype": self.dtype,
            "nodes": self.nodes,
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "TuneRequest":
        return cls.make(
            spec["workload"],
            dtype=spec.get("dtype", "FP16"),
            nodes=spec.get("nodes", 1),
            **spec.get("params", {}),
        )

    def describe(self) -> str:
        shape = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.workload}({shape}) {self.dtype} nodes={self.nodes}"

    # -- materialization ----------------------------------------------------

    def cluster(self) -> Cluster:
        return Cluster(self.nodes)

    def build_program(self) -> Program:
        """The workload's DSL program at this request's shape/dtype."""
        dt = dtype_by_name(self.dtype)
        p = self.params_dict()
        if self.workload == "adam":
            from repro.workloads.adam import AdamWorkload

            return AdamWorkload.build(
                p["num_elements"], p["world_size"], grad_dtype=dt
            ).program
        if self.workload == "lamb":
            from repro.workloads.lamb import LambWorkload

            return LambWorkload.build(
                p["num_elements"], p["world_size"], grad_dtype=dt
            ).program
        if self.workload == "moe":
            from repro.workloads.moe import MoEWorkload

            return MoEWorkload.build(
                p["capacity"], p["model_dim"], p["ffn_dim"],
                p["world_size"], dtype=dt,
            ).program
        if self.workload == "attention":
            from repro.workloads.attention import AttentionWorkload

            return AttentionWorkload.build(
                p["batch"], p["seq"], p["hidden"], p["world_size"], dtype=dt,
            ).program
        raise ServeError(  # pragma: no cover - make() guards this
            f"unknown workload {self.workload!r}"
        )


def request_key(request: TuneRequest) -> Tuple[str, str]:
    """The cache pair for a request: :func:`schedule_cache_key` of its
    program, the key :meth:`Autotuner.tune`'s cache hook uses. It is
    name-free, so every process maps the same (workload, shape, dtype)
    to the same key regardless of its value-name counter."""
    return schedule_cache_key(request.build_program(), request.cluster())


# ---------------------------------------------------------------------------
# The tuner worker (runs in a pool process; must stay module-level).
# ---------------------------------------------------------------------------


def _tune_worker(
    spec: Dict[str, Any], cache_path: str, max_depth: int
) -> str:
    """Tune one request and return its cache record's JSON text.

    The Autotuner's ``schedule_cache`` hook does the heavy lifting: it
    re-checks the cache (another process may have finished the same
    tune first — its record is simply reused) and writes the winning
    schedule through the flock-guarded atomic path on a miss.
    """
    from repro.core.autotuner import Autotuner

    request = TuneRequest.from_spec(spec)
    cache = ScheduleCache(cache_path)
    result = Autotuner(
        request.cluster(), max_depth=max_depth, schedule_cache=cache,
    ).tune(request.build_program())
    with open(cache.record_path(*result.cache_key)) as f:
        return f.read()


# ---------------------------------------------------------------------------
# The service.
# ---------------------------------------------------------------------------


@dataclass
class ServeResult:
    """One answered request.

    ``source`` says where the schedule came from: ``memory`` (the
    service's in-process layer), ``disk`` (the persistent cache),
    ``tuned`` (this request triggered the tuning task) or ``coalesced``
    (this request rode an identical in-flight tune).
    """

    request: TuneRequest
    structural_hash: str
    topology: str
    source: str
    latency_seconds: float
    schedule_name: str
    predicted_time: float
    artifact: Artifact

    @property
    def hit(self) -> bool:
        return self.source in ("memory", "disk")


class TuningService:
    """Async server answering tune requests at cache-hit latency.

    ``pool`` defaults to a spawn-context ``ProcessPoolExecutor`` of
    ``max_workers`` tuner processes, created lazily on the first miss
    (a hot cache never forks anything); tests may inject any
    ``concurrent.futures`` executor. Use as an async context manager,
    or call :meth:`close` when done.
    """

    def __init__(
        self,
        cache: Optional[ScheduleCache] = None,
        max_workers: int = 2,
        max_depth: int = DEFAULT_MAX_DEPTH,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
        pool: Optional[_PoolExecutor] = None,
    ) -> None:
        self.cache = cache if cache is not None else ScheduleCache()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if self.cache.metrics is not self.metrics:
            # one registry for the whole service: cache counters
            # (hits/misses/corrupt/evictions) join the request counters
            self.cache.metrics = self.metrics
        self.tracer = tracer
        self.max_depth = max_depth
        if max_workers < 1:
            raise ServeError("max_workers must be >= 1")
        self._max_workers = max_workers
        self._pool: Optional[_PoolExecutor] = pool
        self._owns_pool = pool is None
        self._memory: Dict[Tuple[str, str], CachedSchedule] = {}
        self._keys: Dict[TuneRequest, Tuple[str, str]] = {}
        self._inflight: Dict[Tuple[str, str], asyncio.Task] = {}
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    async def __aenter__(self) -> "TuningService":
        return self

    async def __aexit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        self._closed = True
        if self._owns_pool and self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _ensure_pool(self) -> _PoolExecutor:
        if self._closed:
            raise ServeError("service is closed")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._max_workers,
                mp_context=get_context("spawn"),
            )
        return self._pool

    # -- the request path ---------------------------------------------------

    def _key_of(self, request: TuneRequest) -> Tuple[str, str]:
        """(structural_hash, topology) for a request, memoized.

        The first sighting of a shape pays one build+lower+hash (a few
        ms); every repeat is a dict lookup, which is what keeps warm
        requests at microsecond latency.
        """
        key = self._keys.get(request)
        if key is None:
            key = request_key(request)
            self._keys[request] = key
        return key

    async def submit(self, request: TuneRequest) -> ServeResult:
        """Answer one request; never blocks the loop on a cache hit."""
        if self._closed:
            raise ServeError("service is closed")
        t0 = time.perf_counter()
        self.metrics.inc("serve.requests")
        key = self._key_of(request)

        rec = self._memory.get(key)
        source = "memory"
        if rec is None:
            rec = self.cache.get(*key)  # one small-file JSON read
            source = "disk"
        if rec is None:
            self.metrics.inc("serve.misses")
            task = self._inflight.get(key)
            if task is None:
                source = "tuned"
                self.metrics.inc("serve.tunes")
                task = asyncio.get_running_loop().create_task(
                    self._tune(request, key)
                )
                self._inflight[key] = task
            else:
                source = "coalesced"
                self.metrics.inc("serve.coalesced")
            # shield: one awaiting client being cancelled must not
            # cancel the shared tuning task out from under the others
            rec = await asyncio.shield(task)
        else:
            self.metrics.inc(f"serve.hits.{source}")
            self._memory[key] = rec

        latency = time.perf_counter() - t0
        self.metrics.inc("serve.request_seconds", latency)
        if self.tracer is not None:
            self.tracer.complete(
                f"{request.workload}:{source}",
                self.tracer.now() - latency,
                latency,
                cat="serve",
                args={
                    "request": request.describe(),
                    "source": source,
                    "structural_hash": key[0],
                },
            )
        return ServeResult(
            request=request,
            structural_hash=key[0],
            topology=key[1],
            source=source,
            latency_seconds=latency,
            schedule_name=rec.schedule_name,
            predicted_time=rec.predicted_time,
            artifact=rec.artifact,
        )

    async def _tune(
        self, request: TuneRequest, key: Tuple[str, str]
    ) -> CachedSchedule:
        t0 = time.perf_counter()
        loop = asyncio.get_running_loop()
        try:
            text = await loop.run_in_executor(
                self._ensure_pool(),
                _tune_worker,
                request.spec(), self.cache.path, self.max_depth,
            )
        finally:
            self._inflight.pop(key, None)
        rec = CachedSchedule.from_json(json.loads(text))
        self._memory[key] = rec
        self.metrics.inc("serve.tune_seconds", time.perf_counter() - t0)
        return rec

    async def submit_many(self, requests) -> "list[ServeResult]":
        """Submit a batch concurrently; results in request order."""
        return list(
            await asyncio.gather(*(self.submit(r) for r in requests))
        )

    def stats(self) -> Dict[str, float]:
        """Service + cache counters, plus the live cache entry count."""
        out = self.cache.stats()
        out["serve.memory_entries"] = float(len(self._memory))
        out["serve.inflight"] = float(len(self._inflight))
        return out
