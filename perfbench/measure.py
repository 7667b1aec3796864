"""Outside-in measurement for the end-to-end benchmark.

Everything here observes the program from the benchmark's side of its
public API: layer spans around the calls the benchmark makes, the
per-rank trace rings the executor merges into a ``repro.observe.Tracer``,
``/proc`` for resident memory and leftover rank processes, and
``/dev/shm`` for leaked communicator segments. Nothing here imports
``repro`` at module level: the ``spawn`` start method re-imports the
driver's ``__main__`` in every rank, and the ranks must not pay for it.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Tuple

#: one rank process: ``multiprocessing`` spawn children run this entry
_RANK_CMDLINE = b"spawn_main"


def median(xs: Iterable[float]) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def p90(xs: Iterable[float]) -> float:
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def quantile_sides(xs: List[float], labels: List[str], q: float) -> str:
    """The labels of the samples the ``q`` quantile of ``xs`` lies between.

    Uses the same inclusive interpolation as ``median`` and ``p90``.
    """
    if not xs:
        return "-"
    order = sorted(range(len(xs)), key=xs.__getitem__)
    pos = (len(xs) - 1) * q
    lo, hi = labels[order[math.floor(pos)]], labels[order[math.ceil(pos)]]
    return lo if lo == hi else f"{lo}/{hi}"


# ---------------------------------------------------------------------------
# One operation's layer spans.
# ---------------------------------------------------------------------------


class Op:
    """Times one op from the call to a checked result.

    ``layer(name)`` records a span (category ``layer``) in the run's
    tracer around one call into a program layer; spans nest, and only
    depth-1 spans count toward the op's summed layer time. ``untimed()``
    brackets benchmark-only work (input generation, the correctness
    oracle) that is excluded from the op's wall-clock and CPU time.
    ``info`` carries what the op learned from the program's own results
    and counters.
    """

    def __init__(self, tracer, index: int, traced: bool) -> None:
        self.tracer = tracer
        self.index = index
        self.traced = traced
        self.info: Dict[str, float] = {}
        self.wall = 0.0
        self.cpu = 0.0
        self._depth = 0
        self._excluded = 0.0
        self._excluded_cpu = 0.0
        self._first_event = len(tracer.events)
        self._cpu0 = cpu_seconds()
        self._t0 = time.perf_counter()

    @contextmanager
    def layer(self, name: str):
        self._depth += 1
        try:
            with self.tracer.span(
                name, cat="layer", tid="bench", op=self.index,
                depth=self._depth,
            ):
                yield
        finally:
            self._depth -= 1

    @contextmanager
    def untimed(self):
        t0, cpu0 = time.perf_counter(), cpu_seconds()
        try:
            yield
        finally:
            self._excluded += time.perf_counter() - t0
            self._excluded_cpu += cpu_seconds() - cpu0

    def finish(self) -> float:
        self.wall = time.perf_counter() - self._t0 - self._excluded
        self.cpu = cpu_seconds() - self._cpu0 - self._excluded_cpu
        return self.wall

    def events(self) -> List[object]:
        return self.tracer.events[self._first_event:]

    def layer_seconds(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for e in self.events():
            if getattr(e, "cat", None) == "layer":
                out[e.name] = out.get(e.name, 0.0) + e.dur
        return out

    def top_level_seconds(self) -> float:
        return sum(
            e.dur for e in self.events()
            if getattr(e, "cat", None) == "layer" and e.args["depth"] == 1
        )


# ---------------------------------------------------------------------------
# Rank-body breakdown from the merged trace rings.
# ---------------------------------------------------------------------------


def _union(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    out: List[Tuple[float, float]] = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def _length(intervals: List[Tuple[float, float]]) -> float:
    return sum(b - a for a, b in intervals)


def _minus(a: List[Tuple[float, float]], b: List[Tuple[float, float]]) -> float:
    """Length of ``a`` not covered by ``b`` (both already unions)."""
    covered = 0.0
    for a0, a1 in a:
        for b0, b1 in b:
            covered += max(0.0, min(a1, b1) - max(a0, b0))
    return _length(a) - covered


def rank_breakdown(events: Iterable[object]) -> Dict[str, float]:
    """Compute and wait seconds per rank body, averaged over ranks.

    A rank's body starts at its first generated-kernel span; the comm
    spans before it are the start barrier. ``compute_s`` is kernel time
    not covered by a communicator span (publish, wait, reduce);
    ``wait_s`` is time spent spinning on peers. ``stalls`` counts the
    soft-deadline markers of every rank.
    """
    spans: Dict[str, Dict[str, list]] = {}
    stalls = 0
    for e in events:
        pid = getattr(e, "pid", "")
        if not pid.startswith("rank"):
            continue
        cat = getattr(e, "cat", "")
        if cat == "stall":
            stalls += 1
        if not hasattr(e, "dur"):
            continue
        spans.setdefault(pid, {}).setdefault(cat, []).append(
            (e.ts, e.ts + e.dur)
        )
    compute, wait = [], []
    for by_cat in spans.values():
        kernels = by_cat.get("kernel", [])
        if not kernels:
            continue
        start = min(a for a, _ in kernels)

        def body(cat: str) -> List[Tuple[float, float]]:
            return _union([iv for iv in by_cat.get(cat, []) if iv[0] >= start])

        comm = _union(body("publish") + body("wait") + body("reduce"))
        compute.append(_minus(_union(kernels), comm))
        wait.append(_length(body("wait")))
    return {
        "spmd.compute_s": statistics.fmean(compute) if compute else 0.0,
        "spmd.wait_s": statistics.fmean(wait) if wait else 0.0,
        "spmd.stalls": float(stalls),
    }


def ring_counters(metrics) -> Dict[str, float]:
    """Sum the per-rank trace-ring counters of one run over its ranks."""
    totals = {
        "bytes_published": 0.0, "kernel_compiles": 0.0,
        "compile_seconds": 0.0, "kernel_cache_hits": 0.0,
    }
    for name, value in metrics.snapshot().items():
        key = name.rsplit(".", 1)[-1]
        if name.startswith("spmd.rank") and key in totals:
            totals[key] += value
    return totals


# ---------------------------------------------------------------------------
# Aggregation of traced ops into per-layer metrics.
# ---------------------------------------------------------------------------

#: layer span name -> per-layer metric, for spans timed from outside
_SPAN_METRICS = {
    "core.build": "core.build_s",
    "lower.lower": "lower.lower_s",
    "artifact.dumps": "artifact.dumps_s",
    "artifact.loads": "artifact.loads_s",
    "codegen.generate": "codegen.generate_s",
    "serve.get": "serve.get_s",
    "serve.put": "serve.put_s",
    "spmd.launch": "spmd.launch_s",
}


class LayerStats:
    """Per-layer samples of traced ops, reduced to one value each.

    A time (and the candidates of a tune, the bytes of an artifact or
    of a run) is the median over the ops in which that layer ran; a
    kernel compile or stall count is its mean per traced op; a ratio
    divides totals over all traced ops. The step workloads record their
    set-up request as a traced op too, so layers that only run during
    set-up (tune, lower, artifact, compile) report its figures.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.totals: Dict[str, float] = {}
        self.ops = 0

    def _add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def _count(self, name: str, value: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + value

    def add(self, op: Op, ring_metrics) -> None:
        self.ops += 1
        layers = op.layer_seconds()
        for span, metric in _SPAN_METRICS.items():
            if span in layers:
                self._add(metric, layers[span])
        info = op.info
        if "autotuner.tune" in layers and info["tuner.candidates"]:
            # a tune that searched (a schedule-cache hit searches nothing);
            # the cache's get/put run inside tune(): report its self time
            self._add(
                "autotuner.tune_s",
                layers["autotuner.tune"]
                - layers.get("serve.get", 0.0) - layers.get("serve.put", 0.0),
            )
            self._add("autotuner.candidates", info["tuner.candidates"])
        for key in ("artifact.bytes", "executor.run_lowered_s"):
            if key in info:
                self._add(key, info[key])
        for key in ("tuner.candidates", "tuner.pruned",
                    "serve.cache.hits", "serve.cache.misses"):
            self._count(key, info.get(key, 0.0))
        if "spmd.launch" in layers and "rank_body_s" in info:
            body = info["rank_body_s"]
            self._add("spmd.rank_body_s", body)
            self._add("spmd.startup_s", layers["spmd.launch"] - body)
            if info.get("predicted_s"):
                self._add(
                    "perf.measured_over_predicted", body / info["predicted_s"]
                )
            for name, value in rank_breakdown(op.events()).items():
                if name == "spmd.stalls":
                    self._count(name, value)
                else:
                    self._add(name, value)
            ring = ring_counters(ring_metrics)
            self._add("spmd.bytes_published", ring["bytes_published"])
            self._count("codegen.kernel_compiles", ring["kernel_compiles"])
            self._count("codegen.kernel_cache_hits", ring["kernel_cache_hits"])
            if ring["kernel_compiles"]:
                self._add("codegen.compile_s", ring["compile_seconds"])
        self._add("residual_s", op.wall - op.top_level_seconds())

    def result(self) -> Dict[str, Tuple[float, int]]:
        """Metric -> (value, samples behind it)."""
        out = {k: (median(v), len(v)) for k, v in self.samples.items()}
        t, n = self.totals, max(1, self.ops)
        for name in ("spmd.stalls", "codegen.kernel_compiles"):
            out[name] = (t.get(name, 0.0) / n, self.ops)
        out["autotuner.pruned_ratio"] = (
            _ratio(t.get("tuner.pruned", 0.0), t.get("tuner.candidates", 0.0)),
            self.ops,
        )
        compiles = t.get("codegen.kernel_compiles", 0.0)
        out["codegen.kernel_cache_hit_ratio"] = (
            _ratio(t.get("codegen.kernel_cache_hits", 0.0),
                   t.get("codegen.kernel_cache_hits", 0.0) + compiles),
            self.ops,
        )
        hits = t.get("serve.cache.hits", 0.0)
        out["serve.hit_ratio"] = (
            _ratio(hits, hits + t.get("serve.cache.misses", 0.0)), self.ops
        )
        return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# ---------------------------------------------------------------------------
# Processes, memory and leaks, read from /proc and /dev/shm.
# ---------------------------------------------------------------------------


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return b""


def _status_kb(pid, field: bytes) -> int:
    for line in _read(f"/proc/{pid}/status").splitlines():
        if line.startswith(field):
            return int(line.split()[1])
    return 0


def child_pids() -> List[int]:
    me = os.getpid()
    pids: List[int] = []
    try:
        tids = os.listdir(f"/proc/{me}/task")
    except OSError:
        return pids
    for tid in tids:
        pids.extend(
            int(p) for p in _read(f"/proc/{me}/task/{tid}/children").split()
        )
    return pids


def live_ranks() -> List[int]:
    """Rank processes of this benchmark that are still alive."""
    return [
        pid for pid in child_pids()
        if _RANK_CMDLINE in _read(f"/proc/{pid}/cmdline")
    ]


def shm_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("spmd_")}
    except OSError:
        return set()


def _trim_heap() -> None:
    """Hand freed heap back to the OS."""
    import ctypes
    import gc

    gc.collect()
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


class PeakRss:
    """Peak RSS of this process and of the largest rank over one op.

    On entry the freed heap is trimmed and this process's high-water
    mark reset (``clear_refs``), so every op starts from the same
    baseline; the mark is read on exit. ``getrusage(RUSAGE_CHILDREN)``
    cannot be used for the ranks: a spawned child inherits the parent's
    peak at fork, so it would report the parent. Rank high-water marks
    (``VmHWM``) are sampled from ``/proc`` while the ranks live, by a
    thread whose CPU time is kept in ``sampler_cpu`` so that it can be
    taken out of the op's.
    """

    #: rank sampling period, seconds
    INTERVAL = 0.05

    def __init__(self) -> None:
        self.parent_kb = 0
        self.rank_kb = 0
        self.sampler_cpu = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.INTERVAL):
            for pid in live_ranks():
                self.rank_kb = max(self.rank_kb, _status_kb(pid, b"VmHWM:"))
        self.sampler_cpu = time.thread_time()

    def __enter__(self) -> "PeakRss":
        _trim_heap()
        try:
            with open("/proc/self/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.parent_kb = _status_kb("self", b"VmHWM:")

    @property
    def peak_mb(self) -> float:
        return max(self.parent_kb, self.rank_kb) / 1024.0


def cpu_seconds() -> float:
    """User + system time of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


# ---------------------------------------------------------------------------
# Host facts.
# ---------------------------------------------------------------------------


def _blas_threads(path: Optional[str]) -> Optional[int]:
    if not path:
        return None
    import ctypes

    try:
        lib = ctypes.CDLL(path)  # same handle the native target holds
    except OSError:
        return None
    for getter in ("openblas_get_num_threads",
                   "scipy_openblas_get_num_threads"):
        fn = getattr(lib, getter, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def host_facts(nranks: int) -> Dict[str, object]:
    import platform

    import numpy

    from repro.core.codegen import native

    tc = native.toolchain_report()
    usable = len(os.sched_getaffinity(0))
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
        "ranks": nranks,
        "oversubscribed": nranks > usable,
        "cc": tc["cc"],
        "cc_version": tc["cc_version"],
        "blas": tc["blas"],
        "blas_threads": _blas_threads(tc["blas"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
