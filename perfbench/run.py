"""End-to-end benchmark of the CoCoNet reproduction: wall-clock per op,
set-up, CPU and memory, with a traced per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload adam-steps --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload moe-step --seed 1 --seconds 20 --trace 1

One process is a closed-loop single client: it sends the next op only
after the previous one returned a checked result. ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
ops and prints the per-layer metrics with a readable table. The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Host facts are printed on the line before it.

Only the standard library is imported at module level: the ``spawn``
start method re-imports this file in every rank process.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import time
import traceback
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: ops run even when the ops outlast --seconds (moe-step's ~4 s ops)
MIN_OPS = 10
#: set-up samples per run: this process plus fresh subprocesses
SETUP_SAMPLES = 3
#: fresh-interpreter ``import repro.runtime.spmd`` samples (traced run)
IMPORT_SAMPLES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("adam-steps", "moe-step", "cold-requests"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def setup_in_subprocess(args) -> float:
    """Set-up time of a fresh process (cold import and cold caches)."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=170,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def rank_import_s() -> float:
    """Wall-clock of a fresh ``python -c "import repro.runtime.spmd"``."""
    from measure import median

    samples = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.runtime.spmd"],
            cwd=ROOT, env=_env(), check=True, timeout=60,
        )
        samples.append(time.perf_counter() - t0)
    return median(samples)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(ROOT, ".perfbench_work", uuid.uuid4().hex[:12])
    os.makedirs(os.path.join(work, "tmp"))
    # rank trace rings and cc temporaries stay inside the checkout
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    try:
        return measure_run(args, work, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker this run started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def measure_run(args, work: str, t_start: float) -> int:
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR
    from measure import (
        LayerStats, Op, PeakRss, host_facts, live_ranks, median, p90,
        quantile_sides, shm_segments,
    )
    from workloads import NRANKS, WORKLOADS, Context

    from repro.observe import MetricsRegistry, Tracer

    shm_before = shm_segments()
    tracer = Tracer(pid="bench")
    ctx = Context(args.seed, tracer, work)
    bench = WORKLOADS[args.workload]()
    traced = bool(args.trace)

    setup_op = Op(tracer, -1, traced)
    bench.setup(setup_op, ctx)
    setup_s = time.perf_counter() - t_start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_op.finish()
    setup_ok = bench.prepare(setup_op, ctx)
    layers = LayerStats()
    if traced and bench.setup_layers:
        layers.add(setup_op, tracer.metrics)

    walls, traced_walls, peaks, sources = [], [], [], []
    attempted = failed = 0
    cpu = 0.0
    # one op of each pair is traced, picked by a seeded coin, so the
    # traced half does not follow a workload's own period
    # (cold-requests sends a miss every fourth op)
    coins = random.Random(args.seed)
    t_loop = time.perf_counter()
    while time.perf_counter() - t_loop < args.seconds or attempted < MIN_OPS:
        if attempted % 2 == 0:
            first = coins.random() < 0.5
        with PeakRss() as rss:
            op = Op(
                tracer, attempted, traced and (attempted % 2 == 0) == first
            )
            tracer.metrics = MetricsRegistry()  # per-op ring counters
            try:
                ok = bench.op(op, ctx)
            except Exception:  # noqa: BLE001 - counted, reported
                ok = False
                print(f"op {attempted} failed:", file=sys.stderr)
                traceback.print_exc()
            op.finish()
        cpu += op.cpu - rss.sampler_cpu
        leaked = shm_segments() - shm_before
        if leaked or live_ranks():
            print(f"op {attempted} leaked: {sorted(leaked)}", file=sys.stderr)
            shm_before |= leaked
            ok = False
        attempted += 1
        if not ok:
            failed += 1
            continue
        peaks.append(rss)
        if op.traced:
            traced_walls.append(op.wall)
            layers.add(op, tracer.metrics)
        else:
            walls.append(op.wall)
            if "serve.cache.hits" in op.info:  # the op was a request
                sources.append(
                    "hit" if op.info["serve.cache.hits"] else "miss"
                )
    cpu_per_op = cpu / attempted

    host = host_facts(NRANKS)
    if host["oversubscribed"]:
        print(f"warning: {NRANKS} ranks on {host['usable_cpus']} usable "
              "cores; figures are oversubscribed", file=sys.stderr)
    print("host: " + json.dumps(host, sort_keys=True))
    if traced:
        values = layers.result()
        values["spmd.rank_import_s"] = (rank_import_s(), IMPORT_SAMPLES)
        values["observe.overhead_ratio"] = (
            median(traced_walls) / median(walls) if walls and traced_walls
            else 0.0,
            len(traced_walls),
        )
        metrics = per_layer_metrics(values)
        print_table(args.workload, values, metrics)
    else:
        setups = [setup_s] + [
            setup_in_subprocess(args) for _ in range(SETUP_SAMPLES - 1)
        ]
        metrics = {
            "op_s.p50": (median(walls), "s"),
            "op_s.p90": (p90(walls), "s"),
            "setup_s": (median(setups), "s"),
            "cpu_s_per_op": (cpu_per_op, "s"),
            "peak_rss_mb": (median(r.peak_mb for r in peaks), "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
        print(f"{args.workload}: {attempted} ops ({len(walls)} timed), "
              f"{failed} failed; op_s p50 {median(walls):.4f} "
              f"p90 {p90(walls):.4f}; setup samples "
              + ", ".join(f"{s:.3f}" for s in setups)
              + f"; set-up schedule {ctx.schedule!r}; per-op peak rss: "
              f"parent {median(r.parent_kb for r in peaks) / 1024:.1f} MB, "
              f"rank {median(r.rank_kb for r in peaks) / 1024:.1f} MB")
        if sources:
            print(f"schedule-cache hits {sources.count('hit')}/"
                  f"{len(sources)}; p50 op a "
                  f"{quantile_sides(walls, sources, 0.5)}, p90 op a "
                  f"{quantile_sides(walls, sources, 0.9)}")
    print(json.dumps({
        "correct": failed == 0 and setup_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
        },
    }))
    return 0


#: per-layer metric -> unit, in the order the table prints them
PER_LAYER = {
    "spmd.launch_s": "s",
    "spmd.startup_s": "s",
    "spmd.rank_import_s": "s",
    "spmd.rank_body_s": "s",
    "spmd.compute_s": "s",
    "spmd.wait_s": "s",
    "spmd.bytes_published": "bytes",
    "spmd.stalls": "count",
    "codegen.generate_s": "s",
    "codegen.compile_s": "s",
    "codegen.kernel_compiles": "count",
    "codegen.kernel_cache_hit_ratio": "ratio",
    "autotuner.tune_s": "s",
    "autotuner.candidates": "count",
    "autotuner.pruned_ratio": "ratio",
    "perf.measured_over_predicted": "ratio",
    "serve.get_s": "s",
    "serve.put_s": "s",
    "serve.hit_ratio": "ratio",
    "core.build_s": "s",
    "lower.lower_s": "s",
    "artifact.dumps_s": "s",
    "artifact.loads_s": "s",
    "artifact.bytes": "bytes",
    "executor.run_lowered_s": "s",
    "residual_s": "s",
    "observe.overhead_ratio": "ratio",
}


def per_layer_metrics(values) -> dict:
    return {
        name: (values.get(name, (0.0, 0))[0], unit)
        for name, unit in PER_LAYER.items()
    }


def print_table(workload: str, values, metrics) -> None:
    print(f"\nper-layer breakdown, {workload} (traced run)")
    print(f"{'metric':34} {'value':>14} {'unit':6} {'n':>4}")
    for name, (value, unit) in metrics.items():
        n = values.get(name, (0.0, 0))[1]
        shown = f"{value:.6f}" if unit in ("s", "ratio") else f"{value:.1f}"
        print(f"{name:34} {shown:>14} {unit:6} {n:>4}")
    print()


if __name__ == "__main__":
    sys.exit(main())
