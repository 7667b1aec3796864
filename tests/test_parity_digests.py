"""The frozen parity matrix: committed digests every backend reproduces.

``tests/golden/parity_digests.json`` records the ``repro-run`` digest
(SHA-256 over every output and final tensor state, on the CLI's seeded
inputs) of ``Executor.run_lowered`` for each cell of the parity matrix:
the adam, lamb, attention, moe and pipeline workloads at the
``tests/test_spmd.py`` shapes, each with its original program, every
named schedule and the autotuner's winner (``Cluster(1)``, depth 2).
Every cell runs through a serialized artifact, as ``repro-run`` does.

The digests pin the answers themselves, not only the agreement between
backends: ``run_lowered`` and the generated per-rank module with ranks
as threads (``GeneratedProgram.run``) must both reproduce every one.
Regenerate the file only for an intended numerics change::

    PYTHONPATH=src python tests/test_parity_digests.py
"""

import functools
import json
import os
import sys

import pytest

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden",
    "parity_digests.json",
)
#: the autotuner's BFS depth for the ``autotuned`` cells
TUNE_DEPTH = 2


def _workloads():
    from repro.core import FP32
    from repro.workloads.adam import AdamWorkload
    from repro.workloads.attention import AttentionWorkload
    from repro.workloads.lamb import LambWorkload
    from repro.workloads.moe import MoEWorkload
    from repro.workloads.pipeline import PipelineWorkload

    return {
        "adam": lambda: AdamWorkload.build(64, 4),
        "lamb": lambda: LambWorkload.build(64, 4),
        "attention": lambda: AttentionWorkload.build(
            4, 8, 16, 4, dtype=FP32, dropout_seed=6
        ),
        "moe": lambda: MoEWorkload.build(3, 6, 8, world_size=4, dtype=FP32),
        "pipeline": lambda: PipelineWorkload.build(
            2, 8, 16, world_size=8, num_groups=2, dtype=FP32,
            dropout_seed=5,
        ),
    }


@functools.lru_cache(maxsize=None)
def cells(workload: str):
    """``{cell id: serialized artifact}`` for one workload's row."""
    from repro.cluster import Cluster
    from repro.core import artifact
    from repro.core.autotuner import Autotuner

    wl = _workloads()[workload]()
    scheds = {f"{workload}/original": wl.program}
    for name, sched in wl.schedules().items():
        scheds[f"{workload}/named/{name}"] = sched
    tuned = Autotuner(Cluster(1), max_depth=TUNE_DEPTH).tune(wl.program)
    scheds[f"{workload}/autotuned"] = tuned.best.schedule
    return {
        cell: artifact.loads(artifact.dumps(sched))
        for cell, sched in scheds.items()
    }


def _lowered_digest(art) -> str:
    from repro.cli import _digest, _seeded_inputs
    from repro.runtime import Executor

    inputs = _seeded_inputs(art.program, 0)
    return _digest(Executor().run_lowered(art, inputs, allow_downcast=True))


def _threads_digest(art) -> str:
    from repro.cli import _digest, _seeded_inputs
    from repro.core.codegen import CodeGenerator

    inputs = _seeded_inputs(art.program, 0)
    return _digest(CodeGenerator().generate(art).run(inputs))


def _golden():
    # absent only while the file is being written; the coverage test
    # then fails rather than the matrix silently shrinking to nothing
    if not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN) as f:
        return json.load(f)


@pytest.mark.parametrize("workload", sorted(_workloads()))
def test_matrix_covers_every_cell(workload):
    golden = {c for c in _golden() if c.split("/")[0] == workload}
    assert golden == set(cells(workload))


@pytest.mark.parametrize("cell", sorted(_golden()))
def test_run_lowered_reproduces_the_digest(cell):
    art = cells(cell.split("/")[0])[cell]
    assert _lowered_digest(art) == _golden()[cell]


@pytest.mark.parametrize("cell", sorted(_golden()))
def test_ranks_as_threads_reproduce_the_digest(cell):
    art = cells(cell.split("/")[0])[cell]
    assert _threads_digest(art) == _golden()[cell]


if __name__ == "__main__":
    digests = {
        cell: _lowered_digest(art)
        for workload in sorted(_workloads())
        for cell, art in cells(workload).items()
    }
    with open(GOLDEN, "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
