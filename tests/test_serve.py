"""Tuning-as-a-service: schedule cache + async serving layer.

Covers the PR 10 surface end to end:

* ``ScheduleCache`` round trips, corrupt/truncated/tampered records
  (deleted + counted, never raised), key-field mismatches, eviction,
  and concurrent cross-process writers of the same pair;
* the ``Autotuner(schedule_cache=...)`` hook: cold tune writes a
  record, warm tune is a cache hit with the same winner, and the
  artifact-backed cached candidate executes bit-identically to the
  freshly searched schedule (also via the ``repro-run`` CLI digest);
* ``TuningService``: memory/disk/tuned/coalesced sources, in-flight
  coalescing under a concurrent burst, request validation, counters,
  and the ``repro-serve`` CLI.

Service tests inject a ``ThreadPoolExecutor`` pool so no worker
processes spawn (the tuner is pure Python, so a thread pool exercises
the identical code path); one integration test uses the real default
spawn ``ProcessPoolExecutor``.
"""

import asyncio
import json
import os
import subprocess
import sys

import pytest
from concurrent.futures import ThreadPoolExecutor

from repro.cli import _digest, _seeded_inputs
from repro.cli import main as run_cli_main
from repro.cluster import Cluster
from repro.core.autotuner import Autotuner
from repro.observe.metrics import MetricsRegistry
from repro.runtime.executor import Executor
from repro.serve import (
    CachedSchedule,
    ScheduleCache,
    ScheduleCacheError,
    ServeError,
    TuneRequest,
    TuningService,
    request_key,
)
from repro.serve.cli import main as serve_cli_main
from repro.workloads.adam import AdamWorkload

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def tune_into(cache, num_elements=64, world_size=4, nodes=1, depth=2):
    """Cold-tune a small Adam program through the cache hook."""
    program = AdamWorkload.build(num_elements, world_size).program
    return Autotuner(
        Cluster(nodes), max_depth=depth, schedule_cache=cache
    ).tune(program)


@pytest.fixture(scope="module")
def record_text(tmp_path_factory):
    """JSON text of one valid cache record (tuned once per module)."""
    cache = ScheduleCache(str(tmp_path_factory.mktemp("seedcache")))
    result = tune_into(cache)
    with open(cache.record_path(*result.cache_key)) as f:
        return f.read()


def install(cache, text):
    """Drop valid record ``text`` into ``cache``; returns (key, path)."""
    doc = json.loads(text)
    key = (doc["structural_hash"], doc["topology"])
    os.makedirs(cache.path, exist_ok=True)
    path = cache.record_path(*key)
    with open(path, "w") as f:
        f.write(text)
    return key, path


def thread_service(cache, **kw):
    """A TuningService whose misses tune on threads (no spawn cost)."""
    kw.setdefault("max_depth", 2)
    return TuningService(cache, pool=ThreadPoolExecutor(2), **kw)


class TestScheduleCache:
    def test_roundtrip_and_counters(self, tmp_path, record_text):
        cache = ScheduleCache(str(tmp_path))
        key, _ = install(cache, record_text)
        rec = cache.get(*key)
        assert isinstance(rec, CachedSchedule)
        assert (rec.structural_hash, rec.topology) == key
        assert rec.artifact.program is not None
        assert rec.predicted_time > 0
        assert cache.metrics.get("serve.cache.hits") == 1
        assert len(cache) == 1

    def test_missing_record_is_a_counted_miss(self, tmp_path):
        cache = ScheduleCache(str(tmp_path))
        assert cache.get("no-such-hash", "DGX-2x16/nodes1") is None
        assert cache.metrics.get("serve.cache.misses") == 1
        assert cache.metrics.get("serve.cache.corrupt") == 0

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda text: "not json at all {",
            lambda text: text[: len(text) // 2],  # truncated writer crash
            lambda text: "{}",
            lambda text: json.dumps(
                {**json.loads(text), "format": "something-else"}
            ),
            lambda text: json.dumps(
                {**json.loads(text), "schema_version": 999}
            ),
        ],
        ids=["garbage", "truncated", "empty-doc", "bad-format", "bad-schema"],
    )
    def test_corrupt_record_deleted_and_missed(
        self, tmp_path, record_text, mangle
    ):
        cache = ScheduleCache(str(tmp_path))
        key, path = install(cache, record_text)
        with open(path, "w") as f:
            f.write(mangle(record_text))
        assert cache.get(*key) is None
        assert not os.path.exists(path), "corrupt record must be deleted"
        assert cache.metrics.get("serve.cache.corrupt") == 1
        assert cache.metrics.get("serve.cache.misses") == 1
        # and the miss is clean: a re-put serves again
        install(cache, record_text)
        assert cache.get(*key) is not None

    def test_tampered_artifact_payload_is_corrupt(
        self, tmp_path, record_text
    ):
        # flip a byte inside the embedded artifact: content-hash
        # verification must catch it and read as a miss, not serve it
        cache = ScheduleCache(str(tmp_path))
        doc = json.loads(record_text)
        doc["artifact"]["payload"]["program"] = dict(
            doc["artifact"]["payload"]["program"], name="evil"
        )
        key, path = install(cache, json.dumps(doc))
        assert cache.get(*key) is None
        assert cache.metrics.get("serve.cache.corrupt") == 1
        assert not os.path.exists(path)

    def test_key_field_mismatch_is_corrupt(self, tmp_path, record_text):
        # a record renamed onto the wrong key must not be served
        cache = ScheduleCache(str(tmp_path))
        doc = json.loads(record_text)
        other = ("f" * 64, doc["topology"])
        path = cache.record_path(*other)
        os.makedirs(cache.path, exist_ok=True)
        with open(path, "w") as f:
            f.write(record_text)
        assert cache.get(*other) is None
        assert cache.metrics.get("serve.cache.corrupt") == 1

    def test_eviction_keeps_newest(self, tmp_path, record_text):
        cache = ScheduleCache(str(tmp_path), max_entries=2)
        doc = json.loads(record_text)
        keys = []
        for i in range(4):
            fake = dict(doc, structural_hash="%064x" % i)
            rec = CachedSchedule.from_json(fake)
            path = cache.put(rec)
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
            keys.append((fake["structural_hash"], fake["topology"]))
        assert len(cache) == 2
        assert cache.metrics.get("serve.cache.evictions") == 2
        assert cache.get(*keys[0]) is None  # oldest gone
        assert cache.get(*keys[3]) is not None  # newest kept
        with pytest.raises(ScheduleCacheError):
            ScheduleCache(str(tmp_path), max_entries=0)

    def test_clear_and_stats(self, tmp_path, record_text):
        cache = ScheduleCache(str(tmp_path))
        install(cache, record_text)
        stats = cache.stats()
        assert stats["serve.cache.entries"] == 1
        assert stats["serve.cache.bytes"] > 0
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.clear() == 0

    def test_concurrent_cross_process_writers(self, tmp_path):
        # two fresh interpreters race to tune the same signature into
        # one directory: both must succeed, and the survivor must be a
        # loadable record for the request's key.
        script = (
            "import sys\n"
            "from repro.cluster import Cluster\n"
            "from repro.core.autotuner import Autotuner\n"
            "from repro.serve import ScheduleCache\n"
            "from repro.workloads.adam import AdamWorkload\n"
            "cache = ScheduleCache(sys.argv[1])\n"
            "program = AdamWorkload.build(64, 4).program\n"
            "r = Autotuner(Cluster(1), max_depth=2,"
            " schedule_cache=cache).tune(program)\n"
            "print(r.best.name, r.best.time)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        outs = [p.communicate() for p in procs]
        assert all(p.returncode == 0 for p in procs), outs
        # deterministic search: both report the same winner
        assert outs[0][0] == outs[1][0]
        cache = ScheduleCache(str(tmp_path))
        assert len(cache) == 1
        key = request_key(
            TuneRequest.make("adam", num_elements=64, world_size=4)
        )
        assert cache.get(*key) is not None


class TestAutotunerCacheHook:
    def test_cold_then_warm(self, tmp_path):
        cache = ScheduleCache(str(tmp_path))
        cold = tune_into(cache)
        assert not cold.cached
        assert cold.cache_key is not None
        assert len(cache) == 1
        warm = tune_into(cache)
        assert warm.cached
        assert warm.cache_key == cold.cache_key
        assert warm.best.name == cold.best.name
        assert warm.best.time == cold.best.time
        # the hit came back as an Artifact-backed candidate (the tuned
        # schedule's own structural hash, not the request key's)
        assert warm.best.schedule.structural_hash.startswith("sha256:")

    def test_topology_splits_records(self, tmp_path):
        cache = ScheduleCache(str(tmp_path))
        one = tune_into(cache, nodes=1)
        two = tune_into(cache, nodes=2)
        assert one.cache_key != two.cache_key
        assert len(cache) == 2
        assert not two.cached  # different topology missed the nodes1 record

    def test_shapes_sharing_a_structural_hash_split_records(self, tmp_path):
        # attention at batch 1 × seq 32 and batch 2 × seq 16 lower to the
        # same launch structure; a tuned artifact only runs at its own
        # global shapes, so the second must miss and tune for itself
        from repro.core.artifact import structural_hash
        from repro.core.transforms import Schedule
        from repro.workloads.attention import AttentionWorkload

        a = AttentionWorkload.build(1, 32, 64, 2).program
        b = AttentionWorkload.build(2, 16, 64, 2).program
        assert structural_hash(Schedule(a).lowered()) == structural_hash(
            Schedule(b).lowered()
        )
        cache = ScheduleCache(str(tmp_path))
        tuned = [
            Autotuner(Cluster(1), max_depth=2, schedule_cache=cache).tune(p)
            for p in (a, b)
        ]
        assert not tuned[1].cached
        assert tuned[0].cache_key != tuned[1].cache_key
        assert request_key(
            TuneRequest.make(
                "attention", batch=2, seq=16, hidden=64, world_size=2
            )
        ) == tuned[1].cache_key
        inputs = _seeded_inputs(b, seed=0)
        assert _digest(
            Executor().run_lowered(
                tuned[1].best.schedule, inputs, allow_downcast=True
            )
        ) == _digest(Executor().run_lowered(b, inputs, allow_downcast=True))

    def test_cached_candidate_executes_identically(self, tmp_path):
        cache = ScheduleCache(str(tmp_path))
        fresh = tune_into(cache)
        served = tune_into(cache)
        assert served.cached
        program = AdamWorkload.build(64, 4).program
        ex = Executor()
        inputs = _seeded_inputs(program, seed=3)
        a = ex.run_lowered(
            fresh.best.schedule, inputs, allow_downcast=True
        )
        b = ex.run_lowered(
            served.best.schedule, inputs, allow_downcast=True
        )
        assert _digest(a) == _digest(b)


def run_service(coro):
    return asyncio.run(coro)


class TestTuningService:
    def test_sources_tuned_then_memory_then_disk(self, tmp_path):
        req = TuneRequest.make("adam", num_elements=64, world_size=4)

        async def first_process():
            async with thread_service(ScheduleCache(str(tmp_path))) as svc:
                miss = await svc.submit(req)
                hit = await svc.submit(req)
                return miss, hit, svc.stats()

        miss, hit, stats = run_service(first_process())
        assert miss.source == "tuned" and not miss.hit
        assert hit.source == "memory" and hit.hit
        assert hit.schedule_name == miss.schedule_name
        assert hit.artifact.content_hash == miss.artifact.content_hash
        assert stats["serve.tunes"] == 1
        assert stats["serve.hits.memory"] == 1

        async def second_process():
            async with thread_service(ScheduleCache(str(tmp_path))) as svc:
                return await svc.submit(req), await svc.submit(req)

        disk, mem = run_service(second_process())
        assert disk.source == "disk"
        assert mem.source == "memory"
        assert disk.schedule_name == miss.schedule_name

    def test_burst_coalesces_to_one_tune(self, tmp_path):
        req = TuneRequest.make("adam", num_elements=64, world_size=4)

        async def burst():
            async with thread_service(ScheduleCache(str(tmp_path))) as svc:
                results = await svc.submit_many([req] * 6)
                return results, svc.metrics

        results, metrics = run_service(burst())
        sources = sorted(r.source for r in results)
        assert sources.count("tuned") == 1
        assert sources.count("coalesced") == 5
        assert metrics.get("serve.tunes") == 1
        assert metrics.get("serve.coalesced") == 5
        assert metrics.get("serve.misses") == 6
        # every rider got the same schedule
        assert len({r.schedule_name for r in results}) == 1

    def test_distinct_requests_do_not_coalesce(self, tmp_path):
        reqs = [
            TuneRequest.make("adam", num_elements=n, world_size=4)
            for n in (64, 128)
        ]

        async def go():
            async with thread_service(ScheduleCache(str(tmp_path))) as svc:
                await svc.submit_many(reqs)
                return svc.metrics

        metrics = run_service(go())
        assert metrics.get("serve.tunes") == 2
        assert metrics.get("serve.coalesced") == 0

    def test_shared_metrics_registry(self, tmp_path):
        reg = MetricsRegistry()
        cache = ScheduleCache(str(tmp_path))
        svc = thread_service(cache, metrics=reg)
        assert cache.metrics is reg  # cache counters join the service's
        svc.close()

    def test_closed_service_rejects(self, tmp_path):
        svc = thread_service(ScheduleCache(str(tmp_path)))
        svc.close()
        req = TuneRequest.make("adam", num_elements=64, world_size=4)
        with pytest.raises(ServeError):
            run_service(svc.submit(req))
        svc.close()  # idempotent

    def test_default_process_pool_integration(self, tmp_path):
        # the real spawn-context ProcessPoolExecutor path, once
        req = TuneRequest.make("adam", num_elements=64, world_size=4)

        async def go():
            async with TuningService(
                ScheduleCache(str(tmp_path)),
                max_workers=1, max_depth=2,
            ) as svc:
                return await svc.submit(req)

        res = run_service(go())
        assert res.source == "tuned"
        assert ScheduleCache(str(tmp_path)).get(
            res.structural_hash, res.topology
        ) is not None


class TestTuneRequest:
    def test_validation(self):
        with pytest.raises(ServeError):
            TuneRequest.make("nope", num_elements=64, world_size=4)
        with pytest.raises(ServeError):
            TuneRequest.make("adam", num_elements=64)  # missing param
        with pytest.raises(ServeError):
            TuneRequest.make(
                "adam", num_elements=64, world_size=4, bogus=1
            )
        with pytest.raises(Exception):
            TuneRequest.make(
                "adam", num_elements=64, world_size=4, dtype="FP13"
            )
        with pytest.raises(ServeError):
            TuneRequest.make(
                "adam", num_elements=64, world_size=4, nodes=0
            )

    def test_spec_roundtrip_and_hashability(self):
        req = TuneRequest.make(
            "moe", capacity=3, model_dim=6, ffn_dim=8, world_size=4
        )
        assert TuneRequest.from_spec(req.spec()) == req
        assert len({req, TuneRequest.from_spec(req.spec())}) == 1
        assert "moe" in req.describe()

    def test_every_workload_builds(self):
        reqs = [
            TuneRequest.make("adam", num_elements=64, world_size=4),
            TuneRequest.make("lamb", num_elements=64, world_size=4),
            TuneRequest.make(
                "moe", capacity=3, model_dim=6, ffn_dim=8, world_size=4
            ),
            TuneRequest.make(
                "attention", batch=2, seq=4, hidden=8, world_size=4
            ),
        ]
        keys = {request_key(r) for r in reqs}
        assert len(keys) == len(reqs)  # distinct programs, distinct keys

    def test_request_key_stable_across_processes(self):
        req = TuneRequest.make("adam", num_elements=64, world_size=4)
        script = (
            "from repro.serve import TuneRequest, request_key\n"
            "req = TuneRequest.from_spec("
            + json.dumps(req.spec())
            + ")\n"
            "print(*request_key(req))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        out = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, check=True,
        ).stdout.split()
        assert tuple(out) == request_key(req)


class TestServeCLI:
    def test_tune_then_hit_then_stats_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "--cache", cache_dir, "tune",
            "--workload", "adam",
            "--set", "num_elements=64", "--set", "world_size=4",
            "--max-depth", "2", "--workers", "1",
            "--save", str(tmp_path / "served.json"),
        ]
        assert serve_cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "source:     tuned" in out
        assert os.path.exists(tmp_path / "served.json")

        assert serve_cli_main(argv[:-2]) == 0  # same request, no --save
        assert "source:     disk" in capsys.readouterr().out

        assert serve_cli_main(["--cache", cache_dir, "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:   1" in out

        assert serve_cli_main(["--cache", cache_dir, "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_replay(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        reqs = [
            TuneRequest.make("adam", num_elements=64, world_size=4).spec()
        ] * 3
        path = tmp_path / "reqs.json"
        path.write_text(json.dumps(reqs))
        assert serve_cli_main(
            ["--cache", cache_dir, "replay", str(path),
             "--max-depth", "2", "--workers", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "served 3 requests" in out
        assert "tuner invocations: 1" in out

    def test_errors_exit_1(self, tmp_path, capsys):
        assert serve_cli_main(
            ["tune", "--workload", "bogus", "--set", "x=1"]
        ) == 1
        assert "error:" in capsys.readouterr().err
        assert serve_cli_main(
            ["tune", "--workload", "adam", "--set", "num_elements"]
        ) == 1
        assert serve_cli_main(
            ["replay", str(tmp_path / "missing.json")]
        ) == 1

    def test_cli_digest_identity(self, tmp_path, capsys):
        """The served artifact reproduces the freshly tuned digest
        through the public ``repro-run`` CLI."""
        cache_dir = str(tmp_path / "cache")
        served_path = str(tmp_path / "served.json")
        assert serve_cli_main(
            ["--cache", cache_dir, "tune", "--workload", "adam",
             "--set", "num_elements=64", "--set", "world_size=4",
             "--max-depth", "2", "--workers", "1",
             "--save", served_path]
        ) == 0
        capsys.readouterr()

        fresh = Autotuner(Cluster(1), max_depth=2).tune(
            AdamWorkload.build(64, 4).program
        )
        from repro.core.artifact import Artifact

        fresh_path = str(tmp_path / "fresh.json")
        Artifact.from_lowered(
            fresh.best.schedule.lowered(cluster=Cluster(1))
        ).save(fresh_path)

        digests = []
        for path in (served_path, fresh_path):
            assert run_cli_main(["run", path, "--seed", "5"]) == 0
            out = capsys.readouterr().out
            digests.append(
                [ln for ln in out.splitlines() if "digest" in ln]
            )
        assert digests[0] == digests[1]
