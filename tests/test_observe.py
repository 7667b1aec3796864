"""The unified tracing & metrics layer (:mod:`repro.observe`).

Four fronts:

* the typed event schema and :class:`Tracer` recording primitives,
* Perfetto ``trace_event`` export — including a hypothesis round-trip
  property (arbitrary typed events export to a schema-valid document
  that survives JSON serialization) and span-nesting checks against the
  lowering's dependency edges on a real measured run,
* the per-rank file-backed trace rings: merge at 4 real SPMD ranks,
  wrap-around/drop accounting, and the faulty-teardown harvest (a rank
  dying mid-collective leaves a mergeable timeline and structured error
  context, with no shared-memory leak),
* predicted-vs-measured alignment and the autotuner/cost-model metrics
  flowing through the same registry.
"""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import FP32
from repro.core.autotuner import Autotuner
from repro.core.codegen import CodeGenerator
from repro.core.transforms import Schedule
from repro.observe import (
    CounterEvent,
    InstantEvent,
    MetricsRegistry,
    SpanEvent,
    Tracer,
    compare_timelines,
    describe_events,
    export,
    merge_rank_traces,
    validate,
    write_trace,
)
from repro.observe.ring import KIND_KERNEL, KIND_PUBLISH, TraceRing
from repro.perf.engine import Task, Timeline
from repro.runtime import Executor
from repro.runtime.spmd import SpmdWorkerError, launch
from repro.workloads.adam import AdamWorkload
from repro.workloads.attention import AttentionWorkload
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


class TestTracer:
    def test_span_records_interval_on_track(self):
        tr = Tracer()
        with tr.span("work", cat="launch", tid="s0", step=3):
            pass
        (ev,) = tr.events
        assert isinstance(ev, SpanEvent)
        assert (ev.name, ev.cat, ev.pid, ev.tid) == (
            "work", "launch", "main", "s0"
        )
        assert ev.dur >= 0 and ev.end == ev.ts + ev.dur
        assert ev.args == {"step": 3}

    def test_span_records_even_when_body_raises(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError("x")
        assert [e.name for e in tr.events] == ["boom"]

    def test_complete_instant_counter_and_filters(self):
        tr = Tracer(pid="rank0")
        tr.complete("k", ts=1.0, dur=0.5, cat="kernel", tid="kernels")
        tr.instant("pack", cat="pack", args={"buckets": 2})
        tr.counter("bytes_published", 128.0)
        assert [type(e) for e in tr.events] == [
            SpanEvent, InstantEvent, CounterEvent
        ]
        assert [e.name for e in tr.spans()] == ["k"]
        assert tr.spans(cat="kernel")[0].pid == "rank0"
        assert tr.spans(cat="nope") == []

    def test_describe_events_lists_spans_in_start_order(self):
        tr = Tracer()
        tr.complete("later", ts=2.0, dur=1.0, tid="s1")
        tr.complete("earlier", ts=0.5, dur=0.25, tid="s0")
        text = describe_events(tr.events)
        assert text.index("earlier") < text.index("later")
        assert "[main/s0]" in text
        assert describe_events(tr.events, limit=1).count("\n") == 0


class TestMetricsRegistry:
    def test_inc_set_get_snapshot(self):
        m = MetricsRegistry()
        m.inc("a")
        m.inc("a", 2)
        m.set("b", 0.5)
        assert m.get("a") == 3
        assert "a" in m and "zzz" not in m
        snap = m.snapshot()
        assert snap == {"a": 3, "b": 0.5}
        snap["a"] = 99  # snapshot is a copy
        assert m.get("a") == 3

    def test_merge_and_describe(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("shared", 1)
        b.inc("shared", 2)
        b.set("only_b", 7)
        a.merge(b)
        assert a.get("shared") == 3 and a.get("only_b") == 7
        assert "shared" in a.describe()


# -- Perfetto export -----------------------------------------------------

_names = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=1, max_size=12,
)
_times = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
_events = st.one_of(
    st.builds(
        SpanEvent, name=_names, cat=_names, ts=_times, dur=_times,
        pid=_names, tid=_names,
        args=st.dictionaries(_names, st.integers(), max_size=2),
    ),
    st.builds(
        InstantEvent, name=_names, cat=_names, ts=_times,
        pid=_names, tid=_names,
    ),
    st.builds(
        CounterEvent, name=_names, ts=_times,
        value=st.floats(allow_nan=False, allow_infinity=False),
        pid=_names, tid=_names,
    ),
)


class TestPerfettoExport:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(_events, max_size=20))
    def test_export_roundtrip_is_schema_valid(self, events):
        doc = json.loads(json.dumps(export(events)))
        assert validate(doc) == []
        timed = [e for e in doc["traceEvents"] if e["ph"] in ("X", "i", "C")]
        # one trace_event per typed event, names preserved
        assert [e["name"] for e in timed] == [e.name for e in events]

    def test_validate_flags_broken_documents(self):
        assert validate({}) == ["traceEvents missing or not a list"]
        doc = export([SpanEvent("k", "kernel", 0.0, 1.0, "main", "s0")])
        doc["traceEvents"][-1]["dur"] = -1.0
        assert any("bad dur" in p for p in validate(doc))
        doc = export([SpanEvent("k", "kernel", 0.0, 1.0, "main", "s0")])
        doc["traceEvents"] = [
            e for e in doc["traceEvents"] if e["ph"] != "M"
        ]
        assert any("metadata" in p for p in validate(doc))

    def test_write_trace_produces_loadable_file(self, tmp_path, rng):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
        tracer = Tracer()
        Executor().run_lowered(
            wl.schedule_coconet(), attention_inputs(rng),
            allow_downcast=True, tracer=tracer,
        )
        path = tmp_path / "run.trace.json"
        write_trace(tracer.events, str(path))
        doc = json.loads(path.read_text())
        assert validate(doc) == []
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_launch_spans_respect_dependency_edges(self, rng):
        """Every dep edge carried in a launch span's args holds on the
        measured timeline: the dependency ends before the user starts."""
        wl = AdamWorkload.build(64, 4)
        tracer = Tracer()
        Executor().run_lowered(
            Schedule(wl.program), optimizer_inputs(rng),
            allow_downcast=True, tracer=tracer,
        )
        spans = tracer.spans()
        by_name = {
            e.name: e for e in spans
            if e.cat in ("launch", "whole", "chunkloop")
        }
        checked = 0
        for ev in spans:
            for dep in ev.args.get("deps", ()):
                if dep in by_name:
                    assert by_name[dep].end <= ev.ts + 1e-9, (
                        f"{dep} must finish before {ev.name} starts"
                    )
                    checked += 1
        assert checked > 0

    def test_chunk_spans_nest_inside_their_loop_envelope(self, rng):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32)
        sched = wl.schedule_coconet()
        tracer = Tracer()
        Executor().run_lowered(
            sched, attention_inputs(rng), allow_downcast=True,
            tracer=tracer,
        )
        spans = tracer.spans()
        (loop,) = sched.lowered().chunk_loops()
        envelope = next(
            e for e in spans if e.cat == "chunkloop" and e.name == loop.name
        )
        chunk_spans = tracer.spans(cat="chunk")
        assert len(chunk_spans) == loop.num_chunks
        for c in chunk_spans:
            assert envelope.ts <= c.ts and c.end <= envelope.end + 1e-9


# -- trace rings and SPMD merge ------------------------------------------

class TestTraceRing:
    def test_append_records_roundtrip(self, tmp_path):
        path = str(tmp_path / "rank0.ring")
        ring = TraceRing.create(path, capacity=8)
        ring.append(KIND_PUBLISH, ts=100, dur=5, nbytes=64, seq=2,
                    site="g0x4", name="avg")
        ring.close()
        reader = TraceRing(path)
        assert reader.count == 1 and reader.dropped == 0
        (rec,) = reader.records()
        assert int(rec["kind"]) == KIND_PUBLISH
        assert (int(rec["ts"]), int(rec["dur"]), int(rec["nbytes"]),
                int(rec["seq"])) == (100, 5, 64, 2)
        assert rec["site"] == b"g0x4" and rec["name"] == b"avg"
        reader.close()

    def test_wraparound_keeps_newest_and_counts_drops(self, tmp_path):
        ring = TraceRing.create(str(tmp_path / "rank0.ring"), capacity=4)
        for i in range(6):
            ring.append(KIND_KERNEL, ts=i, dur=1, seq=i)
        assert ring.count == 6 and ring.dropped == 2
        recs = ring.records()
        assert [int(r["seq"]) for r in recs] == [2, 3, 4, 5]
        ring.close()

    def test_attach_rejects_non_ring_file(self, tmp_path):
        path = tmp_path / "rank0.ring"
        path.write_bytes(b"\0" * 4096)
        with pytest.raises(ValueError, match="not a trace ring"):
            TraceRing(str(path))

    def test_merge_tags_unreadable_rings_and_rebases(self, tmp_path):
        ring = TraceRing.create(str(tmp_path / "rank0.ring"), capacity=8)
        ring.append(KIND_PUBLISH, ts=5_000_000_000, dur=1_000_000,
                    nbytes=32, seq=0, site="g0x4", name="avg")
        ring.close()
        (tmp_path / "rank1.ring").write_bytes(b"garbage")
        (tmp_path / "notes.txt").write_text("ignored")
        metrics = MetricsRegistry()
        events = merge_rank_traces(str(tmp_path), base=1.0, metrics=metrics)
        spans = [e for e in events if isinstance(e, SpanEvent)]
        (ev,) = spans
        # earliest record maps to the caller's base
        assert ev.ts == pytest.approx(1.0)
        assert ev.pid == "rank0" and ev.cat == "publish"
        assert ev.args["site"] == "g0x4" and ev.args["bytes"] == 32
        counters = [e for e in events if isinstance(e, CounterEvent)]
        assert counters and counters[0].name == "bytes_published"
        assert metrics.get("spmd.rank0.bytes_published") == 32
        # the unreadable ring is tagged, not silently skipped
        instants = [e for e in events if isinstance(e, InstantEvent)]
        assert any(
            e.name == "ring-corrupt" and e.pid == "rank1" for e in instants
        )
        assert metrics.get("spmd.rank1.ring_corrupt") == 1
        assert metrics.get("spmd.rank1.bytes_published") == 0


class TestSpmdTracing:
    """Per-rank timelines from real processes, merged by the parent."""

    def test_four_rank_run_merges_per_rank_timelines(self, rng):
        wl = AdamWorkload.build(64, 4)
        tracer = Tracer()
        Executor().run_spmd(
            wl.program, optimizer_inputs(rng), allow_downcast=True,
            tracer=tracer,
        )
        spans = tracer.spans()
        assert {e.pid for e in spans} >= {f"rank{r}" for r in range(4)}
        assert {e.cat for e in spans} >= {
            "kernel", "publish", "reduce", "wait"
        }
        # the fused allreduce publishes the same gradient bytes per rank
        snap = tracer.metrics.snapshot()
        published = [
            snap[f"spmd.rank{r}.bytes_published"] for r in range(4)
        ]
        assert len(set(published)) == 1 and published[0] > 0
        counters = [
            e for e in tracer.events if isinstance(e, CounterEvent)
        ]
        assert {e.pid for e in counters} == {f"rank{r}" for r in range(4)}
        assert validate(export(tracer.events)) == []

    @pytest.mark.skipif(
        sys.platform != "linux", reason="/dev/shm inspection is Linux-only"
    )
    def test_faulty_rank_teardown_still_harvests_trace(self, tmp_path, rng):
        """A rank dying mid-collective leaves its ring mergeable, a
        structured error context, and no shared-memory leak."""
        wl = AdamWorkload.build(64, 4)
        gen = CodeGenerator(target="spmd").generate(wl.program)
        source = gen.source.replace(
            '"""collective kernel: avg"""',
            '"""collective kernel: avg"""\n'
            "    if comm.rank == 1:\n"
            "        raise RuntimeError('injected kernel fault')",
            1,
        )
        assert "injected kernel fault" in source
        before = spmd_segments()
        with pytest.raises(SpmdWorkerError, match="rank 1") as err:
            launch(
                source, gen.program, optimizer_inputs(rng),
                allow_downcast=True, timeout=30.0,
                trace_dir=str(tmp_path),
            )
        assert err.value.context["rank"] == 1
        assert err.value.context["op"] == "avg"
        assert "op 'avg'" in str(err.value)
        assert spmd_segments() == before

        events = merge_rank_traces(str(tmp_path))
        spans = [e for e in events if isinstance(e, SpanEvent)]
        assert {e.pid for e in spans} == {f"rank{r}" for r in range(4)}
        # the failing rank's kernel span was recorded on the way out
        rank1_kernels = [
            e.name for e in spans if e.pid == "rank1" and e.cat == "kernel"
        ]
        assert "avg" in rank1_kernels
        # the survivors' blocked waits are visible too
        assert any(
            e.cat == "wait" and e.pid != "rank1" for e in spans
        )


# -- predicted vs measured -----------------------------------------------

class TestCompare:
    def test_chunk_spans_fold_into_base_kernel(self):
        tl = Timeline(spans={"mm": (0.0, 1e-3), "ghost": (0.0, 1e-3)})
        events = [
            SpanEvent("mm#c0", "chunk", 0.0, 1e-3, "main", "s0"),
            SpanEvent("mm#c1", "chunk", 1e-3, 1e-3, "main", "s0"),
            SpanEvent("extra", "launch", 0.0, 1e-3, "main", "s0"),
            SpanEvent("ignored", "comm", 0.0, 1e-3, "main", "s0"),
        ]
        cmp = compare_timelines(tl, events)
        row = cmp.row("mm")
        assert row.spans == 2
        assert row.ratio == pytest.approx(2.0)
        assert row.log_error == pytest.approx(1.0)
        assert cmp.only_predicted == ["ghost"]
        assert cmp.only_measured == ["extra"]

    def test_zero_prediction_gives_inf_ratio(self):
        tl = Timeline(spans={"k": (0.0, 0.0)})
        cmp = compare_timelines(
            tl, [SpanEvent("k", "launch", 0.0, 1.0, "main", "s0")]
        )
        assert cmp.row("k").ratio == float("inf")
        assert "inf" in cmp.describe()

    def test_top_mispredictions_ranked_by_log_error(self):
        tl = Timeline(spans={
            "good": (0.0, 1e-3), "over": (0.0, 8e-3), "under": (0.0, 1e-3),
        })
        events = [
            SpanEvent("good", "launch", 0.0, 1e-3, "main", "s0"),
            SpanEvent("over", "launch", 0.0, 1e-3, "main", "s0"),
            SpanEvent("under", "launch", 0.0, 16e-3, "main", "s0"),
        ]
        cmp = compare_timelines(tl, events)
        # 16x underestimate beats 8x overestimate beats 1x
        assert [r.name for r in cmp.top_mispredictions(3)] == [
            "under", "over", "good"
        ]
        assert "misprediction" in cmp.describe()

    def test_timeline_to_events_speaks_the_event_schema(self):
        tasks = [
            Task("a", "gpu:0", 1e-3),
            Task("b", "nic:0", 2e-3, deps=("a",)),
        ]
        from repro.perf.engine import Engine

        tl = Engine().run(tasks)
        events = tl.to_events(tasks)
        assert [e.name for e in events] == ["a", "b"]
        assert all(e.cat == "predicted" for e in events)
        assert events[1].tid == "nic:0"
        assert events[1].args["deps"] == ["a"]
        assert validate(export(events)) == []

    def test_measured_run_aligns_with_cost_model(self, rng):
        from repro.perf.program_cost import ProgramCostModel

        wl = AdamWorkload.build(64, 4)
        sched = Schedule(wl.program)
        tracer = Tracer()
        Executor().run_lowered(
            sched, optimizer_inputs(rng), allow_downcast=True,
            tracer=tracer,
        )
        timeline, _ = ProgramCostModel(Cluster(1)).timeline(sched)
        cmp = compare_timelines(timeline, tracer.events)
        assert cmp.rows, "no ops aligned between DES and measured trace"
        assert all(r.measured > 0 and r.predicted > 0 for r in cmp.rows)


class TestTunerMetrics:
    def test_autotuner_counters_flow_through_registry(self):
        metrics = MetricsRegistry()
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32,
                                     dropout_seed=6)
        result = Autotuner(Cluster(1), metrics=metrics).tune(wl.program)
        assert result.metrics is metrics
        snap = metrics.snapshot()
        assert snap["tuner.candidates"] >= 1
        assert snap["tuner.candidates"] == len(result.candidates)
        assert snap.get("tuner.dedup_hits", 0) >= 0
        assert 0.0 <= snap["cost_model.memo_hit_rate"] <= 1.0

    def test_untracked_tune_has_no_registry(self):
        wl = AttentionWorkload.build(4, 8, 16, 4, dtype=FP32,
                                     dropout_seed=6)
        result = Autotuner(Cluster(1)).tune(wl.program)
        assert result.metrics is None
