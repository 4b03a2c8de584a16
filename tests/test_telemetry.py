"""Tests for the telemetry subsystem (repro.telemetry).

Covers the three pillars -- tracing, the unified metrics registry, and
the phase-profiling hooks -- plus the cross-cutting guarantees the rest
of the repo relies on:

* worker spans (including respawned incarnations) carry the parent
  trace id across process boundaries;
* store contents are byte-identical with tracing on vs off (arming the
  tracer must never perturb seeded determinism);
* ``GET /metrics`` on a live serve daemon parses as Prometheus text and
  exposes the registry's full series catalogue.
"""

import http.client
import json
import os
import re

import pytest

from repro.api import ClusterSpec, ExperimentRunner, ExperimentSpec, \
    WorkloadSpec, run_experiment
from repro.chaos.verify import store_digest
from repro.cli import main
from repro.fleet import WorkQueue, launch_fleet
from repro.serve import ReproServer, ServeClient
from repro.store import ResultStore
from repro.study import StudyAxes, StudySpec
from repro.telemetry import metrics as tm
from repro.telemetry import trace as tt
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
)
from repro.telemetry.trace import (
    TRACE_DIR_ENV,
    TRACE_ID_ENV,
    TRACE_PARENT_ENV,
    Tracer,
    export_chrome_trace,
    export_env,
    install,
    maybe_install_from_env,
    phase_breakdown,
    read_events,
    span,
    uninstall,
)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with the tracer disarmed."""
    uninstall()
    yield
    uninstall()


def small_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        name="telemetry-test",
        cluster=ClusterSpec(num_nodes=1, devices_per_node=4),
        workload=WorkloadSpec(tokens_per_device=1024, layers=1,
                              iterations=2, warmup=1, seed=7),
        systems=("fsdp_ep", "laer"),
        reference="fsdp_ep",
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def tiny_study(name="telemetry-fleet") -> StudySpec:
    return StudySpec(name=name, base=small_spec(),
                     axes=StudyAxes(cluster_sizes=(1, 2)))


# ---------------------------------------------------------------------------
# Prometheus text mini-parser (validity check for render_prometheus)

_SAMPLE_RE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'          # metric name
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'     # optional {k="v",...}
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r' (-?[0-9.e+-]+|NaN|[+-]Inf)$')


def parse_prometheus(text: str) -> dict:
    """Parse exposition text into {series: value}; raises on bad lines."""
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"unparseable Prometheus line: {line!r}"
        name = line.rsplit(" ", 1)[0]
        value = match.group(4)
        series[name] = float("nan") if value == "NaN" else float(value)
    return series


# ---------------------------------------------------------------------------
# Metrics registry

class TestCounter:
    def test_inc_and_value(self):
        c = Counter("t_total")
        assert c.value() == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labeled_series_are_independent(self):
        c = Counter("t_total")
        c.inc(outcome="hit")
        c.inc(outcome="hit")
        c.inc(outcome="miss")
        assert c.value({"outcome": "hit"}) == 2.0
        assert c.value({"outcome": "miss"}) == 1.0
        assert c.value() == 0.0  # unlabeled sample untouched

    def test_counters_only_go_up(self):
        with pytest.raises(ValueError):
            Counter("t_total").inc(-1)

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Counter("bad name")
        with pytest.raises(ValueError):
            Counter("t_total").inc(**{"0bad": "x"})


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("t_depth")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value() == 13.0

    def test_gauges_may_go_negative(self):
        g = Gauge("t_depth")
        g.dec(3)
        assert g.value() == -3.0


class TestHistogram:
    def test_observe_counts_and_sum(self):
        h = Histogram("t_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            h.observe(value)
        assert h.value() == 3.0   # value() is the observation count
        assert h.sum() == pytest.approx(5.55)

    def test_render_is_cumulative_with_inf_bucket(self):
        h = Histogram("t_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            h.observe(value)
        series = parse_prometheus("\n".join(h.render()) + "\n")
        assert series['t_seconds_bucket{le="0.1"}'] == 1
        assert series['t_seconds_bucket{le="1"}'] == 2
        assert series['t_seconds_bucket{le="+Inf"}'] == 3
        assert series["t_seconds_count"] == 3

    def test_buckets_are_sorted(self):
        assert Histogram("t_s", buckets=(1.0, 0.1)).buckets == (0.1, 1.0)


class TestRegistry:
    def test_get_or_create_shares_instances(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a_total")
        with pytest.raises(ValueError):
            reg.gauge("a_total")

    def test_value_of_unknown_metric_is_zero(self):
        assert MetricsRegistry().value("nope_total") == 0.0

    def test_snapshot_roundtrips_as_json(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc(outcome="x")
        reg.histogram("b_seconds", buckets=(1.0,)).observe(0.5)
        snapshot = json.loads(reg.snapshot_json())
        assert snapshot["a_total"]["kind"] == "counter"
        assert snapshot["b_seconds"]["kind"] == "histogram"
        assert any(sample["labels"] == {"outcome": "x"}
                   for sample in snapshot["a_total"]["samples"])

    def test_render_prometheus_parses(self):
        reg = MetricsRegistry()
        reg.counter("a_total", help="with \"quotes\"").inc(k="v\nw")
        reg.gauge("b").set(2.5)
        reg.histogram("c_seconds", buckets=(0.1,)).observe(0.2)
        series = parse_prometheus(reg.render_prometheus())
        assert series["b"] == 2.5

    def test_reset_zeroes_but_keeps_registration(self):
        reg = MetricsRegistry()
        reg.counter("a_total").inc(5)
        reg.reset()
        assert reg.names() == ["a_total"]
        assert reg.value("a_total") == 0.0

    def test_every_metric_preregisters_a_zero_sample(self):
        reg = MetricsRegistry()
        reg.counter("a_total")
        assert 'a_total 0' in reg.render_prometheus().splitlines()


class TestGlobalRegistry:
    def test_subsystems_registered_their_catalogue_at_import(self):
        # The store/queue/retry/serve/fleet modules register at import;
        # a fresh process already exposes the full schema (>= 10 series).
        names = [name for name in REGISTRY.names()
                 if name.startswith("repro_")]
        assert len(names) >= 10
        for expected in ("repro_store_index_cache_hits_total",
                         "repro_store_auto_compactions_total",
                         "repro_queue_claims_total",
                         "repro_serve_requests_total",
                         "repro_fleet_respawns_total"):
            assert expected in names

    def test_module_conveniences_use_the_global_registry(self):
        assert tm.counter("repro_store_puts_total") is \
            REGISTRY.counter("repro_store_puts_total")

    def test_store_operations_move_the_registry(self, tmp_path):
        before = REGISTRY.value("repro_store_index_cache_misses_total")
        store = ResultStore(tmp_path / "store")
        store.entries()
        assert REGISTRY.value("repro_store_index_cache_misses_total") \
            > before


# ---------------------------------------------------------------------------
# Tracing

class TestDisabledTracer:
    def test_span_returns_shared_null_singleton(self):
        first = span("anything", k=1)
        second = span("else")
        assert first is second
        assert first.span_id == ""
        with first as entered:
            assert entered is first

    def test_no_files_written_when_disarmed(self, tmp_path):
        with span("sim.decide", iteration=0):
            pass
        assert list(tmp_path.glob("events-*")) == []


class TestTracer:
    def test_spans_write_jsonl_events(self, tmp_path):
        install(Tracer(tmp_path, scope="coordinator"))
        with span("outer", k="v"):
            with span("inner"):
                pass
        uninstall()
        events = read_events(tmp_path)
        kinds = [event["type"] for event in events]
        assert kinds.count("process") == 1
        assert kinds.count("span") == 2
        by_name = {e["name"]: e for e in events if e["type"] == "span"}
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["outer"]["parent"] is None
        assert by_name["outer"]["attrs"] == {"k": "v"}
        assert by_name["inner"]["dur_ns"] >= 0
        # One trace id across every event in the directory.
        assert len({event["trace"] for event in events}) == 1

    def test_exception_inside_span_is_recorded_and_propagates(self, tmp_path):
        install(Tracer(tmp_path))
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError("x")
        uninstall()
        event, = (e for e in read_events(tmp_path) if e["type"] == "span")
        assert event["attrs"]["error"] == "RuntimeError"

    def test_maybe_install_from_env(self, tmp_path):
        assert maybe_install_from_env(environ={}) is None
        env = {TRACE_DIR_ENV: str(tmp_path), TRACE_ID_ENV: "t123",
               TRACE_PARENT_ENV: "abc.1"}
        tracer = maybe_install_from_env(scope="worker-1", incarnation=2,
                                        environ=env)
        assert tracer is not None
        assert tracer.trace_id == "t123"
        assert tracer.parent_id == "abc.1"
        with span("worker.run"):
            pass
        uninstall()
        # Respawned incarnations get their own event file...
        assert tracer.path.name.startswith("events-worker-1-i2-")
        event, = (e for e in read_events(tmp_path) if e["type"] == "span")
        # ...and their root spans still carry the parent trace context.
        assert event["trace"] == "t123"
        assert event["parent"] == "abc.1"

    def test_export_env_points_at_current_span(self, tmp_path):
        install(Tracer(tmp_path, scope="coordinator"))
        env = {}
        with span("fleet.run") as running:
            export_env(environ=env)
            assert env[TRACE_DIR_ENV] == str(tmp_path)
            assert env[TRACE_PARENT_ENV] == running.span_id
        uninstall()

    def test_export_env_is_a_noop_when_disarmed(self):
        env = {TRACE_DIR_ENV: "elsewhere"}
        export_env(environ=env)
        assert env == {TRACE_DIR_ENV: "elsewhere"}

    def test_read_events_skips_torn_lines(self, tmp_path):
        install(Tracer(tmp_path, scope="w"))
        with span("kept"):
            pass
        uninstall()
        path, = tmp_path.glob("events-*.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "span", "name": "torn", "ts_n')
        names = [e.get("name") for e in read_events(tmp_path)
                 if e["type"] == "span"]
        assert names == ["kept"]


class TestExport:
    def _record(self, tmp_path):
        install(Tracer(tmp_path, scope="coordinator"))
        with span("sim.decide", iteration=0):
            with span("sim.layer", layer=0):
                pass
        uninstall()
        return read_events(tmp_path)

    def test_chrome_trace_structure(self, tmp_path):
        events = self._record(tmp_path)
        out = export_chrome_trace(events, tmp_path / "trace.json")
        payload = json.loads(out.read_text())
        phases = [e["ph"] for e in payload["traceEvents"]]
        assert "M" in phases and phases.count("X") == 2
        meta = next(e for e in payload["traceEvents"] if e["ph"] == "M")
        assert meta["args"]["name"] == "coordinator"
        complete = next(e for e in payload["traceEvents"]
                        if e["ph"] == "X" and e["name"] == "sim.layer")
        assert complete["args"]["layer"] == 0
        assert complete["dur"] >= 0  # microseconds

    def test_phase_breakdown_aggregates_by_name(self, tmp_path):
        events = self._record(tmp_path)
        rows = phase_breakdown(events)
        assert {row["phase"] for row in rows} == {"sim.decide", "sim.layer"}
        for row in rows:
            assert row["count"] == 1
            assert 0.0 <= row["share"] <= 1.0
        assert phase_breakdown(events, prefix="sim.layer") != []
        assert phase_breakdown([], prefix=None) == []

    def test_phase_breakdown_self_time_subtracts_direct_children(self):
        def event(span_id, parent, name, dur_ms, pid=1):
            return {"type": "span", "id": span_id, "parent": parent,
                    "name": name, "pid": pid, "ts_ns": 0,
                    "dur_ns": int(dur_ms * 1e6)}

        events = [
            event("1.1", None, "sim.simulate", 10),
            event("1.2", "1.1", "sim.token-a2a", 4),
            event("1.3", "1.1", "sim.layer", 3),
            event("1.4", "1.3", "sim.layer", 1),
            # A worker's root span hangs under the coordinator's span but
            # runs beside it in another process: not a child there.
            event("2.1", "1.1", "fleet.worker", 9, pid=2),
        ]
        rows = {row["phase"]: row for row in phase_breakdown(events)}
        assert rows["sim.simulate"]["total_ms"] == 10.0
        assert rows["sim.simulate"]["self_ms"] == 3.0
        assert rows["sim.token-a2a"]["self_ms"] == 4.0
        # Two sim.layer spans, one nested in the other: 4 ms inclusive,
        # 3 ms of their own.
        assert rows["sim.layer"]["total_ms"] == 4.0
        assert rows["sim.layer"]["self_ms"] == 3.0
        assert rows["fleet.worker"]["self_ms"] == 9.0
        # Without the cross-process span, self times add up to the root.
        local = [e for e in events if e["pid"] == 1]
        assert sum(row["self_ms"] for row in phase_breakdown(local)) == 10.0


# ---------------------------------------------------------------------------
# Phase profiling + determinism

class TestPhaseProfiling:
    def test_engine_and_planner_phases_appear_in_trace(self, tmp_path):
        install(Tracer(tmp_path, scope="runner"))
        ExperimentRunner().run(small_spec())
        uninstall()
        spans = [event for event in read_events(tmp_path)
                 if event["type"] == "span"]
        phases = {event["name"] for event in spans}
        assert {"sim.routing-draw", "sim.decide", "sim.simulate",
                "sim.token-a2a", "sim.layer"} <= phases
        # One token All-to-All span per simulated iteration, covering every
        # layer, inside sim.simulate.
        names = {event["id"]: event["name"] for event in spans}
        a2a = [event for event in spans if event["name"] == "sim.token-a2a"]
        assert len(a2a) == sum(event["name"] == "sim.simulate"
                               for event in spans)
        assert all(names[event["parent"]] == "sim.simulate"
                   and event["attrs"]["layers"] == 1 for event in a2a)

    def test_laer_planner_phases_nest_under_decide(self, tmp_path):
        # LAER tunes its layouts through LoadBalancingPlanner.plan_layer and
        # its policy dispatches the iteration's layers in one batch, so the
        # dispatch and layout-tuning spans sit inside sim.decide.
        install(Tracer(tmp_path, scope="runner"))
        run_experiment(small_spec(systems=("laer",), reference="laer"))
        uninstall()
        spans = [event for event in read_events(tmp_path)
                 if event["type"] == "span"]
        names = {event["id"]: event["name"] for event in spans}
        parents = {event["name"]: set() for event in spans}
        for event in spans:
            parents[event["name"]].add(names.get(event["parent"]))
        assert parents["planner.lite-route"] == {"sim.decide"}
        assert parents["planner.layout-tune"] == {"sim.decide"}
        # Relocation is timed once per solve, beneath the layout tuning.
        assert parents["planner.relocate"] == {"planner.layout-tune"}
        assert all(event["attrs"]["replicas"] > 0 for event in spans
                   if event["name"] == "planner.relocate")
        # Simulation adds no cost evaluation of its own.
        assert "planner.cost-eval" not in parents

    def test_store_digest_identical_with_tracing_on_and_off(self, tmp_path):
        spec = small_spec()

        def execute(root, traced):
            store = ResultStore(root)
            if traced:
                install(Tracer(tmp_path / "trace", scope="determinism"))
            try:
                result = ExperimentRunner().run(spec)
            finally:
                uninstall()
            store.put(result, tags=["telemetry"], created_at=1.0)
            store.compact_index()
            return store_digest(store)

        assert execute(tmp_path / "off", traced=False) == \
            execute(tmp_path / "on", traced=True)


# ---------------------------------------------------------------------------
# Cross-process propagation (coordinator + 2 workers)

class TestFleetTracePropagation:
    def test_worker_spans_carry_the_coordinator_trace(self, tmp_path):
        trace_dir = tmp_path / "trace"
        tracer = install(Tracer(trace_dir, scope="coordinator"))
        try:
            launch_fleet(tiny_study(), ResultStore(tmp_path / "store"),
                         workers=2, poll_interval=0.05)
        finally:
            uninstall()
        assert os.environ.get(TRACE_DIR_ENV) is None  # restored after run
        events = read_events(trace_dir)
        assert {event["trace"] for event in events} == {tracer.trace_id}
        pids = {event["pid"] for event in events}
        assert len(pids) >= 3  # coordinator + 2 workers
        fleet_span = next(e for e in events if e["type"] == "span"
                          and e["name"] == "fleet.run")
        worker_runs = [e for e in events if e["type"] == "span"
                       and e["name"] == "worker.run"]
        assert len(worker_runs) == 2
        for run in worker_runs:
            assert run["parent"] == fleet_span["id"]
            assert run["pid"] != fleet_span["pid"]
        assert any(e["name"] == "worker.cell" for e in events
                   if e["type"] == "span")


# ---------------------------------------------------------------------------
# /metrics endpoint

class TestMetricsEndpoint:
    def test_live_scrape_parses_and_exposes_catalogue(self, tmp_path):
        with ReproServer(tmp_path / "store", port=0) as server:
            client = ServeClient(server.address, client="pytest")
            reply = client.submit(small_spec())
            assert reply.status == "done"
            host, port = server.address.rsplit(":", 1)
            conn = http.client.HTTPConnection(host, int(port), timeout=30)
            try:
                conn.request("GET", "/metrics")
                response = conn.getresponse()
                assert response.status == 200
                assert response.getheader("Content-Type").startswith(
                    "text/plain")
                text = response.read().decode("utf-8")
            finally:
                conn.close()
        series = parse_prometheus(text)
        families = {name.split("{")[0] for name in series}
        assert len({f for f in families if f.startswith("repro_")}) >= 10
        assert series["repro_serve_requests_total"] >= 1
        assert series["repro_serve_executed_total"] \
            + series["repro_serve_cache_hits_total"] >= 1
        assert "repro_serve_request_seconds_count" in families


# ---------------------------------------------------------------------------
# CLI surface

class TestCliTrace:
    def test_record_then_export(self, tmp_path, capsys):
        trace_dir = tmp_path / "tr"
        assert main(["trace", "record", "--dir", str(trace_dir),
                     "--", "models"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"trace: \d+ span\(s\) from \d+ process\(es\)", out)
        assert (trace_dir / "metrics.json").exists()
        assert json.loads((trace_dir / "metrics.json").read_text())
        assert main(["trace", "export", "--dir", str(trace_dir),
                     "--output", str(tmp_path / "chrome.json")]) == 0
        out = capsys.readouterr().out
        assert "Chrome trace event(s)" in out
        assert re.search(r"phase\s+\|\s+count\s+\|\s+total_ms\s+\|\s+self_ms",
                         out), out
        payload = json.loads((tmp_path / "chrome.json").read_text())
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_record_requires_a_command(self, tmp_path, capsys):
        assert main(["trace", "record", "--dir", str(tmp_path)]) == 2
        assert main(["trace", "record", "--dir", str(tmp_path),
                     "--", "trace", "record"]) == 2

    def test_export_without_events_errors(self, tmp_path, capsys):
        assert main(["trace", "export", "--dir",
                     str(tmp_path / "missing")]) == 2
        (tmp_path / "empty").mkdir()
        assert main(["trace", "export", "--dir",
                     str(tmp_path / "empty")]) == 2


class TestCliFleetWatch:
    def test_once_snapshot(self, tmp_path, capsys):
        from repro.fleet import QueuedCell, cell_key
        queue = WorkQueue(tmp_path / "queue")
        study = tiny_study()
        queue.populate([
            QueuedCell(key=cell_key(cell.cell_id), cell_id=cell.cell_id,
                       spec=cell.spec, tags=())
            for cell in study.expand()])
        queue.claim("worker-1")
        assert main(["fleet", "watch", "--queue", str(tmp_path / "queue"),
                     "--once"]) == 0
        out = capsys.readouterr().out
        assert "fleet watch:" in out
        assert "1 pending" in out and "1 in flight" in out
        assert "worker-1" in out and "heartbeat" in out

    def test_no_queues(self, tmp_path, capsys):
        (tmp_path / "store").mkdir()
        assert main(["fleet", "watch", "--store", str(tmp_path / "store"),
                     "--once"]) == 0
        assert "no fleet queues" in capsys.readouterr().out


class TestCliStoreStats:
    def test_stats_line_reads_the_registry(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "store")
        result = ExperimentRunner().run(small_spec())
        store.put(result, created_at=1.0)
        assert main(["store", "ls", "--store", str(store.root),
                     "--stats"]) == 0
        out = capsys.readouterr().out
        match = re.search(
            r"stats: index cache (\d+) hit\(s\) / (\d+) miss\(es\); "
            r"journal (\d+) line\(s\) \((\d+) torn\), (\d+) append\(s\); "
            r"(\d+) auto-compaction\(s\); (\d+) put\(s\)", out)
        assert match, out
        assert int(match.group(5)) >= 1  # the put above appended a line
        assert int(match.group(7)) >= 1


class TestStudyReportTraceSection:
    def test_phase_breakdown_section(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "store")
        trace_dir = tmp_path / "trace"
        install(Tracer(trace_dir, scope="runner"))
        try:
            result = ExperimentRunner().run(small_spec())
        finally:
            uninstall()
        store.put(result, created_at=1.0)
        assert main(["study", "report", "--store", str(store.root),
                     "--trace", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "## Phase breakdown (traced)" in out
        assert "| phase | count | total_ms | self_ms | mean_ms | share |" in out
        assert "sim.decide" in out

    def test_missing_trace_dir_errors(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "store")
        result = ExperimentRunner().run(small_spec())
        store.put(result, created_at=1.0)
        assert main(["study", "report", "--store", str(store.root),
                     "--trace", str(tmp_path / "nope")]) == 2
