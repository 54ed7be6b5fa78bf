"""Telemetry v2: sampler, profiler, exporters, sentinel, CLI contracts.

The contracts under test:

* :class:`ResourceSampler` samples into its own lane, merges exactly
  once at stop, and the merged trace stays schema-valid; with a live
  pool its gauges/counters carry the pool tag and per-lane busy
  fractions;
* pool shutdown emits the lifetime counters (steals/requeued/
  compactions/crashes) as ``metric`` events, not only ``stats`` (S1);
* a worker killed mid-span leaves no orphan ``span_start`` after merge,
  and the respawned worker's lane validates against the schema (S3);
* :class:`SpanProfiler` profiles only glob-matched outermost spans and
  writes flamegraph-ready sidecars;
* the Chrome trace-event exporter round-trips a merged trace through
  its own validator, which catches undeclared threads, unbalanced B/E
  and non-monotonic counters;
* the Prometheus exporter renders both labeled and unlabeled registry
  series;
* the sentinel ranks an injected slowdown's exact span path as the top
  regression and flags bench-history drift in the bad direction only;
* the CLI degrades gracefully (documented exit codes) on unreadable,
  meta-less and zero-span traces (S2).
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cli import main
from repro.core.moves import enumerate_moves
from repro.core.objective import SkewVariationProblem
from repro.obs.export import (
    chrome_trace_events,
    prometheus_text,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import SpanProfiler
from repro.obs.report import path_self_times, trace_health
from repro.obs.sampler import ResourceSampler
from repro.obs.schema import validate_events
from repro.obs.sentinel import (
    metric_direction,
    perf_diff_rows,
    render_perf_diff,
    trend_rows,
)
from repro.obs.trace import SCHEMA_VERSION, Tracer, tracing
from repro.parallel import ParallelVerifier
from repro.testcases.mini import build_mini


@pytest.fixture(scope="module")
def problem():
    return SkewVariationProblem.create(build_mini())


@pytest.fixture(scope="module")
def moves(problem):
    found = enumerate_moves(problem.design.tree, problem.design.library)
    assert len(found) >= 4
    return found[:4]


def _meta_event(worker=0):
    return {
        "type": "meta",
        "ts": 0.0,
        "worker": worker,
        "schema": SCHEMA_VERSION,
        "attrs": {"command": "test"},
    }


def _span_pair(span, name, dur, worker=0, parent=None, ts=0.0):
    """A fabricated start/end pair with a controlled duration."""
    return [
        {
            "type": "span_start",
            "ts": ts,
            "worker": worker,
            "span": span,
            "parent": parent,
            "name": name,
        },
        {
            "type": "span_end",
            "ts": ts + dur,
            "worker": worker,
            "span": span,
            "name": name,
            "dur": dur,
        },
    ]


def _synthetic_run(featurize_s):
    """A minimal run trace: optimize -> {featurize, verify} with set costs."""
    events = [_meta_event()]
    events += [
        {
            "type": "span_start",
            "ts": 0.0,
            "worker": 0,
            "span": 0,
            "parent": None,
            "name": "optimize",
        }
    ]
    events += _span_pair(1, "featurize", featurize_s, parent=0, ts=0.01)
    events += _span_pair(2, "verify", 0.2, parent=0, ts=0.02 + featurize_s)
    events += [
        {
            "type": "span_end",
            "ts": 0.03 + featurize_s + 0.2,
            "worker": 0,
            "span": 0,
            "name": "optimize",
            "dur": 0.03 + featurize_s + 0.2,
        }
    ]
    return events


# ----------------------------------------------------------------------
# Resource sampler
# ----------------------------------------------------------------------
class TestResourceSampler:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            ResourceSampler(Tracer(), interval_s=0.0)

    def test_samples_into_own_lane_and_merges_once(self):
        tracer = Tracer()
        tracer.meta(command="test")
        with tracer.span("run"):
            sampler = ResourceSampler(tracer, interval_s=0.01).start()
            time.sleep(0.05)
            merged = sampler.stop()
        assert sampler.lane != 0
        assert merged > 0
        assert sampler.stop() == 0  # idempotent: nothing merged twice
        lanes = {e["worker"] for e in tracer.events}
        assert lanes == {0, sampler.lane}
        sampled = [e for e in tracer.events if e["worker"] == sampler.lane]
        assert all(e["type"] == "metric" for e in sampled)
        assert validate_events(tracer.events) == []

    def test_process_gauges_present_and_sane(self):
        tracer = Tracer()
        with ResourceSampler(tracer, interval_s=0.01) as sampler:
            time.sleep(0.03)
        by_name = {}
        for event in tracer.events:
            by_name.setdefault(event["name"], []).append(event["value"])
        assert sampler.samples >= 1
        assert all(rss > 0 for rss in by_name["proc.rss_bytes"])
        assert all(cpu >= 0 for cpu in by_name["proc.cpu_pct"])
        assert "shm.segments" in by_name

    def test_pool_series_with_live_pool(self, problem, moves):
        tree = problem.design.tree.clone()
        tracer = Tracer()
        with ParallelVerifier(problem, tree, workers=2) as verifier:
            with ResourceSampler(tracer, interval_s=0.01):
                verifier.verify_batch(tree, list(moves))
                time.sleep(0.03)
        metrics = {
            (e["name"], tuple(sorted((e.get("labels") or {}).items())))
            for e in tracer.events
        }
        tagged = (("pool", "verify"),)
        assert ("pool.queue_depth", tagged) in metrics
        assert ("pool.alive", tagged) in metrics
        assert ("pool.steals", tagged) in metrics
        assert any(
            name == "pool.busy_frac" and dict(labels).get("pool") == "verify"
            for name, labels in metrics
        )
        # Cumulative lifetime counters must be monotonic per series.
        steals = [
            e["value"]
            for e in tracer.events
            if e["name"] == "pool.steals"
        ]
        assert steals == sorted(steals)
        assert all(
            e["kind"] == "counter"
            for e in tracer.events
            if e["name"] == "pool.steals"
        )


# ----------------------------------------------------------------------
# S1: pool shutdown counters become metric events
# ----------------------------------------------------------------------
class TestPoolShutdownCounters:
    def test_close_emits_lifetime_counters(self, problem, moves):
        tree = problem.design.tree.clone()
        with tracing() as tracer:
            with ParallelVerifier(problem, tree, workers=2) as verifier:
                verifier.verify_batch(tree, list(moves))
        emitted = {
            e["name"]: e
            for e in tracer.events
            if e.get("type") == "metric" and e["name"].startswith("pool.")
        }
        for counter in ("steals", "requeued", "compactions", "crashes"):
            event = emitted[f"pool.{counter}"]
            assert event["kind"] == "counter"
            assert event["labels"] == {"pool": "verify"}
            assert event["worker"] == 0

    def test_close_untraced_emits_nothing(self, problem, moves):
        tree = problem.design.tree.clone()
        with ParallelVerifier(problem, tree, workers=2) as verifier:
            verifier.verify_batch(tree, list(moves))
        # No active tracer: close() must not raise and not record anywhere.


# ----------------------------------------------------------------------
# S3: tracing across worker crash/respawn
# ----------------------------------------------------------------------
class TestCrashRespawnTracing:
    def test_crash_leaves_no_orphan_spans(self, problem, moves):
        tree = problem.design.tree.clone()
        with tracing() as tracer:
            tracer.meta(command="test")
            with tracer.span("run"):
                with ParallelVerifier(problem, tree, workers=2) as verifier:
                    verifier._pool.crash_worker_after(0, 0)
                    verifier.verify_batch(tree, list(moves))
                    assert verifier._pool.stats["crashes"] == 1
                    respawn_lanes = {
                        handle.lane for handle in verifier._pool._workers
                    }
                    verifier.verify_batch(tree, list(moves))
        # A worker killed mid-span never ships its events (they ride the
        # response tuple), so the merged trace has no dangling
        # span_start — the schema validator's unclosed-span check is the
        # orphan detector.
        assert validate_events(tracer.events) == []
        starts = sum(1 for e in tracer.events if e["type"] == "span_start")
        ends = sum(1 for e in tracer.events if e["type"] == "span_end")
        assert starts == ends > 0
        # The respawned worker traced into a fresh lane that validates
        # on its own (per-lane invariants hold lane by lane).
        traced_lanes = {e["worker"] for e in tracer.events}
        assert respawn_lanes & traced_lanes
        for lane in respawn_lanes & traced_lanes:
            # Per-lane LIFO/shape invariants hold for the lane alone once
            # the cross-lane parent references (which point at lane-0
            # spans outside this subset) are dropped.
            lane_events = [
                {
                    k: v
                    for k, v in e.items()
                    if k not in ("parent", "parent_worker")
                }
                if e["type"] == "span_start"
                else e
                for e in tracer.events
                if e["worker"] == lane
            ]
            assert lane_events
            assert validate_events([_meta_event(), *lane_events]) == []


# ----------------------------------------------------------------------
# Span profiler
# ----------------------------------------------------------------------
class TestSpanProfiler:
    def test_profiles_matching_spans_only(self):
        profiler = SpanProfiler("hot*")
        tracer = Tracer()
        tracer.profiler = profiler
        with tracer.span("cold"):
            pass
        with tracer.span("hot_loop"):
            sum(range(1000))
        assert profiler.profiled_spans == ["hot_loop"]
        assert profiler.calls("hot_loop") == 1
        assert profiler.calls("cold") == 0

    def test_nested_matches_profile_outermost_only(self):
        profiler = SpanProfiler("*")
        tracer = Tracer()
        tracer.profiler = profiler
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        # cProfile cannot nest: the inner match is skipped, not fatal.
        assert profiler.profiled_spans == ["outer"]
        assert profiler.calls("outer") == 1
        assert profiler.calls("inner") == 0

    def test_report_and_collapsed_output(self):
        profiler = SpanProfiler("work")
        tracer = Tracer()
        tracer.profiler = profiler
        with tracer.span("work"):
            json.dumps({"payload": list(range(100))})
        report = profiler.report()
        assert "span 'work'" in report
        assert "cumulative" in report
        folded = profiler.collapsed()
        lines = folded.strip().splitlines()
        assert lines
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert stack.startswith("span:work")
            assert int(count) > 0

    def test_write_sidecars(self, tmp_path):
        profiler = SpanProfiler("work")
        tracer = Tracer()
        tracer.profiler = profiler
        with tracer.span("work"):
            sorted(range(50), reverse=True)
        trace = tmp_path / "t.jsonl"
        written = profiler.write_sidecars(str(trace))
        assert written == [f"{trace}.profile.txt", f"{trace}.folded"]
        assert (tmp_path / "t.jsonl.profile.txt").read_text()
        assert (tmp_path / "t.jsonl.folded").read_text()


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
class TestChromeExport:
    def _traced_events(self):
        tracer = Tracer()
        tracer.meta(command="optimize")
        with tracer.span("run", phase="flow"):
            with tracer.span("stage") as span:
                span.set(items=3)
            tracer.metric("cache_hits", 5, kind="counter")
            tracer.metric("rss", 1.5, kind="gauge", labels={"proc": "main"})
        return tracer.events

    def test_round_trip_validates(self, tmp_path):
        events = self._traced_events()
        out = tmp_path / "chrome.json"
        count = write_chrome_trace(events, str(out))
        payload = json.loads(out.read_text())
        assert len(payload["traceEvents"]) == count
        assert validate_chrome_trace(payload) == []

    def test_span_pairs_become_b_e(self):
        payload = chrome_trace_events(self._traced_events())
        phs = [e["ph"] for e in payload["traceEvents"]]
        assert phs.count("B") == phs.count("E") == 2
        begins = [e for e in payload["traceEvents"] if e["ph"] == "B"]
        assert begins[0]["name"] == "run"
        assert begins[0]["cat"] == "flow"

    def test_labels_fold_into_counter_name(self):
        payload = chrome_trace_events(self._traced_events())
        counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        names = {e["name"] for e in counters}
        assert "cache_hits" in names
        assert "rss{proc=main}" in names

    def test_validator_catches_undeclared_thread(self):
        payload = chrome_trace_events(self._traced_events())
        payload["traceEvents"].append(
            {"ph": "B", "pid": 1, "tid": 99, "ts": 1.0, "name": "ghost"}
        )
        errors = validate_chrome_trace(payload)
        assert any("undeclared thread" in e for e in errors)
        assert any("never closed" in e for e in errors)

    def test_validator_catches_non_lifo_end(self):
        payload = chrome_trace_events(self._traced_events())
        events = payload["traceEvents"]
        b_positions = [i for i, e in enumerate(events) if e["ph"] == "B"]
        events[b_positions[1]]["name"] = "renamed"
        errors = validate_chrome_trace(payload)
        assert any("does not match open B" in e for e in errors)

    def test_validator_catches_decreasing_counter(self):
        tracer = Tracer()
        tracer.metric("hits", 5, kind="counter")
        tracer.metric("hits", 3, kind="counter")
        errors = validate_chrome_trace(chrome_trace_events(tracer.events))
        assert any("monotonic counter" in e for e in errors)

    def test_gauges_may_decrease(self):
        tracer = Tracer()
        tracer.metric("rss", 5, kind="gauge")
        tracer.metric("rss", 3, kind="gauge")
        assert validate_chrome_trace(chrome_trace_events(tracer.events)) == []


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
class TestPrometheusText:
    def test_unlabeled_and_labeled_series_render(self):
        registry = MetricsRegistry()
        registry.count("pool.crashes", 2)
        registry.gauge("overhead_pct", 1.5)
        registry.count("steals", 3, pool="verify")
        text = prometheus_text(registry)
        assert "# TYPE repro_pool_crashes counter" in text
        assert "repro_pool_crashes 2" in text
        assert "repro_overhead_pct 1.5" in text
        assert 'repro_steals{pool="verify"} 3' in text

    def test_timers_map_to_counter_type(self):
        registry = MetricsRegistry()
        with registry.timer("featurize"):
            pass
        text = prometheus_text(registry)
        assert "# TYPE repro_featurize_seconds counter" in text
        assert "# TYPE repro_featurize_count counter" in text

    def test_non_numeric_payloads_skipped(self):
        registry = MetricsRegistry()
        registry.set("note", "hello")
        registry.gauge("flag", True)
        assert prometheus_text(registry) == ""


# ----------------------------------------------------------------------
# Sentinel: perf-diff and bench trend
# ----------------------------------------------------------------------
class TestPerfDiff:
    def test_injected_slowdown_ranks_top(self):
        # Acceptance criterion: a synthetic slowdown in one stage must
        # rank that exact span path as the top regression, not an
        # ancestor (self time, not total).
        fast = _synthetic_run(featurize_s=0.1)
        slow = _synthetic_run(featurize_s=0.9)
        regressions, improvements = perf_diff_rows(fast, slow)
        assert regressions[0][0] == "optimize/featurize"
        assert improvements == []
        rendered = render_perf_diff(fast, slow, label_a="fast", label_b="slow")
        assert "optimize/featurize" in rendered
        assert "(none)" in rendered  # empty improvements placeholder

    def test_lane_normalization(self):
        # The same per-lane cost fanned over 2 lanes must not read as 2x.
        one = [_meta_event()] + _span_pair(0, "verify", 0.5, worker=1)
        two = (
            [_meta_event()]
            + _span_pair(0, "verify", 0.5, worker=1)
            + _span_pair(0, "verify", 0.5, worker=2)
        )
        regressions, improvements = perf_diff_rows(one, two)
        assert regressions == [] and improvements == []

    def test_new_path_marked(self):
        base = _synthetic_run(featurize_s=0.1)
        added = base + _span_pair(9, "extra", 0.3, ts=5.0)
        regressions, _ = perf_diff_rows(base, added)
        assert regressions[0][0] == "extra"
        assert regressions[0][4] == "new"

    def test_path_self_times_counts_lanes(self):
        events = (
            _span_pair(0, "verify", 0.5, worker=1)
            + _span_pair(0, "verify", 0.5, worker=2)
        )
        per_path = path_self_times(events)
        count, seconds, lanes = per_path["verify"]
        assert (count, lanes) == (2, 2)
        assert seconds == pytest.approx(1.0)


class TestTrend:
    def _history(self, *values, name="verify_speedup"):
        return {
            "BENCH_x.json": [
                (f"run{i}/BENCH_x.json", {name: value})
                for i, value in enumerate(values)
            ]
        }

    def test_direction_classification(self):
        assert metric_direction("verify_speedup") == "higher"
        assert metric_direction("overhead_pct") == "lower"
        assert metric_direction("wall_s") is None

    def test_speedup_drop_fails(self):
        rows, failures = trend_rows(self._history(2.0, 2.1, 1.0), band=0.25)
        assert rows[0][-1] == "FAIL"
        assert len(failures) == 1
        assert "verify_speedup" in failures[0]

    def test_speedup_rise_passes(self):
        _rows, failures = trend_rows(self._history(2.0, 2.1, 3.0), band=0.25)
        assert failures == []

    def test_overhead_rise_fails(self):
        _rows, failures = trend_rows(
            self._history(1.0, 1.1, 2.0, name="overhead_pct"), band=0.25
        )
        assert len(failures) == 1

    def test_baseline_is_median_of_prior(self):
        # Latest (1.6) vs median(2.0, 0.1, 2.2) = 2.0 -> -20%, in band.
        _rows, failures = trend_rows(
            self._history(2.0, 0.1, 2.2, 1.6), band=0.25
        )
        assert failures == []

    def test_single_record_skipped(self):
        rows, failures = trend_rows(self._history(2.0), band=0.25)
        assert rows[0][1] == "(single record)"
        assert failures == []

    def test_zero_baseline_never_gates(self):
        # A 0% overhead baseline makes relative drift undefined; the row
        # reports the absolute move but cannot fail (ceilings in
        # compare_bench own the absolute contract).
        rows, failures = trend_rows(
            self._history(0.0, 5.0, name="overhead_pct"), band=0.25
        )
        assert failures == []
        assert "zero baseline" in rows[0][-1]


# ----------------------------------------------------------------------
# S2 + CLI: graceful degradation, perf-diff/trend/chrome-out end-to-end
# ----------------------------------------------------------------------
class TestCLIv2:
    def _write(self, path, events):
        with open(path, "w") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")
        return str(path)

    def test_report_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["report", "--trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_report_empty_trace_exits_2(self, capsys, tmp_path):
        trace = self._write(tmp_path / "empty.jsonl", [])
        assert main(["report", "--trace", trace]) == 2
        assert "empty trace" in capsys.readouterr().err

    def test_report_meta_less_trace_exits_2(self, capsys, tmp_path):
        trace = self._write(
            tmp_path / "nometa.jsonl", _span_pair(0, "loose", 0.1)
        )
        assert main(["report", "--trace", trace]) == 2
        assert "no meta event" in capsys.readouterr().err

    def test_report_zero_span_trace_exits_2(self, capsys, tmp_path):
        trace = self._write(tmp_path / "nospans.jsonl", [_meta_event()])
        assert main(["report", "--trace", trace]) == 2
        assert "zero spans" in capsys.readouterr().err

    def test_perf_diff_end_to_end(self, capsys, tmp_path):
        fast = self._write(tmp_path / "a.jsonl", _synthetic_run(0.1))
        slow = self._write(tmp_path / "b.jsonl", _synthetic_run(0.9))
        assert main(["report", "--perf-diff", fast, slow]) == 0
        out = capsys.readouterr().out
        assert "perf-diff" in out
        assert "optimize/featurize" in out

    def test_perf_diff_bad_input_exits_2(self, capsys, tmp_path):
        good = self._write(tmp_path / "a.jsonl", _synthetic_run(0.1))
        assert main(
            ["report", "--perf-diff", good, str(tmp_path / "nope.jsonl")]
        ) == 2

    def test_chrome_out_written_and_valid(self, capsys, tmp_path):
        trace = self._write(tmp_path / "t.jsonl", _synthetic_run(0.1))
        out = tmp_path / "chrome.json"
        code = main(["report", "--trace", trace, "--chrome-out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        assert "Chrome trace-event JSON written" in capsys.readouterr().out

    def test_profile_without_trace_out_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["optimize", "--profile", "local_opt*"])
        assert excinfo.value.code == 2
        assert "--trace-out" in capsys.readouterr().err

    def test_trend_exit_codes(self, capsys, tmp_path):
        old = tmp_path / "old"
        new = tmp_path / "new"
        old.mkdir(), new.mkdir()
        (old / "BENCH_x.json").write_text('{"verify_speedup": 2.0}\n')
        (new / "BENCH_x.json").write_text('{"verify_speedup": 1.0}\n')
        drift = [
            "trend", str(old / "BENCH_x.json"), str(new / "BENCH_x.json")
        ]
        assert main(drift) == 1
        assert "TREND FAIL" in capsys.readouterr().err
        # A wide band tolerates the same history.
        assert main(drift + ["--band", "0.9"]) == 0
        capsys.readouterr()
        # Nothing comparable: one record per group.
        assert main(["trend", str(old / "BENCH_x.json")]) == 2
        assert "nothing was compared" in capsys.readouterr().err
        assert main(["trend", str(tmp_path / "nope.json")]) == 2

    def test_schema_cli_unreadable_exits_2(self, tmp_path, capsys):
        from repro.obs.schema import main as schema_main

        assert schema_main([str(tmp_path / "nope.jsonl")]) == 2
        assert "unreadable" in capsys.readouterr().err

    def test_export_cli_contract(self, tmp_path, capsys):
        from repro.obs.export import main as export_main

        trace = self._write(tmp_path / "t.jsonl", _synthetic_run(0.1))
        out = tmp_path / "chrome.json"
        assert export_main([trace, "--chrome", str(out), "--check"]) == 0
        assert "OK" in capsys.readouterr().out
        missing = str(tmp_path / "nope.jsonl")
        assert export_main([missing, "--chrome", str(out)]) == 2

    def test_trace_health_reasons(self):
        assert trace_health([]) == "empty trace (no events)"
        assert "no meta" in trace_health(_span_pair(0, "x", 0.1))
        assert "zero spans" in trace_health([_meta_event()])
        assert trace_health(_synthetic_run(0.1)) is None
