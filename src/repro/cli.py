"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro corners
    python -m repro build --testcase MINI --out tree.json
    python -m repro optimize --testcase MINI --flow global-local --workers 4
    python -m repro train --cases 20 --moves 12
    python -m repro batch --testcases MINI CLS1v1 --jobs 2

The CLI wraps the same public API the examples use; it exists so a
downstream user can drive the flows without writing Python.

``--workers N`` fans verification/realization out to a process pool
(bit-identical trajectories; see ``repro.parallel``), and ``batch`` runs
several testcases concurrently, one flow per worker process.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional

from repro.analysis.metrics import table5_row
from repro.analysis.report import render_table
from repro.obs import trace as obs_trace

TESTCASES = ("MINI", "CLS1v1", "CLS1v2", "CLS2v1")


class _TraceSession:
    """One traced CLI run: tracer + optional sampler + optional profiler."""

    def __init__(self, tracer, sampler, profiler) -> None:
        self.tracer = tracer
        self.sampler = sampler
        self.profiler = profiler

    def finish(self, path: str) -> None:
        if self.sampler is not None:
            self.sampler.stop()
        obs_trace.deactivate()
        count = self.tracer.write(path)
        print(f"trace written to {path} ({count} events)")
        if self.profiler is not None:
            for sidecar in self.profiler.write_sidecars(path):
                print(f"profile sidecar written to {sidecar}")


def _start_trace(args: argparse.Namespace, command: str):
    """Activate a run tracer when ``--trace-out`` was given (else None).

    Also starts the background resource sampler (on by default for
    traced runs; ``--sample-interval 0`` disables it) and attaches the
    ``--profile`` span profiler when requested.
    """
    if not getattr(args, "trace_out", None):
        if getattr(args, "profile", None):
            print(
                "repro: --profile requires --trace-out (the profile "
                "sidecars are written next to the trace)",
                file=sys.stderr,
            )
            raise SystemExit(2)
        return None
    tracer = obs_trace.activate(obs_trace.Tracer())
    tracer.meta(
        command=command,
        argv=[a for a in (sys.argv[1:] or []) if a],
    )
    profiler = None
    pattern = getattr(args, "profile", None)
    if pattern:
        from repro.obs.profile import SpanProfiler

        profiler = SpanProfiler(pattern)
        tracer.profiler = profiler
    sampler = None
    interval = getattr(args, "sample_interval", 0.0)
    if interval and interval > 0:
        from repro.obs.sampler import ResourceSampler

        sampler = ResourceSampler(tracer, interval_s=interval).start()
    return _TraceSession(tracer, sampler, profiler)


def _finish_trace(session, path: str) -> None:
    """Deactivate and write the run trace (no-op when untraced)."""
    if session is None:
        return
    session.finish(path)


def _workers_arg(value: str):
    """Parse ``--workers``: a positive int or the literal ``auto``."""
    if value == "auto":
        return "auto"
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError("workers must be >= 1 or 'auto'")
    return count


def _build_design(name: str):
    if name == "MINI":
        from repro.testcases.mini import build_mini

        return build_mini()
    if name in ("CLS1v1", "CLS1v2"):
        from repro.testcases.cls1 import build_cls1

        return build_cls1(1 if name == "CLS1v1" else 2)
    if name == "CLS2v1":
        from repro.testcases.cls2 import build_cls2

        return build_cls2()
    raise SystemExit(f"unknown testcase {name!r}; choose from {TESTCASES}")


def cmd_corners(args: argparse.Namespace) -> int:
    from repro.tech.corners import default_corners
    from repro.tech.derating import DerateModel

    corners = default_corners()
    derate = DerateModel(reference=corners.nominal)
    rows = [
        [
            c.name,
            c.process,
            f"{c.voltage:.2f}V",
            f"{c.temperature_c:g}C",
            c.beol,
            f"{derate.gate_factor(c):.3f}",
        ]
        for c in corners
    ]
    print(
        render_table(
            "Signoff corners (paper Table 3)",
            ["corner", "process", "voltage", "temp", "BEOL", "gate derate"],
            rows,
        )
    )
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    design = _build_design(args.testcase)
    print(
        f"{design.name}: {len(design.tree.sinks())} sinks, "
        f"{len(design.tree.buffers())} buffers, "
        f"{len(design.pairs)} critical pairs, "
        f"wirelength {design.tree.total_wirelength():.0f} um"
    )
    if args.out:
        from repro.netlist.serialize import save_tree

        save_tree(design.tree, args.out)
        print(f"tree written to {args.out}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    from repro.core.framework import (
        FrameworkConfig,
        GlobalLocalOptimizer,
        GlobalOptConfig,
        TechnologyCache,
    )
    from repro.core.local_opt import LocalOptConfig
    from repro.core.ml.training import train_predictor
    from repro.core.objective import SkewVariationProblem

    from repro.sta.timer import GoldenTimer

    design = _build_design(args.testcase)
    timer = GoldenTimer(design.library, wire_backend=args.wire_backend)
    problem = SkewVariationProblem.create(design, timer=timer)
    base = problem.baseline
    print(f"baseline sum of skew variations: {base.total_variation:.1f} ps")

    predictor = None
    if args.flow in ("local", "global-local"):
        if args.predictor == "analytical":
            predictor = train_predictor(design.library, [], "full_rsmt_d2m")
        else:
            from repro.core.ml.dataset import generate_dataset

            print("training delta-latency predictor...")
            samples = generate_dataset(
                design.library, n_cases=args.train_cases, moves_per_case=12
            )
            predictor = train_predictor(design.library, samples, args.predictor)

    from repro.core.eco_flow import ECOConfig
    from repro.parallel.pool import resolve_workers

    # The local config resolves "auto" itself (and notes it in stats);
    # the global sweep pool takes a plain int.
    global_workers, _ = resolve_workers(args.workers)
    config = FrameworkConfig(
        global_config=GlobalOptConfig(
            sweep_factors=(1.0, 1.15),
            workers=global_workers,
            eco=ECOConfig(backend=args.eco_backend),
        ),
        local_config=LocalOptConfig(
            max_iterations=args.local_iterations,
            buffers_per_iteration=args.buffers_per_iteration,
            workers=args.workers,
            feature_backend=args.feature_backend,
        ),
    )
    tracer = _start_trace(args, "optimize")
    t0 = time.time()
    try:
        with obs_trace.active().span(
            "optimize", phase="cli", testcase=args.testcase, flow=args.flow
        ):
            result = GlobalLocalOptimizer(
                problem, predictor, TechnologyCache(design.library), config
            ).run(args.flow)
    finally:
        _finish_trace(tracer, args.trace_out)
    print(f"{args.flow} flow finished in {time.time() - t0:.0f}s")

    if result.global_result is not None:
        eco_stats = result.global_result.stats.get("eco", {})
        counters = eco_stats.get("counters", {})
        if counters:
            print(
                f"eco backend={eco_stats.get('backend')}: "
                f"{counters.get('candidates_evaluated', 0)} candidates in "
                f"{counters.get('tables_built', 0)} tables "
                f"({counters.get('table_hits', 0)} cache hits, "
                f"{counters.get('selects', 0)} selects)"
            )

    if args.trajectory_out and result.local_result is not None:
        with open(args.trajectory_out, "w") as handle:
            json.dump(
                _trajectory_payload(result.local_result),
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print(f"committed-move trajectory written to {args.trajectory_out}")

    rows = [
        table5_row(design, "orig", base).formatted(),
        table5_row(
            design.with_tree(result.tree),
            args.flow,
            result.timing,
            baseline_variation_ps=base.total_variation,
        ).formatted(),
    ]
    print(
        render_table(
            f"{design.name} results",
            ["testcase", "flow", "variation ns [norm]", "skew ps", "#cells", "power mW", "area um2"],
            rows,
        )
    )
    print(f"reduction: {problem.reduction_percent(result.timing):.1f}%")
    if args.out:
        from repro.netlist.serialize import save_tree

        save_tree(result.tree, args.out)
        print(f"optimized tree written to {args.out}")
    return 0


def _trajectory_payload(local_result) -> List[Dict[str, Any]]:
    """The committed-move trajectory, in byte-stable JSON-ready form.

    Only deterministic fields are included (no wall-clock), so two runs
    that commit the same moves produce byte-identical files — what the
    CI determinism job diffs across worker counts.
    """
    return [
        {
            "iteration": record.iteration,
            "move": repr(record.move),
            "predicted_reduction_ps": record.predicted_reduction_ps,
            "actual_reduction_ps": record.actual_reduction_ps,
            "objective_after_ps": record.objective_after_ps,
        }
        for record in local_result.history
    ]


def _batch_one(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one testcase's flow inside a batch worker process."""
    from repro.core.framework import (
        FrameworkConfig,
        GlobalLocalOptimizer,
        GlobalOptConfig,
        TechnologyCache,
    )
    from repro.core.local_opt import LocalOptConfig
    from repro.core.ml.training import train_predictor
    from repro.core.objective import SkewVariationProblem

    design = _build_design(payload["testcase"])
    problem = SkewVariationProblem.create(design)
    predictor = train_predictor(design.library, [], "full_rsmt_d2m")
    config = FrameworkConfig(
        global_config=GlobalOptConfig(sweep_factors=(1.0, 1.15)),
        local_config=LocalOptConfig(
            max_iterations=payload["local_iterations"],
            buffers_per_iteration=payload["buffers_per_iteration"],
        ),
    )
    t0 = time.time()
    # Shared span site: serial batches emit this in the main lane, pooled
    # batches in the worker lane — same tree either way.
    with obs_trace.active().span(
        "batch_case", phase="cli", testcase=payload["testcase"]
    ):
        result = GlobalLocalOptimizer(
            problem, predictor, TechnologyCache(design.library), config
        ).run(payload["flow"])
    base = problem.baseline.total_variation
    final = result.timing.total_variation
    return {
        "testcase": payload["testcase"],
        "flow": payload["flow"],
        "baseline_ps": base,
        "final_ps": final,
        "reduction_pct": 100.0 * (base - final) / base if base > 0 else 0.0,
        "runtime_s": time.time() - t0,
    }


def cmd_batch(args: argparse.Namespace) -> int:
    """Run several testcases concurrently, one flow per worker."""
    from repro.parallel.pool import WorkerPool

    payloads = [
        {
            "testcase": name,
            "flow": args.flow,
            "local_iterations": args.local_iterations,
            "buffers_per_iteration": args.buffers_per_iteration,
        }
        for name in args.testcases
    ]
    jobs = max(1, min(args.jobs, len(payloads)))
    tracer = _start_trace(args, "batch")
    t0 = time.time()
    try:
        with obs_trace.active().span("batch", phase="cli", jobs=jobs):
            if jobs == 1:
                results = [_batch_one(payload) for payload in payloads]
            else:
                from repro.obs.merge import merge_worker_events

                with WorkerPool(jobs, tag="batch") as pool:
                    results = pool.call("repro.cli:_batch_one", payloads)
                    active = obs_trace.active()
                    if active.enabled:
                        for obs in pool.last_call_obs:
                            if obs is not None:
                                merge_worker_events(active, obs[1], obs[0])
                # A crashed worker forfeits its testcase; rerun it here.
                results = [
                    result if result is not None else _batch_one(payload)
                    for payload, result in zip(payloads, results)
                ]
    finally:
        _finish_trace(tracer, args.trace_out)
    rows = [
        [
            r["testcase"],
            r["flow"],
            f"{r['baseline_ps']:.1f}",
            f"{r['final_ps']:.1f}",
            f"{r['reduction_pct']:.1f}%",
            f"{r['runtime_s']:.1f}s",
        ]
        for r in results
    ]
    print(
        render_table(
            f"batch of {len(results)} testcases ({jobs} concurrent)",
            ["testcase", "flow", "baseline ps", "final ps", "reduction", "runtime"],
            rows,
        )
    )
    print(f"batch wall clock: {time.time() - t0:.1f}s")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"batch summary written to {args.out}")
    return 0


def _load_reportable(path: str, check_health: bool = True):
    """Load a trace for reporting; returns (events, error_message)."""
    from repro.obs.merge import load_events
    from repro.obs.report import trace_health

    try:
        events = load_events(path)
    except OSError as exc:
        return None, f"{path}: cannot read trace ({exc})"
    except ValueError as exc:
        return None, f"{path}: not a JSONL trace ({exc})"
    if check_health:
        health = trace_health(events)
        if health is not None:
            return None, f"{path}: {health}"
    return events, None


def cmd_report(args: argparse.Namespace) -> int:
    """Summarize a ``--trace-out`` JSONL trace (phases, hotspots, caches).

    Degrades gracefully: an unreadable, meta-less or zero-span trace
    prints one clear message and exits 2 instead of raising.
    """
    from repro.obs.merge import span_tree
    from repro.obs.report import render_report
    from repro.obs.schema import validate_events

    if args.perf_diff:
        from repro.obs.sentinel import render_perf_diff

        path_a, path_b = args.perf_diff
        events_a, error = _load_reportable(path_a)
        if error is None:
            events_b, error = _load_reportable(path_b)
        if error is not None:
            print(error, file=sys.stderr)
            return 2
        print(
            render_perf_diff(
                events_a, events_b, label_a=path_a, label_b=path_b,
                top=args.top,
            )
        )
        return 0

    if not args.trace:
        print(
            "repro report: one of --trace or --perf-diff is required",
            file=sys.stderr,
        )
        return 2
    # Schema validation (when asked for) runs before the health gate —
    # a malformed trace should fail with its schema errors (exit 1),
    # not the softer "not a run trace" message.
    events, error = _load_reportable(args.trace, check_health=not args.validate)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    if args.validate:
        errors = validate_events(events)
        if errors:
            for error in errors:
                print(f"{args.trace}: {error}", file=sys.stderr)
            return 1
        print(f"{args.trace}: schema OK ({len(events)} events)")
        from repro.obs.report import trace_health

        health = trace_health(events)
        if health is not None:
            print(f"{args.trace}: {health}", file=sys.stderr)
            return 2
    if args.compare_tree:
        # The reference only contributes its span tree — it may be a
        # synthetic skeleton without meta/metrics, so skip the health gate.
        other_events, error = _load_reportable(
            args.compare_tree, check_health=False
        )
        if error is not None:
            print(error, file=sys.stderr)
            return 2
        other = span_tree(other_events)
        mine = span_tree(events)
        if mine != other:
            print(
                f"span trees differ ({args.trace} vs {args.compare_tree}):",
                file=sys.stderr,
            )
            for path in sorted(set(mine) ^ set(other)):
                where = args.trace if path in mine else args.compare_tree
                print(f"  only in {where}: {path}", file=sys.stderr)
            return 1
        print(f"span trees identical ({len(mine)} paths)")
    if args.chrome_out:
        from repro.obs.export import write_chrome_trace

        count = write_chrome_trace(events, args.chrome_out)
        print(
            f"Chrome trace-event JSON written to {args.chrome_out} "
            f"({count} events; load in Perfetto or chrome://tracing)"
        )
    print(render_report(events, top=args.top))
    return 0


def cmd_trend(args: argparse.Namespace) -> int:
    """Flag metric drift across a history of BENCH_*.json artifacts."""
    from repro.obs.sentinel import load_bench_history, render_trend

    try:
        history = load_bench_history(args.files)
    except OSError as exc:
        print(f"repro trend: cannot read bench payload ({exc})", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"repro trend: {exc}", file=sys.stderr)
        return 2
    table, failures = render_trend(history, band=args.band)
    print(table)
    if failures:
        for failure in failures:
            print(f"TREND FAIL: {failure}", file=sys.stderr)
        return 1
    if not any(len(records) >= 2 for records in history.values()):
        print(
            "repro trend: no bench appears twice (group = file basename); "
            "nothing was compared",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from repro.core.ml.dataset import generate_dataset
    from repro.core.ml.training import evaluate_predictor, train_predictor
    from repro.tech.library import default_library

    library = default_library(("c0", "c1", "c3"))
    samples = generate_dataset(
        library, n_cases=args.cases, moves_per_case=args.moves
    )
    split = int(len(samples) * 0.8)
    predictor = train_predictor(library, samples[:split], args.predictor)
    reports = evaluate_predictor(predictor, samples[split:])
    rows = [
        [name, f"{r.mean_abs_error_ps:.2f}", f"{r.mean_abs_percent_error:.1f}%"]
        for name, r in reports.items()
    ]
    print(
        render_table(
            f"{args.predictor} accuracy on {len(samples) - split} held-out moves",
            ["corner", "MAE ps", "mean |%err|"],
            rows,
        )
    )
    return 0


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    """Shared telemetry flags for traced subcommands."""
    parser.add_argument(
        "--sample-interval",
        type=float,
        default=0.1,
        metavar="SECONDS",
        help=(
            "resource-sampler interval for traced runs: RSS/CPU/arena/"
            "pool gauges stream into their own trace lane (0 disables; "
            "default 0.1s, inside the 2%% traced-overhead budget)"
        ),
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="SPAN_GLOB",
        help=(
            "profile spans whose name matches this glob under cProfile; "
            "writes <trace>.profile.txt (top-N cumulative) and "
            "<trace>.folded (flamegraph collapsed stacks) next to the "
            "trace (requires --trace-out)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-corner clock skew variation reduction (DAC 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("corners", help="print the signoff corner table")

    p_build = sub.add_parser("build", help="build a testcase")
    p_build.add_argument("--testcase", default="MINI", choices=TESTCASES)
    p_build.add_argument("--out", default=None, help="write the tree as JSON")

    p_opt = sub.add_parser("optimize", help="run an optimization flow")
    p_opt.add_argument("--testcase", default="MINI", choices=TESTCASES)
    p_opt.add_argument(
        "--flow", default="global-local", choices=("global", "local", "global-local")
    )
    p_opt.add_argument(
        "--predictor", default="hsm", choices=("hsm", "ann", "svr", "analytical")
    )
    p_opt.add_argument("--train-cases", type=int, default=16)
    p_opt.add_argument("--local-iterations", type=int, default=10)
    p_opt.add_argument("--buffers-per-iteration", type=int, default=24)
    p_opt.add_argument(
        "--workers",
        type=_workers_arg,
        default=1,
        help=(
            "process-pool size for the U-sweep and verification fan-out "
            "(1 = serial; 'auto' sizes to the effective CPU count and "
            "degrades to serial on 1-CPU hosts); workers map a "
            "shared-memory arena, and outputs are byte-identical to serial"
        ),
    )
    p_opt.add_argument(
        "--trajectory-out",
        default=None,
        help="write the committed-move trajectory as JSON (determinism checks)",
    )
    p_opt.add_argument(
        "--trace-out",
        default=None,
        help="write a span/metric trace of the run as JSONL (see 'repro report')",
    )
    _add_telemetry_args(p_opt)
    p_opt.add_argument(
        "--wire-backend",
        default="kernel",
        choices=("kernel", "reference"),
        help="timing execution engine (bit-identical; reference is the scalar path)",
    )
    p_opt.add_argument(
        "--eco-backend",
        default="kernel",
        choices=("kernel", "reference"),
        help="ECO candidate-search engine (bit-identical; reference is the scalar scan)",
    )
    p_opt.add_argument(
        "--feature-backend",
        default="kernel",
        choices=("kernel", "reference"),
        help=(
            "move-featurization engine (bit-identical; reference is the "
            "scalar per-move path)"
        ),
    )
    p_opt.add_argument("--out", default=None)

    p_batch = sub.add_parser(
        "batch", help="run several testcases concurrently"
    )
    p_batch.add_argument(
        "--testcases", nargs="+", default=["MINI"], choices=TESTCASES
    )
    p_batch.add_argument(
        "--flow", default="local", choices=("global", "local", "global-local")
    )
    p_batch.add_argument("--jobs", type=int, default=2)
    p_batch.add_argument("--local-iterations", type=int, default=6)
    p_batch.add_argument("--buffers-per-iteration", type=int, default=24)
    p_batch.add_argument("--out", default=None, help="write summary JSON")
    p_batch.add_argument(
        "--trace-out",
        default=None,
        help="write a span/metric trace of the batch as JSONL",
    )
    _add_telemetry_args(p_batch)

    p_report = sub.add_parser(
        "report", help="summarize a trace file written with --trace-out"
    )
    p_report.add_argument("--trace", default=None, help="JSONL trace file")
    p_report.add_argument(
        "--top", type=int, default=10, help="hotspot rows to show"
    )
    p_report.add_argument(
        "--validate",
        action="store_true",
        help="validate every event against the trace schema first",
    )
    p_report.add_argument(
        "--compare-tree",
        default=None,
        help="second trace; fail unless both have the same span tree",
    )
    p_report.add_argument(
        "--perf-diff",
        nargs=2,
        default=None,
        metavar=("A.jsonl", "B.jsonl"),
        help=(
            "diff two traces by canonical span path and rank per-path "
            "self-time regressions/improvements (lane-normalized); "
            "replaces the normal report output"
        ),
    )
    p_report.add_argument(
        "--chrome-out",
        default=None,
        metavar="OUT.json",
        help=(
            "also export the trace as Chrome trace-event JSON "
            "(loads in Perfetto / chrome://tracing)"
        ),
    )

    p_trend = sub.add_parser(
        "trend",
        help="flag metric drift across nightly BENCH_*.json artifacts",
    )
    p_trend.add_argument(
        "files",
        nargs="+",
        metavar="BENCH.json",
        help=(
            "bench payloads in history order (grouped by basename; "
            "the last record of each group is checked against the "
            "median of its predecessors)"
        ),
    )
    p_trend.add_argument(
        "--band",
        type=float,
        default=0.25,
        help=(
            "relative drift tolerance (default 0.25 = 25%%): speedups "
            "dropping or overheads rising beyond it fail"
        ),
    )

    p_train = sub.add_parser("train", help="train and score a predictor")
    p_train.add_argument("--cases", type=int, default=20)
    p_train.add_argument("--moves", type=int, default=12)
    p_train.add_argument(
        "--predictor", default="hsm", choices=("hsm", "ann", "svr")
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "corners": cmd_corners,
        "build": cmd_build,
        "optimize": cmd_optimize,
        "train": cmd_train,
        "batch": cmd_batch,
        "report": cmd_report,
        "trend": cmd_trend,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
