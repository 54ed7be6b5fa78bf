"""One optimize job in a fresh process: set up, run the flow, check outputs.

Run by ``perfbench/run.py``, never imported by it::

    python3 perfbench/job.py --workload '<Workload JSON>' --seed 1 \
        --trace 0 --quality-samples 5 \
        --spawned <time.monotonic() of the parent at spawn>

The job builds the flow through the package's public API in the order
``repro optimize`` runs it: build design, ``SkewVariationProblem.create``,
predictor dataset and training, ``TechnologyCache`` characterization,
then ``GlobalLocalOptimizer.run``.  It prints one JSON object as its
last stdout line.  ``setup_s`` runs from the parent's spawn call to the
flow's start, so it includes interpreter start-up and imports.

With ``--quality-samples K`` above 1 the job, after its timed flow, its
output checks and its peak-RSS reading, scores ``K - 1`` more predictors,
each trained on a seed derived from ``--seed``, on the same flow (see
``quality_samples``).  The run reports the median of the ``K`` reductions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

from workloads import GLOBAL_ITERATIONS, SWEEP_FACTORS, Workload

#: The oracle re-time must reproduce the flow's objective this closely.
ORACLE_TOL_PS = 1e-6
#: Local-skew degradation tolerance of the paper's side constraint.
LOCAL_SKEW_TOL_PS = 0.5
#: Processes that score the extra predictors, within a 2-CPU host.
SAMPLE_WORKERS = 2


def _rss_kb(pid: int) -> int:
    """Resident set (``VmRSS``) of ``pid`` in KiB, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _child_pids(parent: int):
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesized command name: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == parent:
            yield int(entry)


class TreePeakRss:
    """Peak RSS of this process and the pool workers it forks, together.

    A background thread sums the current ``VmRSS`` of this process and
    its children every ``interval`` seconds and keeps the largest sum; a
    peak shorter than one interval can be missed.  Copy-on-write pages
    shared after ``fork`` count once per process.
    """

    def __init__(self, interval: float = 0.2) -> None:
        self._interval = interval
        self._peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self) -> None:
        me = os.getpid()
        while not self._stop.wait(self._interval):
            total = _rss_kb(me) + sum(_rss_kb(pid) for pid in _child_pids(me))
            self._peak_kb = max(self._peak_kb, total)

    def start(self) -> "TreePeakRss":
        self._thread.start()
        return self

    def stop_mb(self) -> float:
        self._stop.set()
        self._thread.join()
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB
        return max(own, self._peak_kb) / 1024.0


def _build_design(testcase: str):
    if testcase == "MINI":
        from repro.testcases.mini import build_mini

        return build_mini()
    from repro.testcases.cls1 import build_cls1

    return build_cls1({"CLS1v1": 1, "CLS1v2": 2}[testcase])


def sample_seed(seed: int, k: int) -> int:
    """Training seed of the ``k``-th extra predictor of a run seeded ``seed``."""
    import numpy as np

    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


#: What a forked sampling worker needs: (problem, start tree, timed
#: predictor, workload, local config, seed).  Set by ``quality_samples``
#: before it forks.
_SAMPLING = None


def _score_predictor(k: int) -> float:
    """Reduction of the flow when predictor ``k`` drives its local phase.

    Predictor 0 is the timed flow's own, so its score must reproduce the
    timed flow's reduction.
    """
    from repro.core.local_opt import LocalOptimizer
    from repro.core.ml.dataset import generate_dataset
    from repro.core.ml.training import train_predictor

    problem, start, predictor, workload, local_config, seed = _SAMPLING
    library = problem.design.library
    if k > 0:
        dataset = generate_dataset(
            library,
            n_cases=workload.train_cases,
            moves_per_case=workload.moves_per_case,
            seed=sample_seed(seed, k),
        )
        predictor = train_predictor(library, dataset, "hsm")
    local = LocalOptimizer(problem, predictor, config=local_config).run(start)
    return problem.reduction_percent(problem.evaluate(local.tree))


def quality_samples(problem, start, predictor, workload, local_config, seed: int, count: int):
    """Reductions of predictors 0 to ``count``, scored on the timed flow.

    The local phase is the only part of a flow that sees the predictor:
    the global phase (LP and ECO) never takes one, so every predictor
    starts its local phase from the same tree, ``start`` (the timed
    flow's global result, or the design's tree for the local flow).
    Each sample therefore equals the reduction a whole flow would reach
    with that predictor, at the cost of training it and running the
    local phase.  The local phase runs serially here; pooled and serial
    local phases build the same tree (the run checks this on the timed
    flows).  Predictor 0, the timed one, is scored too, as a check of
    all this.  Samples run in forked processes, after everything timed.
    """
    global _SAMPLING
    _SAMPLING = (problem, start, predictor, workload, local_config, seed)
    workers = min(SAMPLE_WORKERS, len(os.sched_getaffinity(0)))
    # Trained predictors first: predictor 0 needs no training and fills
    # the last round.
    order = list(range(1, count + 1)) + [0]
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            scores = dict(zip(order, pool.map(_score_predictor, order)))
        return [scores[k] for k in range(count + 1)]
    finally:
        _SAMPLING = None


def run_job(
    workload: Workload, seed: int, trace: bool, spawned: float, samples: int = 1
) -> dict:
    clock = time.perf_counter
    phases = {}
    t = clock()
    from repro.core.framework import (
        FrameworkConfig,
        GlobalLocalOptimizer,
        GlobalOptConfig,
        TechnologyCache,
    )
    from repro.core.local_opt import LocalOptConfig
    from repro.core.ml.dataset import generate_dataset
    from repro.core.ml.training import train_predictor
    from repro.core.objective import SkewVariationProblem
    from repro.netlist.serialize import tree_to_json
    from repro.sta.timer import GoldenTimer

    probe = None
    if trace:
        from layers import LayerProbe

        probe = LayerProbe()
        probe.install()
    phases["imports_s"] = clock() - t

    rss = TreePeakRss().start() if workload.workers > 1 else None

    t = clock()
    design = _build_design(workload.testcase)
    phases["testcases.build_s"] = clock() - t

    t = clock()
    problem = SkewVariationProblem.create(design, timer=GoldenTimer(design.library))
    phases["sta.baseline_s"] = clock() - t

    t = clock()
    dataset = generate_dataset(
        design.library,
        n_cases=workload.train_cases,
        moves_per_case=workload.moves_per_case,
        seed=seed,
    )
    phases["ml.dataset_s"] = clock() - t

    t = clock()
    predictor = train_predictor(design.library, dataset, "hsm")
    phases["ml.train_s"] = clock() - t

    # ``TechnologyCache`` characterizes lazily; force it here, as part of
    # set-up, so ``flow_s`` is the optimization alone.  The local flow
    # never asks for it.
    tech = TechnologyCache(design.library)
    phases["tech.stage_luts_s"] = phases["tech.ratio_bounds_s"] = 0.0
    if workload.flow != "local":
        t = clock()
        tech.stage_luts
        phases["tech.stage_luts_s"] = clock() - t
        t = clock()
        tech.ratio_bounds
        phases["tech.ratio_bounds_s"] = clock() - t

    local_kwargs = {"workers": workload.workers}
    if workload.local_iterations is not None:
        local_kwargs["max_iterations"] = workload.local_iterations
    if workload.buffers_per_iteration is not None:
        local_kwargs["buffers_per_iteration"] = workload.buffers_per_iteration
    config = FrameworkConfig(
        global_config=GlobalOptConfig(
            sweep_factors=SWEEP_FACTORS,
            max_iterations=GLOBAL_ITERATIONS,
            workers=workload.workers,
        ),
        local_config=LocalOptConfig(**local_kwargs),
    )
    optimizer = GlobalLocalOptimizer(problem, predictor, tech, config)

    if probe is not None:
        probe.reset()
    flow_start = time.monotonic()
    result = optimizer.run(workload.flow)
    flow_s = time.monotonic() - flow_start
    setup_s = flow_start - spawned
    layers = None
    if probe is not None:
        from layers import layer_metrics

        layers = layer_metrics(probe, result, flow_s, phases)

    # Output checks, against a fresh scalar-reference oracle.
    oracle = GoldenTimer(design.library, wire_backend="reference").time_tree(
        result.tree, design.pairs, alphas=problem.alphas
    )
    reported = result.timing.total_variation
    last = result.local_result or result.global_result
    baseline = problem.baseline.total_variation
    oracle_err = abs(oracle.total_variation - reported)
    checks = {
        "oracle_matches_flow": oracle_err <= ORACLE_TOL_PS,
        "result_objective_consistent": abs(last.final_objective_ps - reported)
        <= ORACLE_TOL_PS,
        "no_local_skew_degradation": not oracle.skews.degraded_local_skew(
            problem.baseline.skews, tol_ps=LOCAL_SKEW_TOL_PS
        ),
        "objective_not_worse": oracle.total_variation <= baseline,
    }
    tree_json = tree_to_json(result.tree)
    peak_mb = (
        rss.stop_mb()
        if rss is not None
        else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )

    reduction = problem.reduction_percent(result.timing)
    extras = []
    if samples > 1:
        start = result.global_result.tree if result.global_result else problem.design.tree
        start_reduction = problem.reduction_percent(problem.evaluate(start))
        local_config = LocalOptConfig(**dict(local_kwargs, workers=1))
        rescored, *extras = quality_samples(
            problem, start, predictor, workload, local_config, seed, samples - 1
        )
        checks["samples_reproduce_flow"] = rescored == reduction
        # A local phase commits only verified improvements.
        checks["samples_not_worse_than_start"] = min(extras) >= start_reduction
    return {
        "setup_s": setup_s,
        "flow_s": flow_s,
        "peak_rss_mb": peak_mb,
        # The timed flow's reduction first, then the extra predictors'.
        "reduction_samples": [reduction] + extras,
        "variation_reduction_pct": statistics.median([reduction] + extras),
        "phases": phases,
        "layers": layers,
        "checks": checks,
        "oracle_err_ps": oracle_err,
        "baseline_ps": baseline,
        "final_ps": reported,
        "digest": hashlib.sha256(tree_json.encode()).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="Workload as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument(
        "--quality-samples",
        type=int,
        default=1,
        help="predictors whose reductions the job reports (the timed one first)",
    )
    args = parser.parse_args(argv)
    workload = Workload(**json.loads(args.workload))
    try:
        out = run_job(
            workload, args.seed, bool(args.trace), args.spawned, args.quality_samples
        )
    except Exception:  # reported to the parent as one failed job
        out = {"error": traceback.format_exc()}
    print(json.dumps(out))
    return 0 if "error" not in out else 1


if __name__ == "__main__":
    sys.exit(main())
