"""The global-local optimization framework (paper Figure 1).

Three flows, matching Table 5's rows:

* ``global`` — LP (Equations (4)-(11)) with a swept upper bound, realized
  by the LP-guided ECO (Algorithm 1);
* ``local`` — predictor-guided iterative local moves (Algorithm 2);
* ``global-local`` — both in sequence (the paper's full framework).

Realization discipline: our ECO substrate is noisier than a commercial
P&R tool, so the global flow commits the LP plan in benefit-sorted
batches, golden-verifying each batch and reverting batches that hurt the
objective or degrade local skew.  This keeps the monotone-improvement
guarantee the paper reports (no local skew degradation, Table 5) while
preserving Algorithm 1 as the per-arc realization engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.eco_flow import ECOConfig, LPGuidedECO
from repro.core.instrument import diff_stats
from repro.core.local_opt import LocalOptConfig, LocalOptimizer, LocalOptResult
from repro.core.lp import (
    DEFAULT_BETA,
    DEFAULT_LATENCY_MARGIN,
    GlobalSkewLP,
    LPSolution,
    build_model_data,
    sweep_upper_bound,
)
from repro.core.ml.training import DeltaLatencyPredictor
from repro.core.objective import SkewVariationProblem
from repro.netlist.tree import ClockTree
from repro.obs.merge import merge_worker_events
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import active as active_tracer
from repro.sta.timer import TimingResult
from repro.tech.ratio_bounds import RatioBounds, fit_all_ratio_bounds
from repro.tech.stage_lut import StageDelayLUT, characterize_stage_luts


@dataclass(frozen=True)
class GlobalOptConfig:
    """Tuning of the global flow.

    ``max_iterations`` repeats the LP -> ECO -> verify loop: each pass
    re-measures the realized tree and re-solves, recovering the part of
    the previous plan that realization noise or no-op fallbacks left on
    the table.  (The paper runs one pass against a commercial ECO that
    honors requests closely; our ECO substrate is noisier, so iterating
    to the fixed point is the equivalent-effort discipline.)

    ``workers > 1`` fans the U-sweep out to a process pool: the per-bound
    LP solves and the per-sweep-point ECO realizations are independent,
    so each sweep point runs on its own worker; the fold over sweep
    points keeps the serial order and comparison, so the chosen tree is
    the one the serial sweep would have chosen.  The pool publishes the
    static realization context — library, stage LUTs, compiled ECO
    planes — once into a shared-memory arena that workers map zero-copy,
    so sweep-point payloads carry only the per-point dynamics.
    """

    sweep_factors: Tuple[float, ...] = (1.0, 1.15, 1.5)
    max_iterations: int = 3
    batch_size: int = 6
    beta: float = DEFAULT_BETA
    latency_margin: float = DEFAULT_LATENCY_MARGIN
    eco: ECOConfig = ECOConfig()
    improvement_eps_ps: float = 0.25
    workers: int = 1
    mp_context: Optional[str] = None
    #: The pool's one transport (shared-memory arena + event-driven
    #: scheduler).  A class constant, not a field: it is not a setting,
    #: only named here for run records that report it.
    pool_backend: ClassVar[str] = "shm"


@dataclass
class GlobalOptResult:
    """Outcome of the global flow.

    ``stats`` aggregates per-phase instrumentation across every sweep
    point and iteration (currently the ECO candidate-search backend's
    counters and timers under ``"eco"``), mirroring the
    ``LocalOptResult.stats`` pattern.
    """

    tree: ClockTree
    initial_objective_ps: float
    final_objective_ps: float
    lp_bound_ps: float
    arcs_realized: int
    batches_committed: int
    batches_reverted: int
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def total_reduction_ps(self) -> float:
        return self.initial_objective_ps - self.final_objective_ps


@dataclass
class FlowResult:
    """Outcome of a named flow (Table 5 row)."""

    flow: str
    tree: ClockTree
    timing: TimingResult
    global_result: Optional[GlobalOptResult] = None
    local_result: Optional[LocalOptResult] = None


class TechnologyCache:
    """Once-per-technology characterization shared across designs.

    Holds the stage-delay LUTs (Figure 3) and the cross-corner ratio
    bounds (Figure 2), both of which depend only on the library.
    """

    def __init__(self, library) -> None:
        self.library = library
        self._luts: Optional[Dict[str, StageDelayLUT]] = None
        self._bounds: Optional[Dict[Tuple[str, str], RatioBounds]] = None

    @property
    def stage_luts(self) -> Dict[str, StageDelayLUT]:
        if self._luts is None:
            self._luts = characterize_stage_luts(self.library)
        return self._luts

    @property
    def ratio_bounds(self) -> Dict[Tuple[str, str], RatioBounds]:
        if self._bounds is None:
            self._bounds = fit_all_ratio_bounds(self.library)
        return self._bounds


@dataclass
class RealizationContext:
    """The problem surface :func:`realize_verified_plan` consumes.

    Built either from the live :class:`SkewVariationProblem` (serial
    path) or from a shipped payload inside a pool worker (parallel
    U-sweep; see :mod:`repro.parallel.sweep`) — both expose the same
    engine-backed evaluation, so realizations are bit-identical wherever
    they run.
    """

    library: object
    stage_luts: Mapping[str, StageDelayLUT]
    legalizer: object
    region: object
    pairs: Sequence[Tuple[int, int]]
    alphas: Mapping[str, float]
    baseline_skews: object
    eco_config: ECOConfig
    batch_size: int
    improvement_eps_ps: float
    engine: object
    #: Lazily-built ECO candidate kernel, kept here so its compiled LUT
    #: planes and sweep-level table cache survive across sweep points,
    #: verification batches, and outer iterations.
    eco_kernel: object = None

    @staticmethod
    def from_problem(
        problem: SkewVariationProblem,
        stage_luts: Mapping[str, StageDelayLUT],
        config: GlobalOptConfig,
    ) -> "RealizationContext":
        design = problem.design
        return RealizationContext(
            library=design.library,
            stage_luts=stage_luts,
            legalizer=design.legalizer,
            region=design.region,
            pairs=problem.pairs,
            alphas=problem.alphas,
            baseline_skews=problem.baseline.skews,
            eco_config=config.eco,
            batch_size=config.batch_size,
            improvement_eps_ps=config.improvement_eps_ps,
            engine=problem.engine(),
        )

    def evaluate(self, tree: ClockTree) -> TimingResult:
        return self.engine.time_tree(tree, self.pairs, alphas=self.alphas)

    def corner_timings(self, tree: ClockTree):
        return self.engine.corner_timings(tree)


def realize_verified_plan(
    ctx: RealizationContext,
    base_tree: ClockTree,
    data,
    solution: LPSolution,
    allow_batches: bool = True,
) -> Tuple[ClockTree, TimingResult, Tuple[int, int, int], Dict[str, object]]:
    """Realize one LP plan with golden verification.

    The plan's arc changes are *coordinated* — launch and capture paths
    move together — so the whole plan is tried first.  Only if the
    one-shot realization regresses (or degrades local skew) does the
    flow fall back to committing benefit-sorted batches with per-batch
    verification, which salvages the separable part of the plan.

    The fourth return element is the ECO backend's stats payload
    (:attr:`LPGuidedECO.stats`) for this plan's realizations.

    The ``realize`` span opens here — shared by the serial path and the
    pool workers (:func:`repro.parallel.sweep.realize_point`), so traced
    sweeps carry the same span tree at any worker count.
    """
    with active_tracer().span("realize", phase="eco") as span:
        tree, result, counts, stats = _realize_verified_plan(
            ctx, base_tree, data, solution, allow_batches
        )
        span.set(arcs=counts[0], committed=counts[1], reverted=counts[2])
    return tree, result, counts, stats


def _realize_verified_plan(
    ctx: RealizationContext,
    base_tree: ClockTree,
    data,
    solution: LPSolution,
    allow_batches: bool,
) -> Tuple[ClockTree, TimingResult, Tuple[int, int, int], Dict[str, object]]:
    eco = LPGuidedECO(
        ctx.library,
        ctx.stage_luts,
        ctx.legalizer,
        region=ctx.region,
        config=ctx.eco_config,
        incremental=ctx.engine,
        candidate_kernel=ctx.eco_kernel,
    )
    stats_before = eco.stats

    def finish(tree, result, counts):
        # Keep the (possibly just-built) kernel for the next sweep point
        # so its candidate-table cache carries across the U sweep, and
        # report this call's stats as a delta (the shared kernel's
        # counters are cumulative).
        ctx.eco_kernel = eco.candidate_kernel
        return tree, result, counts, diff_stats(eco.stats, stats_before)

    current = base_tree.clone()
    current_result = ctx.evaluate(current)

    # One-shot attempt: the coordinated plan, all arcs at once.
    timings = ctx.corner_timings(current)
    full_trial = current.clone()
    full_report = eco.realize(full_trial, data, solution, timings)
    if full_report:
        full_result = ctx.evaluate(full_trial)
        improved = (
            full_result.total_variation
            < current_result.total_variation - ctx.improvement_eps_ps
        )
        degraded = full_result.skews.degraded_local_skew(
            ctx.baseline_skews, tol_ps=0.5
        )
        if improved and not degraded:
            return finish(full_trial, full_result, (len(full_report), 1, 0))

    if not allow_batches:
        return finish(current, current_result, (0, 0, 1))

    # Fallback: benefit-sorted batches, largest requested |delta|
    # first, each golden-verified and reverted on regression.
    pending = solution.nonzero_arcs(ctx.eco_config.delta_threshold_ps)
    pending.sort(key=lambda j: -float(np.sum(np.abs(solution.delta[j]))))
    arcs_done = 0
    committed = 0
    reverted = 1  # the rejected one-shot attempt
    for start in range(0, len(pending), ctx.batch_size):
        batch = pending[start : start + ctx.batch_size]
        timings = ctx.corner_timings(current)
        trial = current.clone()
        report = eco.realize(trial, data, solution, timings, arc_indices=batch)
        if not report:
            continue
        trial_result = ctx.evaluate(trial)
        improved = (
            trial_result.total_variation
            < current_result.total_variation - ctx.improvement_eps_ps
        )
        degraded = trial_result.skews.degraded_local_skew(
            ctx.baseline_skews, tol_ps=0.5
        )
        if improved and not degraded:
            current = trial
            current_result = trial_result
            arcs_done += len(report)
            committed += 1
        else:
            reverted += 1
    return finish(current, current_result, (arcs_done, committed, reverted))


class GlobalOptimizer:
    """LP-guided global optimization with batched verified realization."""

    def __init__(
        self,
        problem: SkewVariationProblem,
        tech: Optional[TechnologyCache] = None,
        config: GlobalOptConfig = GlobalOptConfig(),
    ) -> None:
        self._problem = problem
        self._tech = tech or TechnologyCache(problem.design.library)
        self._config = config

    def run(self, tree: Optional[ClockTree] = None) -> GlobalOptResult:
        """Run the full global flow; never worsens the objective."""
        cfg = self._config
        ctx = RealizationContext.from_problem(
            self._problem, self._tech.stage_luts, cfg
        )
        pool = None
        if cfg.workers > 1:
            from repro.parallel.sweep import open_sweep_pool

            pool = open_sweep_pool(
                ctx, self._problem, cfg.workers, mp_context=cfg.mp_context
            )
        try:
            return self._run(tree, pool, ctx)
        finally:
            if pool is not None:
                pool.close()

    def _run(self, tree: Optional[ClockTree], pool, ctx) -> GlobalOptResult:
        cfg = self._config
        problem = self._problem
        timer = problem.timer
        base_tree = (tree or problem.design.tree).clone()
        base_result = problem.evaluate(base_tree)

        current = base_tree
        current_result = base_result
        total_arcs = 0
        total_committed = 0
        total_reverted = 0
        last_bound = 0.0
        registry = MetricsRegistry()
        registry.absorb({"eco": {}})  # keep the key on no-op runs
        tracer = active_tracer()

        with tracer.span("global_opt", phase="global") as run_span:
            for iteration in range(cfg.max_iterations):
                with tracer.span("global_iteration", phase="global"):
                    data = build_model_data(
                        current,
                        timer,
                        problem.pairs,
                        problem.alphas,
                        self._tech.stage_luts,
                        timings=problem.corner_timings(current),
                    )
                    lp = GlobalSkewLP(
                        data,
                        self._tech.ratio_bounds,
                        beta=cfg.beta,
                        latency_margin=cfg.latency_margin,
                    )
                    solutions = sweep_upper_bound(
                        lp, cfg.sweep_factors, pool=pool
                    )

                    # First iteration: allow the batched salvage
                    # fallback; later iterations try the one-shot plan
                    # only (the loop itself is the recovery mechanism).
                    allow_batches = iteration == 0
                    realized = self._realize_sweep(
                        ctx, pool, current, data, solutions, allow_batches
                    )

                    best_tree = None
                    best_result = current_result
                    best_stats = (0.0, 0, 0, 0)
                    for (bound, _solution), (
                        tree_u,
                        result_u,
                        stats,
                        point_eco,
                    ) in zip(solutions, realized):
                        # Every sweep point did its candidate-search work
                        # whether or not it wins the fold; account for
                        # all of it.
                        registry.absorb({"eco": point_eco})
                        if (
                            result_u.total_variation
                            < best_result.total_variation
                            - cfg.improvement_eps_ps
                        ):
                            best_tree = tree_u
                            best_result = result_u
                            best_stats = (bound, *stats)

                    if best_tree is None:
                        break
                    current = best_tree
                    current_result = best_result
                    last_bound = best_stats[0]
                    total_arcs += best_stats[1]
                    total_committed += best_stats[2]
                    total_reverted += best_stats[3]
                # Per-iteration objective time series (counter track in
                # the Perfetto export; trendable by the sentinel).
                tracer.metric(
                    "global_opt.objective_ps",
                    round(current_result.total_variation, 6),
                    kind="gauge",
                )
            run_span.set(
                arcs=total_arcs,
                committed=total_committed,
                reverted=total_reverted,
            )
        registry.emit(tracer, prefix="global_opt")

        return GlobalOptResult(
            tree=current,
            initial_objective_ps=base_result.total_variation,
            final_objective_ps=current_result.total_variation,
            lp_bound_ps=last_bound,
            arcs_realized=total_arcs,
            batches_committed=total_committed,
            batches_reverted=total_reverted,
            stats=registry.snapshot(),
        )

    # ------------------------------------------------------------------
    def _realize_sweep(
        self,
        ctx: RealizationContext,
        pool,
        current: ClockTree,
        data,
        solutions: Sequence[Tuple[float, LPSolution]],
        allow_batches: bool,
    ) -> List[Tuple[ClockTree, TimingResult, Tuple[int, int, int], Dict[str, object]]]:
        """Realize every sweep point, in parallel when a pool is present.

        Sweep points are independent (each starts from ``current``), so
        workers realize them concurrently; results come back in sweep
        order and a crashed worker's point is realized serially here —
        the fold over them is therefore identical to the serial loop's.
        """
        problem = self._problem
        tracer = active_tracer()
        if pool is not None and pool.size > 1 and len(solutions) > 1:
            from repro.netlist.serialize import tree_from_dict
            from repro.parallel.sweep import build_realize_payload

            payloads = [
                build_realize_payload(current, data, solution, allow_batches)
                for _bound, solution in solutions
            ]
            remote = pool.call(
                "repro.parallel.sweep:realize_point", payloads
            )
            out = []
            for index, ((bound, solution), result) in enumerate(
                zip(solutions, remote)
            ):
                with tracer.span(
                    "sweep_point", phase="global", bound=round(bound, 6)
                ):
                    obs = pool.last_call_obs[index]
                    if obs is not None:
                        # The worker's ``realize`` span hangs under this
                        # point's span, matching the serial path's shape.
                        merge_worker_events(tracer, obs[1], obs[0])
                    if result is None:  # worker crash: realize here instead
                        out.append(
                            realize_verified_plan(
                                ctx, current, data, solution, allow_batches
                            )
                        )
                        continue
                    tree_u = tree_from_dict(result["tree"])
                    result_u = problem.evaluate(tree_u)
                    out.append(
                        (
                            tree_u,
                            result_u,
                            tuple(result["stats"]),
                            result.get("eco_stats", {}),
                        )
                    )
            return out
        out = []
        for bound, solution in solutions:
            with tracer.span(
                "sweep_point", phase="global", bound=round(bound, 6)
            ):
                out.append(
                    realize_verified_plan(
                        ctx, current, data, solution, allow_batches
                    )
                )
        return out


@dataclass(frozen=True)
class FrameworkConfig:
    """End-to-end configuration of the three flows."""

    global_config: GlobalOptConfig = GlobalOptConfig()
    local_config: LocalOptConfig = LocalOptConfig()


class GlobalLocalOptimizer:
    """The paper's framework: global and local flows, alone or chained."""

    FLOWS = ("global", "local", "global-local")

    def __init__(
        self,
        problem: SkewVariationProblem,
        predictor: Optional[DeltaLatencyPredictor] = None,
        tech: Optional[TechnologyCache] = None,
        config: FrameworkConfig = FrameworkConfig(),
    ) -> None:
        self._problem = problem
        self._predictor = predictor
        self._tech = tech or TechnologyCache(problem.design.library)
        self._config = config

    def run(self, flow: str = "global-local") -> FlowResult:
        """Run one named flow from the design's current tree."""
        if flow not in self.FLOWS:
            raise ValueError(f"unknown flow {flow!r}; expected one of {self.FLOWS}")
        problem = self._problem
        tree = problem.design.tree.clone()
        global_result: Optional[GlobalOptResult] = None
        local_result: Optional[LocalOptResult] = None

        if flow in ("global", "global-local"):
            optimizer = GlobalOptimizer(
                problem, tech=self._tech, config=self._config.global_config
            )
            global_result = optimizer.run(tree)
            tree = global_result.tree

        if flow in ("local", "global-local"):
            if self._predictor is None:
                raise ValueError(f"flow {flow!r} requires a trained predictor")
            local = LocalOptimizer(
                problem, self._predictor, config=self._config.local_config
            )
            local_result = local.run(tree)
            tree = local_result.tree

        timing = problem.evaluate(tree)
        return FlowResult(
            flow=flow,
            tree=tree,
            timing=timing,
            global_result=global_result,
            local_result=local_result,
        )
