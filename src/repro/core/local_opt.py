"""Algorithm 2: the iterative local optimization flow.

Each iteration:

1. enumerate candidate moves (Table 2) and featurize them against the
   current golden timing snapshot;
2. predict each move's per-corner delta-latency with the trained model
   and translate it into a predicted reduction of the sum of skew
   variations over the affected sink pairs;
3. trial the top-``R`` moves in place via the incremental timing engine
   (apply → re-time the dirty cone → undo; no clone, no full re-time)
   and assess them at golden accuracy — paper Line 4;
4. commit the best actually-improving move (that also keeps local skew
   non-degraded); otherwise try the next ``R`` moves;
5. stop when no candidate shows predicted reduction, the batch budget is
   exhausted, or the iteration cap is reached.

A full :class:`IterationRecord` trace is kept for the paper's Figure 8
(objective vs iteration, colored by move type) including the
random-move baseline used in that figure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.instrument import StageTimers
from repro.core.ml.features import SIDE_EFFECT_VARIANT, MoveFeatures, extract_features
from repro.core.ml.pipeline import CandidatePipeline
from repro.core.ml.training import DeltaLatencyPredictor
from repro.core.moves import Move, MoveType, enumerate_moves
from repro.core.objective import SkewVariationProblem
from repro.netlist.tree import ClockTree
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import active as active_tracer
from repro.sta.skew import worst_pair_variation
from repro.sta.timer import TimingResult


@dataclass(frozen=True)
class LocalOptConfig:
    """Tuning of the Algorithm-2 loop."""

    top_r: int = 5  # the paper's R
    max_iterations: int = 40
    max_batches_per_iteration: int = 4
    min_predicted_reduction_ps: float = 0.25
    buffers_per_iteration: Optional[int] = None  # None = all buffers
    surgery_window_um: float = 50.0
    local_skew_tolerance_ps: float = 0.5
    #: Use the incremental batched candidate pipeline (cross-iteration
    #: feature caching + vectorized assembly + one-call inference).
    #: ``False`` runs the original per-move ``extract_features`` path;
    #: both produce identical committed-move trajectories.
    use_pipeline: bool = True
    #: Featurization backend: ``"kernel"`` batches cache misses through
    #: the array-backed :class:`~repro.core.ml.feature_kernel.
    #: FeatureKernel` (and vectorizes the score stage); ``"reference"``
    #: runs the scalar per-move path.  Both commit byte-identical
    #: trajectories.  Ignored when ``use_pipeline`` is False.
    feature_backend: str = "kernel"
    #: ``workers > 1`` fans the top-``R`` trial verification out to a
    #: persistent process pool (:mod:`repro.parallel`): each worker builds
    #: a tree + timer replica from a shared-memory arena, keeps it
    #: delta-synced, and golden-verifies the candidates it is handed.
    #: The reduce is deterministic, so the committed-move trajectory is
    #: bit-identical to the serial one.  ``workers == 1`` runs today's
    #: serial path exactly.  ``"auto"`` resolves against the CPUs
    #: actually available to this process and degrades to serial when a
    #: pool cannot win (effective CPUs < 2).
    workers: object = 1
    #: Multiprocessing start method (``None`` = fork where available).
    mp_context: Optional[str] = None


@dataclass(frozen=True)
class IterationRecord:
    """One committed (or failed) iteration for the Figure-8 trace."""

    iteration: int
    move: Optional[Move]
    move_type: Optional[MoveType]
    predicted_reduction_ps: float
    actual_reduction_ps: float
    objective_after_ps: float
    candidates_evaluated: int
    elapsed_s: float


@dataclass
class LocalOptResult:
    """Outcome of a local optimization run.

    ``stats`` carries the run's observability payload: per-stage wall
    clock (``stage``), candidate-pipeline cache counters (``pipeline``,
    ``None`` on the legacy path) and incremental-engine counters
    (``engine``) — what ``benchmarks/test_bench_localopt_perf.py`` dumps
    to ``BENCH_localopt.json``.
    """

    tree: ClockTree
    history: List[IterationRecord]
    initial_objective_ps: float
    final_objective_ps: float
    stats: Optional[Dict[str, object]] = None

    @property
    def total_reduction_ps(self) -> float:
        return self.initial_objective_ps - self.final_objective_ps


class LocalOptimizer:
    """Iterative predictor-guided local optimization (Algorithm 2)."""

    def __init__(
        self,
        problem: SkewVariationProblem,
        predictor: DeltaLatencyPredictor,
        config: LocalOptConfig = LocalOptConfig(),
    ) -> None:
        self._problem = problem
        self._predictor = predictor
        self._config = config

    # ------------------------------------------------------------------
    def run(self, tree: Optional[ClockTree] = None) -> LocalOptResult:
        """Optimize ``tree`` (default: the design's tree); returns a copy."""
        cfg = self._config
        problem = self._problem
        current = (tree or problem.design.tree).clone()
        result = problem.evaluate(current)
        history: List[IterationRecord] = []
        initial = result.total_variation
        timers = StageTimers(phase="local")
        tracer = active_tracer()
        pipeline = (
            CandidatePipeline(
                problem.design.library, backend=cfg.feature_backend
            )
            if cfg.use_pipeline
            else None
        )
        from repro.parallel.pool import resolve_workers

        workers, workers_note = resolve_workers(cfg.workers)
        verifier = None
        if workers > 1:
            from repro.parallel.verify import ParallelVerifier

            # The replica spec snapshots the run's *starting* tree; the
            # main engine attaches to the same tree below, so replicas
            # and main evolve through identical float operations.
            verifier = ParallelVerifier(
                problem,
                current,
                workers,
                local_skew_tolerance_ps=cfg.local_skew_tolerance_ps,
                mp_context=cfg.mp_context,
            )

        try:
            with tracer.span("local_opt", phase="local") as run_span:
                for iteration in range(cfg.max_iterations):
                    started = time.time()
                    with tracer.span("iteration", phase="local"):
                        ranked = self._rank_moves(
                            current, result, pipeline, timers
                        )
                        if not ranked:
                            break
                        committed = False
                        evaluated = 0
                        batches = 0
                        for start in range(0, len(ranked), cfg.top_r):
                            if batches >= cfg.max_batches_per_iteration:
                                break
                            batches += 1
                            batch = ranked[start : start + cfg.top_r]
                            with timers.stage("trial"):
                                verdicts = self._verify_batch(
                                    verifier, current, result, batch
                                )
                                evaluated += len(batch)
                            best = self._pick_best(verdicts, result)
                            if best is not None:
                                trial_tv, _degraded, predicted, features = best
                                actual_red = result.total_variation - trial_tv
                                with timers.stage("commit"):
                                    result = problem.commit_move(
                                        current, features.move
                                    )
                                    if verifier is not None:
                                        verifier.record_commit(
                                            features.move, tree=current
                                        )
                                    if pipeline is not None:
                                        self._invalidate_pipeline(
                                            pipeline, features.move
                                        )
                                history.append(
                                    IterationRecord(
                                        iteration=iteration,
                                        move=features.move,
                                        move_type=features.move.type,
                                        predicted_reduction_ps=predicted,
                                        actual_reduction_ps=actual_red,
                                        objective_after_ps=result.total_variation,
                                        candidates_evaluated=evaluated,
                                        elapsed_s=time.time() - started,
                                    )
                                )
                                committed = True
                                break
                        if not committed:
                            break
                    # Per-iteration objective time series (renders as a
                    # Perfetto counter track; the sentinel can trend it).
                    tracer.metric(
                        "local_opt.objective_ps",
                        round(result.total_variation, 6),
                        kind="gauge",
                    )
                run_span.set(
                    iterations=len(history),
                    reduction_ps=round(initial - result.total_variation, 6),
                )
        finally:
            if verifier is not None:
                verifier.close()

        registry = MetricsRegistry()
        registry.absorb({"stage": timers.as_dict()})
        registry.set(
            "pipeline", pipeline.cache_stats() if pipeline is not None else None
        )
        registry.absorb({"engine": dict(problem.engine().stats)})
        registry.set(
            "parallel", verifier.stats_dict() if verifier is not None else None
        )
        registry.set(
            "workers",
            {
                "requested": cfg.workers,
                "effective": workers,
                "note": workers_note,
            },
        )
        stats: Dict[str, object] = registry.snapshot()
        registry.emit(tracer, prefix="local_opt")
        return LocalOptResult(
            tree=current,
            history=history,
            initial_objective_ps=initial,
            final_objective_ps=result.total_variation,
            stats=stats,
        )

    def _invalidate_pipeline(
        self, pipeline: CandidatePipeline, move: Move
    ) -> None:
        """Drop cached featurizations the committed ``move`` stales.

        The incremental engine records exactly which nodes the commit
        re-timed (``last_touched``); surgery additionally changes subtree
        membership, which flushes the move cache wholesale.
        """
        touched = self._problem.engine().last_touched
        if touched is None:
            pipeline.flush()
            return
        pipeline.invalidate(
            touched_local=touched[0],
            touched_arrival=touched[1],
            structural=move.type is MoveType.SURGERY,
        )

    # ------------------------------------------------------------------
    def _verify_batch(
        self, verifier, current: ClockTree, result: TimingResult, batch
    ) -> List[Tuple[float, bool, float, MoveFeatures]]:
        """Golden-verify one ranked batch, serially or via the pool.

        Returns ``(total_variation, degraded, predicted, features)``
        verdicts in batch order.  The parallel path ships the batch to
        the delta-synced worker replicas; both paths compute the same
        floats, so the subsequent pick is identical.
        """
        problem = self._problem
        if verifier is not None:
            raw = verifier.verify_batch(
                current, [features.move for _, features in batch]
            )
            return [
                (tv, degraded, predicted, features)
                for (tv, degraded), (predicted, features) in zip(raw, batch)
            ]
        verdicts = []
        # The serial loop opens the same ``verify`` span the pool workers
        # open in their own lanes, so traced runs produce the same span
        # tree regardless of worker count.
        with active_tracer().span("verify", phase="local") as span:
            for predicted, features in batch:
                # Trial in place: the incremental engine re-times only the
                # move's dirty cone, then the move is undone.
                trial_result = problem.evaluate_move(current, features.move)
                verdicts.append(
                    (
                        trial_result.total_variation,
                        trial_result.skews.degraded_local_skew(
                            problem.baseline.skews,
                            tol_ps=self._config.local_skew_tolerance_ps,
                        ),
                        predicted,
                        features,
                    )
                )
            span.set(tasks=len(batch))
        return verdicts

    def _pick_best(self, verdicts, current: TimingResult):
        """Best actually-improving, non-degrading verdict (or None)."""
        best = None
        best_red = 1e-9
        for verdict in verdicts:
            trial_tv, degraded = verdict[0], verdict[1]
            reduction = current.total_variation - trial_tv
            if reduction <= best_red:
                continue
            if degraded:
                continue
            best = verdict
            best_red = reduction
        return best

    # ------------------------------------------------------------------
    def _select_buffers(
        self, tree: ClockTree, result: TimingResult
    ) -> Optional[List[int]]:
        """Buffers to enumerate this iteration.

        When capped, buffers are ranked by the total pair variation of
        the sink pairs their subtree touches — the moves most likely to
        matter (the uncapped default matches the paper).
        """
        cap = self._config.buffers_per_iteration
        if cap is None:
            return None
        variation_by_sink: Dict[int, float] = {}
        for (a, b), v in result.skews.pair_variation.items():
            variation_by_sink[a] = variation_by_sink.get(a, 0.0) + v
            variation_by_sink[b] = variation_by_sink.get(b, 0.0) + v
        scored: List[Tuple[float, int]] = []
        for nid in tree.buffers():
            score = sum(
                variation_by_sink.get(s, 0.0) for s in tree.subtree_sinks(nid)
            )
            scored.append((score, nid))
        scored.sort(reverse=True)
        return [nid for _, nid in scored[:cap]]

    def _rank_moves(
        self,
        tree: ClockTree,
        result: TimingResult,
        pipeline: Optional[CandidatePipeline] = None,
        timers: Optional[StageTimers] = None,
    ) -> List[Tuple[float, MoveFeatures]]:
        """Featurize, predict, and rank all candidate moves.

        With a ``pipeline``, featurization goes through the incremental
        component cache and vectorized assembly, and inference consumes
        the per-corner matrices in one call per model.  Without one, the
        original per-move path runs.  Both paths produce numerically
        identical rankings (same floats, same stable sort).
        """
        cfg = self._config
        problem = self._problem
        library = problem.design.library
        timers = timers or StageTimers()
        buffers = self._select_buffers(tree, result)
        with timers.stage("enumerate"):
            moves = enumerate_moves(
                tree,
                library,
                buffers=buffers,
                surgery_window_um=cfg.surgery_window_um,
            )
        if not moves:
            return []
        if pipeline is not None:
            with timers.stage("featurize"):
                batch = pipeline.featurize(tree, result.per_corner, moves)
            features: Sequence = batch.components
            with timers.stage("predict"):
                predictions = self._predictor.predict_matrix(batch)
        else:
            with timers.stage("featurize"):
                features = [
                    extract_features(tree, library, result.per_corner, move)
                    for move in moves
                ]
            with timers.stage("predict"):
                predictions = self._predictor.predict_batch(features)
        ranked: List[Tuple[float, MoveFeatures]] = []
        with timers.stage("score"):
            if pipeline is not None and pipeline.backend == "kernel":
                reductions = batched_variation_reductions(
                    problem, tree, result, features, predictions
                )
            else:
                reductions = [
                    predicted_variation_reduction(
                        problem, tree, result, feats, pred
                    )
                    for feats, pred in zip(features, predictions)
                ]
            for feats, reduction in zip(features, reductions):
                if reduction > cfg.min_predicted_reduction_ps:
                    ranked.append((reduction, feats))
            ranked.sort(key=lambda item: -item[0])
        return ranked


def predicted_variation_reduction(
    problem: SkewVariationProblem,
    tree: ClockTree,
    result: TimingResult,
    features: MoveFeatures,
    subtree_delta: Mapping[str, float],
) -> float:
    """Translate predicted latency deltas into an objective reduction.

    Applies the predicted subtree delta to the moved buffer's sinks and
    the analytical (star-model) sibling corrections to the neighbouring
    subtrees, then recomputes the affected pairs' worst normalized
    variations against the current values.
    """
    move = features.move
    side = features.impacts[SIDE_EFFECT_VARIANT]
    corners = problem.design.library.corners
    alphas = problem.alphas

    subtree_sinks = set(tree.subtree_sinks(move.buffer))
    old_parent = tree.parent(move.buffer)
    old_sib_sinks = (
        set(tree.subtree_sinks(old_parent)) - subtree_sinks
        if old_parent is not None
        else set()
    )
    new_sib_sinks: Set[int] = set()
    if move.type is MoveType.SURGERY and move.new_parent is not None:
        new_sib_sinks = set(tree.subtree_sinks(move.new_parent)) - subtree_sinks

    affected = subtree_sinks | old_sib_sinks | new_sib_sinks
    pairs = [
        p for p in problem.pairs if p[0] in affected or p[1] in affected
    ]
    if not pairs:
        return 0.0

    def delta_for(sink: int, corner_name: str) -> float:
        if sink in subtree_sinks:
            return subtree_delta[corner_name]
        if sink in old_sib_sinks:
            return side.old_siblings[corner_name]
        if sink in new_sib_sinks:
            return side.new_siblings[corner_name]
        return 0.0

    total_delta = 0.0
    for pair in pairs:
        current_v = result.skews.pair_variation[pair]
        adjusted = {
            corner.name: {
                pair[0]: result.latencies[corner.name][pair[0]]
                + delta_for(pair[0], corner.name),
                pair[1]: result.latencies[corner.name][pair[1]]
                + delta_for(pair[1], corner.name),
            }
            for corner in corners
        }
        new_v = worst_pair_variation(adjusted, pair, corners, alphas)
        total_delta += new_v - current_v
    return -total_delta


def batched_variation_reductions(
    problem: SkewVariationProblem,
    tree: ClockTree,
    result: TimingResult,
    features: Sequence[MoveFeatures],
    predictions: Sequence[Mapping[str, float]],
) -> List[float]:
    """Vectorized :func:`predicted_variation_reduction` over a batch.

    Bit-identical to calling the scalar function per move: the affected
    sink sets and pair filters depend only on (buffer, surgery target),
    so they are grouped and computed once; per move, the per-pair
    adjusted skews, the Eq. (1) variations over the corner pairs (in
    ``corners.pairs()`` order) and the running Eq. (3) delta sum all run
    as arrays whose elementwise operations replay the scalar float
    sequence exactly (``np.maximum`` chains match builtin ``max``,
    ``np.add.accumulate`` matches the ``+=`` loop).
    """
    corners = problem.design.library.corners
    corner_list = list(corners)
    n_corner = len(corner_list)
    alphas = problem.alphas
    alpha = np.array([alphas[c.name] for c in corner_list])
    idx_of = {c.name: i for i, c in enumerate(corner_list)}
    corner_pairs = [
        (idx_of[a.name], idx_of[b.name]) for a, b in corners.pairs()
    ]
    latencies = result.latencies
    pair_variation = result.skews.pair_variation

    group_cache: Dict[Tuple, object] = {}
    out: List[float] = []
    for feats, pred in zip(features, predictions):
        move = feats.move
        key = (move.buffer, move.type is MoveType.SURGERY, move.new_parent)
        group = group_cache.get(key)
        if group is None:
            subtree_sinks = set(tree.subtree_sinks(move.buffer))
            old_parent = tree.parent(move.buffer)
            old_sib_sinks = (
                set(tree.subtree_sinks(old_parent)) - subtree_sinks
                if old_parent is not None
                else set()
            )
            new_sib_sinks: Set[int] = set()
            if move.type is MoveType.SURGERY and move.new_parent is not None:
                new_sib_sinks = (
                    set(tree.subtree_sinks(move.new_parent)) - subtree_sinks
                )
            affected = subtree_sinks | old_sib_sinks | new_sib_sinks
            pairs = [
                p
                for p in problem.pairs
                if p[0] in affected or p[1] in affected
            ]
            if pairs:

                def classify(sink: int) -> int:
                    # Same priority order as delta_for's if-chain.
                    if sink in subtree_sinks:
                        return 0
                    if sink in old_sib_sinks:
                        return 1
                    if sink in new_sib_sinks:
                        return 2
                    return 3

                cls_a = np.array([classify(p[0]) for p in pairs])
                cls_b = np.array([classify(p[1]) for p in pairs])
                lat_a = np.array(
                    [
                        [latencies[c.name][p[0]] for p in pairs]
                        for c in corner_list
                    ]
                )
                lat_b = np.array(
                    [
                        [latencies[c.name][p[1]] for p in pairs]
                        for c in corner_list
                    ]
                )
                current_v = np.array([pair_variation[p] for p in pairs])
                group = (cls_a, cls_b, lat_a, lat_b, current_v)
            else:
                group = ()
            group_cache[key] = group
        if not group:
            out.append(0.0)
            continue
        cls_a, cls_b, lat_a, lat_b, current_v = group
        side = feats.impacts[SIDE_EFFECT_VARIANT]
        dval = np.zeros((n_corner, 4))
        for c, corner in enumerate(corner_list):
            name = corner.name
            dval[c, 0] = pred[name]
            dval[c, 1] = side.old_siblings[name]
            dval[c, 2] = side.new_siblings[name]
        skew = (lat_a + dval[np.arange(n_corner)[:, None], cls_a[None, :]]) - (
            lat_b + dval[np.arange(n_corner)[:, None], cls_b[None, :]]
        )
        new_v = None
        for i, j in corner_pairs:
            v = np.abs(alpha[i] * skew[i] - alpha[j] * skew[j])
            new_v = v if new_v is None else np.maximum(new_v, v)
        total_delta = np.add.accumulate(new_v - current_v)[-1]
        out.append(-float(total_delta))
    return out


def random_move_baseline(
    problem: SkewVariationProblem,
    tree: ClockTree,
    iterations: int,
    seed: int = 99,
) -> List[float]:
    """Figure 8's random-move reference: commit random improving moves.

    At each step a random candidate move is applied; it is kept only if
    the golden objective improves (no prediction involved).  Returns the
    objective trace (one value per step, starting at the initial value).
    """
    rng = np.random.default_rng(seed)
    current = tree.clone()
    result = problem.evaluate(current)
    trace = [result.total_variation]
    library = problem.design.library
    for _ in range(iterations):
        moves = enumerate_moves(current, library)
        if not moves:
            break
        move = moves[int(rng.integers(len(moves)))]
        trial_result = problem.evaluate_move(current, move)
        if trial_result.total_variation < result.total_variation:
            result = problem.commit_move(current, move)
        trace.append(result.total_variation)
    return trace
