"""Per-layer timing of an optimize job, measured from outside the package.

:class:`LayerProbe` wraps public functions and methods of each layer
(``repro.core.lp``, ``repro.core.framework``, ``repro.core.local_opt``,
``repro.core.ml``, ``repro.core.objective``, ``repro.parallel``) and
accumulates call counts and wall seconds per layer key.  Nothing inside
``src/`` changes; the wrappers are installed in a fresh job process and
stay for its lifetime, so :meth:`LayerProbe.install` has no undo.

Only calls made in the job's own process are seen.  Work a pool worker
does (sweep-point realizations, remote verifies) shows up as the
parent's wait: ``parallel.call_wait_s`` and ``parallel.verify_wait_s``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, Optional


class LayerProbe:
    """Call counts and seconds per layer key, plus outermost-call time.

    ``top_s`` sums the time of calls made while no other probed call was
    running, so it never counts a nested layer twice; the flow's wall
    time minus ``top_s`` is the time no probe can attribute.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.top_s = 0.0
        self.pool_stats = []  # WorkerPool.stats snapshots, taken at close
        self._depth = 0

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()
        self.counts.clear()
        self.top_s = 0.0
        self.pool_stats = []

    def wrap(
        self,
        owner: object,
        attr: str,
        key: str,
        count: Optional[Callable[[tuple, dict, object], Dict[str, int]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timed wrapper recording under ``key``.

        ``count(args, kwargs, result)`` may return extra counters to add.
        """
        original = getattr(owner, attr)
        probe = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            outermost = probe._depth == 0
            probe._depth += 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                probe._depth -= 1
                probe.seconds[key] += elapsed
                probe.calls[key] += 1
                if outermost:
                    probe.top_s += elapsed
            if count is not None:
                for name, value in count(args, kwargs, result).items():
                    probe.counts[name] += value
            return result

        setattr(owner, attr, timed)

    def install(self) -> None:
        """Wrap every probed layer entry point (call once per process)."""
        from repro.core import framework
        from repro.core.local_opt import LocalOptimizer
        from repro.core.ml.pipeline import CandidatePipeline
        from repro.core.ml.training import DeltaLatencyPredictor
        from repro.core.objective import SkewVariationProblem
        from repro.parallel.pool import WorkerPool
        from repro.parallel.verify import ParallelVerifier

        def lp_solves(args, kwargs, result):
            # One base solve, then one per sweep bound once it is feasible.
            factors = kwargs.get("sweep_factors", args[1] if len(args) > 1 else ())
            return {"lp.solves": 1 + (len(factors) if result else 0)}

        self.wrap(framework, "build_model_data", "lp.model_data")
        self.wrap(framework, "sweep_upper_bound", "lp.sweep", count=lp_solves)
        self.wrap(framework, "realize_verified_plan", "eco.realize")
        self.wrap(LocalOptimizer, "run", "local.run")
        self.wrap(CandidatePipeline, "featurize", "local.featurize")
        self.wrap(DeltaLatencyPredictor, "predict_matrix", "ml.predict")
        self.wrap(SkewVariationProblem, "evaluate", "sta.evaluate")
        self.wrap(SkewVariationProblem, "evaluate_move", "sta.move_eval")
        self.wrap(WorkerPool, "__init__", "parallel.pool_start")
        self.wrap(WorkerPool, "call", "parallel.call")
        self.wrap(
            ParallelVerifier,
            "verify_batch",
            "parallel.verify",
            count=lambda args, kwargs, result: {"parallel.verified_moves": len(result)},
        )

        original_close = WorkerPool.close
        probe = self

        @functools.wraps(original_close)
        def close(pool):
            if not getattr(pool, "_closed", True):
                probe.pool_stats.append(dict(pool.stats))
            return original_close(pool)

        WorkerPool.close = close


def ratio(useful: float, attempts: float) -> float:
    """Useful outcomes over attempts (0 when nothing was attempted)."""
    return useful / attempts if attempts else 0.0


def layer_metrics(probe: LayerProbe, result, flow_s: float, phases: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced job.

    ``result`` is the flow's :class:`~repro.core.framework.FlowResult`;
    counters come from its public ``GlobalOptResult.stats`` and
    ``LocalOptResult.history``/``.stats``, times from ``probe``.
    """
    s, n, c = probe.seconds, probe.calls, probe.counts
    out: Dict[str, float] = {
        "testcases.build_s": phases["testcases.build_s"],
        "sta.baseline_s": phases["sta.baseline_s"],
        "tech.stage_luts_s": phases["tech.stage_luts_s"],
        "tech.ratio_bounds_s": phases["tech.ratio_bounds_s"],
        "ml.dataset_s": phases["ml.dataset_s"],
        "ml.train_s": phases["ml.train_s"],
        "lp.model_data_calls": n["lp.model_data"],
        "lp.model_data_s": s["lp.model_data"],
        "lp.solves": c["lp.solves"],
        "lp.sweep_s": s["lp.sweep"],
        "eco.realize_calls": n["eco.realize"],
        "eco.realize_s": s["eco.realize"],
    }

    glob = result.global_result
    eco = (glob.stats.get("eco", {}) if glob is not None else {}).get("counters", {})
    built = eco.get("tables_built", 0)
    hits = eco.get("table_hits", 0)
    out.update(
        {
            "eco.tables_built": built,
            "eco.table_hits": hits,
            "eco.table_hit_rate": ratio(hits, hits + built),
            "eco.candidates_evaluated": eco.get("candidates_evaluated", 0),
            "eco.selects": eco.get("selects", 0),
        }
    )
    committed = glob.batches_committed if glob is not None else 0
    reverted = glob.batches_reverted if glob is not None else 0
    out.update(
        {
            "global.iterations": n["lp.model_data"],
            "global.batches_committed": committed,
            "global.batches_reverted": reverted,
            "global.commit_ratio": ratio(committed, committed + reverted),
        }
    )

    local = result.local_result
    moves = len(local.history) if local is not None else 0
    # Serial runs trial each move through ``evaluate_move``; pooled runs
    # hand them to ``ParallelVerifier.verify_batch``.
    trials = n["sta.move_eval"] + c["parallel.verified_moves"]
    pipeline = ((local.stats or {}).get("pipeline") or {}) if local is not None else {}
    move_hits = pipeline.get("move_hits", 0)
    move_misses = pipeline.get("move_misses", 0)
    out.update(
        {
            "local.run_s": s["local.run"],
            "local.iterations": n["local.featurize"],
            "local.trials_verified": trials,
            "local.moves_committed": moves,
            "local.accept_ratio": ratio(moves, trials),
            "local.featurize_calls": n["local.featurize"],
            "local.featurize_s": s["local.featurize"],
            "local.pipeline_hit_rate": ratio(move_hits, move_hits + move_misses),
            "ml.predict_calls": n["ml.predict"],
            "ml.predict_s": s["ml.predict"],
            "sta.move_evals": n["sta.move_eval"],
            "sta.move_eval_s": s["sta.move_eval"],
            "sta.evaluate_calls": n["sta.evaluate"],
            "sta.evaluate_s": s["sta.evaluate"],
        }
    )

    out.update(
        {
            "parallel.pool_start_s": s["parallel.pool_start"],
            "parallel.calls": n["parallel.call"],
            "parallel.call_wait_s": s["parallel.call"],
            "parallel.verify_wait_s": s["parallel.verify"],
            "parallel.crashes": sum(p.get("crashes", 0) for p in probe.pool_stats),
            "parallel.requeued": sum(p.get("requeued", 0) for p in probe.pool_stats),
            "unattributed_s": flow_s - probe.top_s,
        }
    )
    return out
