"""Top-R verification fan-out with a deterministic reduce.

:class:`ParallelVerifier` is the bridge between Algorithm 2's trial loop
and the worker pool.  It ships the ranked batch to the workers and falls
back to the main process's own engine for any candidate no worker could
finish — so a crash costs wall-clock time, never correctness.  The
returned verdicts are in batch order and bit-identical to what the
serial loop computes, which makes the subsequent pick
(:meth:`LocalOptimizer._pick_best`) produce the same committed-move
trajectory regardless of worker count.

The verifier publishes the run's starting tree plus the main engine's
compiled kernel planes as generation 1 of the pool's
:class:`~repro.parallel.shm.SharedPlaneArena`, and republishes a fresh
baseline every ``compact_every`` committed moves so the pool can compact
its delta stream — a respawned worker then adopts the latest baseline
and replays only the delta suffix instead of the whole run history.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.moves import Move
from repro.netlist.tree import ClockTree
from repro.obs.merge import merge_worker_events
from repro.obs.trace import active as active_tracer
from repro.parallel.pool import WorkerPool
from repro.parallel.replica import ReplicaSpec, publish_replica_arena
from repro.parallel.shm import SharedPlaneArena

#: One candidate's verification verdict: (total variation, degraded?).
Verdict = Tuple[float, bool]

#: Republish the arena baseline (and compact the delta stream) once this
#: many committed moves have accumulated since the last baseline.
DEFAULT_COMPACT_EVERY = 64


class ParallelVerifier:
    """Fans golden verification of ranked candidates out to a pool."""

    def __init__(
        self,
        problem,
        tree: ClockTree,
        workers: int,
        local_skew_tolerance_ps: float = 0.5,
        mp_context: Optional[str] = None,
        compact_every: int = DEFAULT_COMPACT_EVERY,
    ) -> None:
        if workers < 2:
            raise ValueError("ParallelVerifier needs >= 2 workers")
        self._problem = problem
        self._spec = ReplicaSpec.from_problem(
            problem, tree, local_skew_tolerance_ps=local_skew_tolerance_ps
        )
        self._compact_every = max(2, compact_every)
        self._arena = SharedPlaneArena(tag="verify")
        publish_replica_arena(
            self._arena, self._spec, tree, engine=problem.engine(), baseline_index=0
        )
        self._pool = WorkerPool(
            workers, mp_context=mp_context, arena=self._arena, tag="verify"
        )
        self._serial_fallbacks = 0

    # ------------------------------------------------------------------
    def verify_batch(
        self, tree: ClockTree, moves: Sequence[Move]
    ) -> List[Verdict]:
        """Verify ``moves`` against the current state, in batch order."""
        gathered = self._pool.verify_batch(moves)
        tracer = active_tracer()
        if tracer.enabled:
            # Hang each worker's ``verify`` span under the span that
            # issued this fan-out (the local loop's ``trial`` stage), so
            # the merged tree matches the serial run's shape.
            for lane, events in self._pool.last_verify_obs:
                merge_worker_events(tracer, events, lane)
        verdicts: List[Verdict] = []
        for move, outcome in zip(moves, gathered):
            if outcome is None:
                self._serial_fallbacks += 1
                verdicts.append(self._verify_serial(tree, move))
            else:
                verdicts.append((outcome.total_variation, outcome.degraded))
        return verdicts

    def _verify_serial(self, tree: ClockTree, move: Move) -> Verdict:
        """Main-process re-verification of a forfeited candidate."""
        result = self._problem.evaluate_move(tree, move)
        return (
            result.total_variation,
            result.skews.degraded_local_skew(
                self._spec.baseline_skews,
                tol_ps=self._spec.local_skew_tolerance_ps,
            ),
        )

    # ------------------------------------------------------------------
    def record_commit(self, move: Move, tree: Optional[ClockTree] = None) -> None:
        """Extend the delta stream the workers replay to stay in sync.

        With the committed ``tree`` in hand, a baseline republish +
        delta compaction triggers once the retained stream reaches the
        compaction threshold.
        """
        self._pool.record_commit(move)
        if tree is not None and self._pool.retained_deltas >= self._compact_every:
            self._refresh_baseline(tree)

    def _refresh_baseline(self, tree: ClockTree) -> None:
        """Republish the arena at the current state and compact deltas."""
        publish_replica_arena(
            self._arena,
            self._spec,
            tree,
            engine=self._problem.engine(),
            baseline_index=self._pool.committed,
        )
        self._pool.compact_deltas()

    def stats_dict(self) -> Dict[str, float]:
        stats = dict(self._pool.stats)
        stats["serial_fallbacks"] = self._serial_fallbacks
        wall = stats.get("verify_wall_s", 0.0)
        busy = stats.get("worker_busy_s", 0.0)
        # Effective verification concurrency: worker-side eval seconds
        # per wall second of fan-out.  > 1 means the pool verified faster
        # than one process could have.
        stats["verify_speedup"] = round(busy / wall, 3) if wall > 0 else 0.0
        stats["arena_generation"] = self._arena.generation
        stats["arena_bytes"] = self._arena.bytes_shared
        stats["retained_deltas"] = self._pool.retained_deltas
        return stats

    def close(self) -> None:
        self._pool.close()  # also unlinks the arena

    def __enter__(self) -> "ParallelVerifier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
