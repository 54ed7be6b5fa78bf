"""Pool lifecycle and replica-sync tests for :mod:`repro.parallel`.

The contracts under test:

* a worker replica's verification verdicts equal the main engine's
  (bit-identical floats, same degradation flag);
* replaying the committed-move delta stream keeps a replica's timing
  within 1e-9 ps of the main process (in practice: bit-identical);
* a worker crash mid-batch costs no verdict — its in-flight task is
  requeued to the survivors, the main process re-verifies only what no
  worker could finish, and the pool is rebuilt to full strength;
* a worker killed inside a U-sweep ``call`` forfeits only its point,
  which the global flow realizes serially — the tree is unchanged;
* the parallel local-opt trajectory is identical to the serial one;
* arena-born replicas, delta compaction and baseline republishing keep
  verdicts bit-identical, and no /dev/shm segment is left behind.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.core.framework import GlobalOptConfig, GlobalOptimizer
from repro.core.local_opt import LocalOptConfig, LocalOptimizer
from repro.core.ml.training import train_predictor
from repro.core.moves import enumerate_moves
from repro.core.objective import SkewVariationProblem
from repro.netlist.serialize import tree_to_json
from repro.parallel import (
    CRASH_EXIT_CODE,
    ParallelVerifier,
    Replica,
    ReplicaSpec,
    SharedPlaneArena,
    WorkerPool,
    attach,
    publish_replica_arena,
)
from repro.parallel import sweep
from repro.parallel.pool import effective_cpu_count, resolve_workers
from repro.testcases.mini import build_mini


def _own_shm_segments():
    """This process's arena segments currently backed in /dev/shm."""
    prefix = f"repro-arena-{os.getpid()}-"
    try:
        return sorted(f for f in os.listdir("/dev/shm") if f.startswith(prefix))
    except FileNotFoundError:  # non-Linux: nothing to assert against
        return []


def _replica_pool(problem, tree, workers=2):
    """A verify pool over a replica arena published from ``tree``."""
    arena = SharedPlaneArena(tag="test")
    publish_replica_arena(arena, ReplicaSpec.from_problem(problem, tree), tree)
    return WorkerPool(workers, arena=arena, tag="verify")


def _len_or_die(payload):
    """``call`` target: ``len(payload)``, or kill the worker on ``"die"``."""
    if payload == "die":
        os._exit(CRASH_EXIT_CODE)
    return len(payload)


@pytest.fixture(scope="module")
def problem():
    return SkewVariationProblem.create(build_mini())


@pytest.fixture(scope="module")
def moves(problem):
    tree = problem.design.tree
    found = enumerate_moves(tree, problem.design.library)
    assert len(found) >= 6
    return found[:6]


@pytest.fixture(scope="module")
def predictor(problem):
    return train_predictor(problem.design.library, [], "full_rsmt_d2m")


def serial_verdict(problem, tree, move, tol_ps=0.5):
    result = problem.evaluate_move(tree, move)
    return (
        result.total_variation,
        result.skews.degraded_local_skew(problem.baseline.skews, tol_ps=tol_ps),
    )


# ----------------------------------------------------------------------
# Replica
# ----------------------------------------------------------------------
class TestReplica:
    def test_verify_matches_main_engine(self, problem, moves):
        tree = problem.design.tree.clone()
        replica = Replica(ReplicaSpec.from_problem(problem, tree))
        for index, move in enumerate(moves):
            outcome = replica.verify(index, move)
            tv, degraded = serial_verdict(problem, tree, move)
            assert outcome.total_variation == tv
            assert outcome.degraded == degraded

    def test_delta_replay_keeps_timing_within_tolerance(self, problem, moves):
        tree = problem.design.tree.clone()
        replica = Replica(ReplicaSpec.from_problem(problem, tree))
        # Commit two moves on the main side, replay them on the replica.
        committed = []
        for move in moves:
            try:
                problem.commit_move(tree, move)
            except Exception:
                continue
            committed.append(move)
            if len(committed) == 2:
                break
        assert len(committed) == 2
        replica.sync(committed, first_index=0)
        assert replica.applied == 2
        main_result = problem.evaluate(tree)
        replica_result = replica.evaluate()
        assert (
            abs(
                main_result.total_variation
                - replica_result.total_variation
            )
            <= 1e-9
        )
        for corner, latencies in main_result.latencies.items():
            for sink, value in latencies.items():
                assert abs(replica_result.latencies[corner][sink] - value) <= 1e-9

    def test_sync_skips_already_applied_and_rejects_gaps(self, problem, moves):
        tree = problem.design.tree.clone()
        replica = Replica(ReplicaSpec.from_problem(problem, tree))
        move = moves[0]
        problem.engine()  # main engine exists independently
        replica.sync([move], first_index=0)
        # Redelivery of the same prefix is harmless (pool rebuild path).
        replica.sync([move], first_index=0)
        assert replica.applied == 1
        with pytest.raises(ValueError, match="gap"):
            replica.sync([move], first_index=3)


# ----------------------------------------------------------------------
# WorkerPool
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_verify_batch_matches_serial(self, problem, moves):
        tree = problem.design.tree.clone()
        with _replica_pool(problem, tree) as pool:
            gathered = pool.verify_batch(moves)
            assert len(gathered) == len(moves)
            for index, (move, outcome) in enumerate(zip(moves, gathered)):
                assert outcome is not None and outcome.index == index
                tv, degraded = serial_verdict(problem, tree, move)
                assert outcome.total_variation == tv
                assert outcome.degraded == degraded
        assert _own_shm_segments() == []

    def test_crash_mid_batch_recovers_with_correct_results(self, problem, moves):
        tree = problem.design.tree.clone()
        with _replica_pool(problem, tree) as pool:
            pool.crash_worker(0)
            gathered = pool.verify_batch(moves)
            # The dead worker forfeits nothing: the survivor takes its
            # tasks, so every candidate comes back verified.
            assert pool.stats["crashes"] == 1
            assert pool.stats["failed_shards"] == 0
            for move, outcome in zip(moves, gathered):
                assert outcome is not None
                tv, _ = serial_verdict(problem, tree, move)
                assert outcome.total_variation == tv
            # The pool rebuilt itself: next batch is fully parallel.
            assert pool.alive_workers() == 2
            gathered = pool.verify_batch(moves)
            assert all(outcome is not None for outcome in gathered)

    def test_crash_after_commits_resyncs_fresh_worker(self, problem, moves):
        tree = problem.design.tree.clone()
        with _replica_pool(problem, tree) as pool:
            committed = []
            for move in moves:
                try:
                    problem.commit_move(tree, move)
                except Exception:
                    continue
                committed.append(move)
                pool.record_commit(move)
                if len(committed) == 2:
                    break
            assert len(committed) == 2
            pool.crash_worker(0)
            pool.crash_worker(1)
            # Every task of this batch is forfeited (no worker is left
            # to requeue to); the pool rebuilds afterwards.
            gathered = pool.verify_batch(moves[:2])
            assert all(outcome is None for outcome in gathered)
            assert pool.alive_workers() == 2
            # Fresh workers replay the full delta stream from the arena
            # baseline, so verdicts match the advanced main engine.
            gathered = pool.verify_batch(moves[:2])
            for move, outcome in zip(moves[:2], gathered):
                assert outcome is not None
                tv, degraded = serial_verdict(problem, tree, move)
                assert (outcome.total_variation, outcome.degraded) == (tv, degraded)

    def test_call_scatters_and_keeps_order(self):
        with WorkerPool(2) as pool:
            payloads = [[1], [1, 2], [1, 2, 3], []]
            results = pool.call("builtins:len", payloads)
            assert results == [1, 2, 3, 0]

    def test_call_crash_yields_none_for_forfeited_payloads(self):
        with WorkerPool(2) as pool:
            # The worker that takes "die" exits with it in flight: that
            # payload alone is forfeited, the rest go to the survivor.
            results = pool.call(
                f"{__name__}:_len_or_die", [[1], "die", [1], [1], [1]]
            )
            assert results == [1, None, 1, 1, 1]
            assert pool.stats["crashes"] == 1
            # Dead worker respawned for subsequent calls.
            assert pool.alive_workers() == 2
            assert pool.call("builtins:len", [[1]] * 4) == [1, 1, 1, 1]


# ----------------------------------------------------------------------
# ParallelVerifier + trajectory identity
# ----------------------------------------------------------------------
class TestParallelLocalOpt:
    def _run(self, predictor, workers, top_r=5, iterations=3):
        prob = SkewVariationProblem.create(build_mini())
        config = LocalOptConfig(
            max_iterations=iterations, workers=workers, top_r=top_r
        )
        outcome = LocalOptimizer(prob, predictor, config).run()
        trajectory = [
            (
                repr(record.move),
                record.predicted_reduction_ps,
                record.actual_reduction_ps,
                record.objective_after_ps,
            )
            for record in outcome.history
        ]
        return trajectory, outcome

    def test_workers2_trajectory_identical_to_serial(self, predictor):
        serial, serial_outcome = self._run(predictor, workers=1)
        parallel, parallel_outcome = self._run(predictor, workers=2)
        assert serial == parallel
        assert (
            serial_outcome.final_objective_ps
            == parallel_outcome.final_objective_ps
        )
        stats = parallel_outcome.stats["parallel"]
        assert stats is not None
        assert stats["verify_batches"] > 0
        assert stats["serial_fallbacks"] == 0
        assert serial_outcome.stats["parallel"] is None

    def test_sharded_workers_trajectory_identical(self, predictor):
        """Workers outnumber the batch (5 workers, top-R of 2)."""
        serial, _ = self._run(predictor, workers=1, top_r=2, iterations=2)
        parallel, outcome = self._run(predictor, workers=5, top_r=2, iterations=2)
        assert serial == parallel
        assert outcome.stats["parallel"]["verify_batches"] > 0

    def test_verifier_serial_fallback_matches(self, problem, moves):
        tree = problem.design.tree.clone()
        with ParallelVerifier(problem, tree, workers=2) as verifier:
            # Both workers die with their first task in flight: nothing
            # is left to requeue to, so the main process verifies.
            verifier._pool.crash_worker_after(0, 0)
            verifier._pool.crash_worker_after(1, 0)
            verdicts = verifier.verify_batch(tree, list(moves))
            assert verifier.stats_dict()["serial_fallbacks"] > 0
            for move, (tv, degraded) in zip(moves, verdicts):
                want_tv, want_degraded = serial_verdict(problem, tree, move)
                assert tv == want_tv
                assert degraded == want_degraded


# ----------------------------------------------------------------------
# Shared-memory arena
# ----------------------------------------------------------------------
class TestSharedArena:
    def test_arena_replica_bit_identical_to_serial_engine(self, problem, moves):
        tree = problem.design.tree.clone()
        serial = problem.evaluate(tree)  # attaches the main engine (planes)
        spec = ReplicaSpec.from_problem(problem, tree)
        arena = SharedPlaneArena(tag="test")
        try:
            publish_replica_arena(
                arena, spec, tree, engine=problem.engine(), baseline_index=0
            )
            view = attach(arena.name)
            try:
                shared = Replica.from_arena(view)
                timing = shared.evaluate()
                assert timing.total_variation == serial.total_variation
                assert timing.latencies == serial.latencies
                for index, move in enumerate(moves):
                    outcome = shared.verify(index, move)
                    assert (outcome.total_variation, outcome.degraded) == (
                        serial_verdict(problem, tree, move)
                    )
            finally:
                view.close()
        finally:
            arena.close()
        assert _own_shm_segments() == []

    def test_generation_republish_unlinks_previous(self, problem):
        tree = problem.design.tree.clone()
        spec = ReplicaSpec.from_problem(problem, tree)
        arena = SharedPlaneArena(tag="gen")
        try:
            first = publish_replica_arena(arena, spec, tree)
            assert arena.generation == 1
            second = publish_replica_arena(arena, spec, tree)
            assert arena.generation == 2
            assert first != second
            segments = _own_shm_segments()
            assert any(second in name for name in segments)
            assert not any(first in name for name in segments)
            view = attach(arena.name)
            assert view.generation == 2
            view.close()
        finally:
            arena.close()
        assert _own_shm_segments() == []

    def test_oversubscription_note(self):
        cpus = effective_cpu_count()
        count, note = resolve_workers(cpus + 1)
        assert count == cpus + 1
        assert "oversubscribe" in note
        count, note = resolve_workers(cpus)
        assert count == cpus
        assert note == "explicit"


# ----------------------------------------------------------------------
# shm backend: overlapped scheduler, crash requeue, compaction
# ----------------------------------------------------------------------
class TestShmPool:
    def _verifier(self, problem, tree, workers=2, **kwargs):
        return ParallelVerifier(problem, tree, workers=workers, **kwargs)

    def test_shm_verify_batch_matches_serial(self, problem, moves):
        tree = problem.design.tree.clone()
        with self._verifier(problem, tree) as verifier:
            verdicts = verifier.verify_batch(tree, list(moves))
            stats = verifier.stats_dict()
            assert stats["arena_generation"] == 1
            assert stats["serial_fallbacks"] == 0
        for move, verdict in zip(moves, verdicts):
            assert verdict == serial_verdict(problem, tree, move)

    def test_crash_mid_steal_requeues_and_respawns(self, problem, moves):
        tree = problem.design.tree.clone()
        with self._verifier(problem, tree) as verifier:
            pool = verifier._pool
            # Arm worker 0 to die with its next verify task in flight:
            # the overlapped scheduler must requeue that task to the
            # survivor — no verdict is forfeited, no serial fallback.
            pool.crash_worker_after(0, 0)
            verdicts = verifier.verify_batch(tree, list(moves))
            stats = verifier.stats_dict()
            assert stats["requeued"] > 0
            assert stats["crashes"] == 1
            assert stats["failed_shards"] == 0
            assert stats["serial_fallbacks"] == 0
            # Respawned back to strength; the fresh worker adopted the
            # live arena generation and verifies correctly.
            assert pool.alive_workers() == 2
            again = verifier.verify_batch(tree, list(moves))
        for move, verdict in zip(moves, verdicts):
            assert verdict == serial_verdict(problem, tree, move)
        assert again == verdicts
        assert _own_shm_segments() == []

    def test_delta_compaction_republishes_baseline(self, problem, moves):
        tree = problem.design.tree.clone()
        with self._verifier(problem, tree, compact_every=2) as verifier:
            pool = verifier._pool
            committed = 0
            for move in moves:
                try:
                    problem.commit_move(tree, move)
                except Exception:
                    continue
                verifier.record_commit(move, tree=tree)
                committed += 1
                # Interleave a batch so the live workers' watermarks
                # advance past the prefix the compactor wants to drop.
                verdicts = verifier.verify_batch(tree, list(moves[:2]))
                for move_, verdict in zip(moves[:2], verdicts):
                    assert verdict == serial_verdict(problem, tree, move_)
                if committed == 4:
                    break
            assert committed == 4
            stats = verifier.stats_dict()
            assert stats["arena_generation"] > 1
            assert stats["compactions"] >= 1
            assert stats["retained_deltas"] < pool.committed
            # Fresh workers replay only the delta suffix from the
            # republished baseline — crash both and re-verify.
            pool.crash_worker(0)
            pool.crash_worker(1)
            verifier.verify_batch(tree, list(moves[:2]))  # forfeits, rebuilds
            verdicts = verifier.verify_batch(tree, list(moves[:2]))
            for move, verdict in zip(moves[:2], verdicts):
                assert verdict == serial_verdict(problem, tree, move)
        assert _own_shm_segments() == []

    def test_call_overlapped_migrates_queued_payloads(self, problem):
        tree = problem.design.tree.clone()
        with _replica_pool(problem, tree) as pool:
            assert pool.call("builtins:len", [[1], [1, 2], [], [1, 2, 3]]) == [
                1,
                2,
                0,
                3,
            ]
            # A worker dead *before* the scatter forfeits nothing: its
            # queued payloads migrate to the survivor.
            pool.crash_worker(0)
            results = pool.call("builtins:len", [[1]] * 5)
            assert results == [1] * 5
            assert pool.alive_workers() == 2
        assert _own_shm_segments() == []


# ----------------------------------------------------------------------
# End-to-end trajectory identity
# ----------------------------------------------------------------------
class TestShmLocalOpt:
    def _run(self, predictor, workers, top_r=5, iterations=3):
        prob = SkewVariationProblem.create(build_mini())
        config = LocalOptConfig(
            max_iterations=iterations, workers=workers, top_r=top_r
        )
        outcome = LocalOptimizer(prob, predictor, config).run()
        trajectory = [
            (
                repr(record.move),
                record.predicted_reduction_ps,
                record.actual_reduction_ps,
                record.objective_after_ps,
            )
            for record in outcome.history
        ]
        return trajectory, outcome

    def test_shm_trajectory_identical_to_serial(self, predictor):
        serial, serial_outcome = self._run(predictor, workers=1)
        pooled, pooled_outcome = self._run(predictor, workers=2)
        assert serial == pooled
        assert serial_outcome.final_objective_ps == pooled_outcome.final_objective_ps
        stats = pooled_outcome.stats["parallel"]
        assert stats["arena_generation"] >= 1
        assert stats["serial_fallbacks"] == 0
        assert _own_shm_segments() == []

    def test_shm_oversubscribed_trajectory_identical(self, predictor):
        serial, _ = self._run(predictor, workers=1, top_r=2, iterations=2)
        pooled, outcome = self._run(predictor, workers=5, top_r=2, iterations=2)
        assert serial == pooled
        workers_stats = outcome.stats["workers"]
        assert workers_stats["requested"] == 5
        if effective_cpu_count() < 5:
            assert "oversubscribe" in workers_stats["note"]
        assert _own_shm_segments() == []


# ----------------------------------------------------------------------
# U-sweep pool: worker killed inside a sweep-point call
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="patching the call target needs forked workers",
)
class TestSweepPool:
    def _global(self, workers):
        config = GlobalOptConfig(
            sweep_factors=(1.0, 1.15),
            max_iterations=2,
            workers=workers,
            mp_context="fork",
        )
        problem = SkewVariationProblem.create(build_mini())
        return GlobalOptimizer(problem, config=config).run()

    def test_worker_killed_in_realize_point_realized_serially(
        self, monkeypatch, tmp_path
    ):
        from repro.core import framework

        serial = self._global(workers=1)

        # Forked workers inherit the patched target: the first worker to
        # enter ``realize_point`` dies there, every later call succeeds.
        real_point = sweep.realize_point
        marker = tmp_path / "killed"

        def dying_realize_point(payload):
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                return real_point(payload)
            os._exit(CRASH_EXIT_CODE)

        # Main-process realizations only happen on the crash fallback
        # (workers call their own copy of this function).
        fallbacks = []
        real_plan = framework.realize_verified_plan

        def counting_plan(*args, **kwargs):
            fallbacks.append(os.getpid())
            return real_plan(*args, **kwargs)

        monkeypatch.setattr(sweep, "realize_point", dying_realize_point)
        monkeypatch.setattr(framework, "realize_verified_plan", counting_plan)
        pooled = self._global(workers=2)

        assert marker.exists()
        assert fallbacks.count(os.getpid()) == 1
        assert tree_to_json(pooled.tree) == tree_to_json(serial.tree)
        assert pooled.final_objective_ps == serial.final_objective_ps
        assert _own_shm_segments() == []
