"""Process-pool execution layer with persistent, delta-synced workers.

Each worker process serves requests over its own pipe, so the pool can
address workers individually and detect a single worker's death without
losing the batch.  Two request kinds exist:

* ``verify`` — the local-opt fan-out: the request carries the slice of
  the committed-move delta stream the worker hasn't seen yet plus one
  candidate move to golden-verify on the worker's
  :class:`~repro.parallel.replica.Replica` (tree + incremental timer).
* ``call`` — a stateless remote procedure call used by the global flow's
  U-sweep (independent LP solves and ECO realizations per sweep point)
  and by ``repro batch``.  The function is named ``"module:function"``
  and must be importable in the worker.

A pool may own a :class:`~repro.parallel.shm.SharedPlaneArena`: every
worker maps it at spawn (replica pools build their replica from the
published baseline, sweep pools read the static realization context),
so no state crosses the pipe except requests and replies.  The spec-less
``batch`` pool runs without one.

Both request kinds go through one event-driven scheduler: a shared task
queue drained by a ``multiprocessing.connection.wait`` loop that refills
whichever worker finishes first, so a straggler never blocks the batch.
Crash policy: a worker dying mid-``verify`` has its in-flight task
requeued to the survivors (verification is pure); a worker dying
mid-``call`` forfeits only its in-flight payload (call targets are not
assumed idempotent), which comes back as ``None`` for the caller to run
serially.  Dead workers are respawned before the next request and
re-attach to the live arena generation, replaying only the delta suffix
past its baseline.  Results are keyed by task index, so the reduce —
and every committed-move trajectory — is independent of worker count
and completion order.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import threading
import time
import traceback
import weakref
from collections import deque
from multiprocessing import connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.moves import Move
from repro.obs import trace as obs_trace
from repro.parallel import shm as shm_arena
from repro.parallel.replica import Replica, VerifyOutcome

#: Exit code used by the test-only ``crash`` request.
CRASH_EXIT_CODE = 13

#: Live-pool registry for the resource sampler: pools register on
#: construction and deregister on :meth:`WorkerPool.close`, so the
#: sampler thread can snapshot queue depth / busy fractions without
#: holding a pool reference.
_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()
_LIVE_POOLS_LOCK = threading.Lock()


def live_pools() -> List["WorkerPool"]:
    """Pools currently open in this process (sampler telemetry source)."""
    with _LIVE_POOLS_LOCK:
        return [pool for pool in list(_LIVE_POOLS) if not pool._closed]


def effective_cpu_count() -> int:
    """CPUs actually usable by this process (affinity-aware, >= 1).

    Prefers :func:`os.process_cpu_count` (3.13+), then the scheduling
    affinity mask, then :func:`os.cpu_count` — containers and cgroup
    quotas shrink the first two while ``cpu_count`` reports the host.
    """
    probe = getattr(os, "process_cpu_count", None)
    if probe is not None:
        count = probe()
        if count:
            return count
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(len(affinity(0)), 1)
        except OSError:
            pass
    return os.cpu_count() or 1


def resolve_workers(workers: object) -> Tuple[int, str]:
    """Resolve a ``LocalOptConfig.workers`` value to a pool size.

    ``"auto"`` sizes the pool to the effective CPU count, degrading to
    serial when a pool cannot win (fewer than 2 usable CPUs — the
    0.85x-end-to-end regime ``BENCH_parallel`` measured on a 1-CPU
    host).  Integers pass through untouched so explicit requests (e.g.
    CI determinism jobs oversubscribing a small runner) stay exact.
    Returns ``(effective_workers, note)``.
    """
    if workers == "auto":
        cpus = effective_cpu_count()
        if cpus < 2:
            return 1, f"auto: {cpus} effective CPU(s) < 2, pool degraded to serial"
        return cpus, f"auto: sized to {cpus} effective CPUs"
    count = int(workers)  # type: ignore[arg-type]
    if count < 1:
        raise ValueError(f"workers must be >= 1 or 'auto', got {workers!r}")
    cpus = effective_cpu_count()
    if count > cpus:
        return count, (
            f"explicit: {count} workers oversubscribe "
            f"{cpus} effective CPU(s)"
        )
    return count, "explicit"


def _resolve(fn_spec: str) -> Callable[[Any], Any]:
    module_name, _, fn_name = fn_spec.partition(":")
    if not module_name or not fn_name:
        raise ValueError(f"bad function spec {fn_spec!r}; expected 'module:fn'")
    return getattr(importlib.import_module(module_name), fn_name)


#: Worker-process arena view, for ``call`` targets that read shared
#: context (the U-sweep's :func:`repro.parallel.sweep.realize_point`).
_WORKER_ARENA: Optional[shm_arena.ArenaView] = None


def worker_arena() -> Optional[shm_arena.ArenaView]:
    """The arena view this worker process attached at startup, if any."""
    return _WORKER_ARENA


def _worker_main(conn, lane: int, arena_name: Optional[str] = None) -> None:
    """Worker loop: attach the arena once, then serve until told to exit.

    The worker traces into its own observability lane and ships the
    drained span/metric events with every response — the parent merges
    them into the run trace (or discards them when tracing is off).  A
    replica arena also yields the worker's replica, built from the
    published baseline (zero-copy planes).
    """
    global _WORKER_ARENA
    tracer = obs_trace.activate(obs_trace.Tracer(worker=lane))
    replica = None
    if arena_name is not None:
        _WORKER_ARENA = shm_arena.attach(arena_name)
        if _WORKER_ARENA.meta.get("kind") == "replica":
            replica = Replica.from_arena(_WORKER_ARENA)
    crash_after: Optional[int] = None
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        op = message[0]
        if op == "exit":
            return
        if op == "crash":
            os._exit(CRASH_EXIT_CODE)
        if op == "crash_after":
            # Test hook: die just before the Nth future verify request,
            # i.e. with that task in flight from the pool's viewpoint.
            crash_after = int(message[1])
            conn.send(("ok", None, tracer.drain()))
            continue
        try:
            if op == "ping":
                result: Any = replica.applied if replica else None
            elif op == "verify":
                _, deltas, first_index, index, move = message
                if replica is None:
                    raise RuntimeError("pool has no replica arena")
                if crash_after is not None:
                    if crash_after <= 0:
                        os._exit(CRASH_EXIT_CODE)
                    crash_after -= 1
                with tracer.span("verify", phase="local") as span:
                    replica.sync(deltas, first_index)
                    result = replica.verify(index, move)
                    span.set(synced=len(deltas))
            elif op == "call":
                _, fn_spec, payload = message
                result = _resolve(fn_spec)(payload)
            else:
                raise ValueError(f"unknown op {op!r}")
            conn.send(("ok", result, tracer.drain()))
        except Exception:
            conn.send(("err", traceback.format_exc(), tracer.drain()))


class _WorkerHandle:
    """One worker process plus its pipe and delta-sync watermark."""

    __slots__ = (
        "process",
        "conn",
        "synced",
        "alive",
        "lane",
        "last_events",
        "busy_since",
        "busy_s",
    )

    def __init__(self, process, conn, lane: int, synced: int = 0) -> None:
        self.process = process
        self.conn = conn
        #: Global index of the next committed-move delta this worker
        #: needs (arena-born workers start at the arena baseline).
        self.synced = synced
        self.alive = True
        self.lane = lane  # observability lane id (unique per process)
        self.last_events: List[Dict[str, object]] = []
        #: Pipe in-flight accounting for the resource sampler: the send
        #: timestamp of the currently outstanding request (None = idle)
        #: and the cumulative request-in-flight seconds.
        self.busy_since: Optional[float] = None
        self.busy_s = 0.0


class WorkerCrash(RuntimeError):
    """A worker died while serving a request."""


class WorkerError(RuntimeError):
    """A worker raised while serving a request (traceback attached)."""


class WorkerPool:
    """Persistent pool of workers addressed over per-worker pipes.

    ``arena`` is published by the caller and owned by the pool from
    then on: workers map it at spawn and :meth:`close` unlinks it.
    """

    def __init__(
        self,
        workers: int,
        mp_context: Optional[str] = None,
        arena: Optional[shm_arena.SharedPlaneArena] = None,
        tag: str = "pool",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(mp_context)
        self._size = workers
        self._arena = arena
        self.tag = tag  # telemetry label ("verify", "sweep", "batch"...)
        self._closed = False
        #: Tasks queued but not yet dispatched (0 between requests).
        #: Plain int assignment, safe to read from the sampler thread.
        self._queue_depth = 0
        self._workers: List[_WorkerHandle] = []
        self._deltas: List[Move] = []
        #: Global index of ``_deltas[0]`` (compaction drops prefixes).
        self._delta_base = 0
        self.stats: Dict[str, float] = {
            "workers": workers,
            "verify_batches": 0,
            "verify_tasks": 0,
            "call_tasks": 0,
            "crashes": 0,
            "rebuilds": 0,
            "failed_shards": 0,
            "verify_wall_s": 0.0,
            "worker_busy_s": 0.0,
            "steals": 0,
            "requeued": 0,
            "compactions": 0,
        }
        #: Worker trace deltas from the most recent request, as
        #: ``(lane, events)`` — per completed task in task order for
        #: ``verify_batch``, aligned with payload order (``None`` =
        #: crashed/orphaned) for ``call``.  Callers holding an active
        #: tracer merge these via :func:`repro.obs.merge.merge_worker_events`.
        self.last_verify_obs: List[Tuple[int, List[Dict[str, object]]]] = []
        self.last_call_obs: List[Optional[Tuple[int, List[Dict[str, object]]]]] = []
        self._spawn_missing()
        with _LIVE_POOLS_LOCK:
            _LIVE_POOLS.add(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self._size

    def _arena_baseline(self) -> int:
        """Global delta index a freshly spawned worker starts from."""
        if self._arena is None:
            return 0
        return int(self._arena.meta.get("baseline_index", 0))

    def _spawn_one(self) -> _WorkerHandle:
        # Lane ids come from the process-global observability allocator
        # (shared with the resource sampler), so every spawned worker —
        # across all pools, including respawns — merges into a fresh
        # lane and (lane, span-id) keys never collide.
        lane = obs_trace.allocate_lane()
        parent_conn, child_conn = self._ctx.Pipe()
        arena_name = self._arena.name if self._arena is not None else None
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn, lane, arena_name), daemon=True
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(
            process, parent_conn, lane, synced=self._arena_baseline()
        )

    def _spawn_missing(self) -> None:
        """Respawn dead workers until the pool is at full strength."""
        rebuilt = False
        self._workers = [w for w in self._workers if w.alive]
        while len(self._workers) < self._size:
            self._workers.append(self._spawn_one())
            rebuilt = True
        if rebuilt and self.stats["verify_batches"] > 0:
            self.stats["rebuilds"] += 1

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            with _LIVE_POOLS_LOCK:
                _LIVE_POOLS.discard(self)
            # Lifetime counters as trace events, so a trace file is
            # self-contained without the result object's stats dict.
            tracer = obs_trace.active()
            if getattr(tracer, "enabled", False):
                labels = {"pool": self.tag}
                for counter in ("steals", "requeued", "compactions", "crashes"):
                    tracer.metric(
                        f"pool.{counter}",
                        int(self.stats[counter]),
                        kind="counter",
                        labels=labels,
                    )
        for worker in self._workers:
            if not worker.alive:
                continue
            try:
                worker.conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            worker.conn.close()
            worker.alive = False
        self._workers = []
        if self._arena is not None:
            self._arena.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _mark_dead(self, worker: _WorkerHandle) -> None:
        if worker.alive:
            worker.alive = False
            self.stats["crashes"] += 1
            try:
                worker.conn.close()
            except OSError:
                pass
            if worker.process.is_alive():
                worker.process.terminate()

    def _send(self, worker: _WorkerHandle, message: Tuple) -> bool:
        try:
            worker.conn.send(message)
            worker.busy_since = time.perf_counter()
            return True
        except (BrokenPipeError, OSError):
            self._mark_dead(worker)
            return False

    def _recv(self, worker: _WorkerHandle) -> Any:
        try:
            status, payload, events = worker.conn.recv()
        except (EOFError, OSError) as exc:
            self._mark_dead(worker)
            raise WorkerCrash(str(exc)) from exc
        finally:
            if worker.busy_since is not None:
                worker.busy_s += time.perf_counter() - worker.busy_since
                worker.busy_since = None
        worker.last_events = events
        if status == "err":
            raise WorkerError(payload)
        return payload

    def _schedule(
        self,
        n_tasks: int,
        message: Callable[[_WorkerHandle, int], Tuple],
        requeue: bool,
    ) -> Tuple[Dict[int, Any], List[Optional[Tuple[int, List[Dict[str, object]]]]]]:
        """Event-driven scatter/gather of tasks ``0..n_tasks-1``.

        Every live worker starts with one task; whichever finishes first
        is refilled from the shared queue (``connection.wait``), so a
        straggler never blocks the batch.  A task whose worker dies in
        flight goes back on the queue when ``requeue`` is set and is
        forfeited otherwise; tasks still queued when every worker is
        dead are forfeited too.  Returns the results keyed by task index
        plus each task's worker trace delta (``None`` = forfeited).
        """
        results: Dict[int, Any] = {}
        obs: List[Optional[Tuple[int, List[Dict[str, object]]]]] = [None] * n_tasks
        queue: deque = deque(range(n_tasks))
        idle: List[_WorkerHandle] = [w for w in self._workers if w.alive]
        fair = -(-n_tasks // max(len(idle), 1))
        dispatched: Dict[int, int] = {}
        inflight: Dict[Any, Tuple[_WorkerHandle, int]] = {}
        waits = 0
        with obs_trace.active().span("queue_wait", phase="parallel") as span:
            while queue or inflight:
                while queue and idle:
                    worker = idle.pop(0)
                    task = queue.popleft()
                    if not self._send(worker, message(worker, task)):
                        queue.appendleft(task)
                        continue
                    inflight[worker.conn] = (worker, task)
                    count = dispatched.get(worker.lane, 0) + 1
                    dispatched[worker.lane] = count
                    if count > fair:
                        self.stats["steals"] += 1
                self._queue_depth = len(queue)
                if not inflight:
                    break  # every worker died; the queue is forfeited
                waits += 1
                for conn in connection.wait(list(inflight)):
                    worker, task = inflight.pop(conn)
                    try:
                        results[task] = self._recv(worker)
                    except WorkerCrash:
                        if requeue:
                            queue.append(task)
                            self.stats["requeued"] += 1
                        continue
                    if worker.last_events:
                        obs[task] = (worker.lane, worker.last_events)
                    idle.append(worker)
            span.set(
                tasks=n_tasks,
                waits=waits,
                steals=int(self.stats["steals"]),
                requeued=int(self.stats["requeued"]),
            )
        self._queue_depth = 0
        return results, obs

    def load_snapshot(self) -> Dict[str, object]:
        """Point-in-time load view for the resource sampler thread.

        Reads only plain attributes (GIL-atomic), so it is safe to call
        from another thread while a batch is in flight.  Per-worker
        entries report the lane id, cumulative in-flight seconds, and
        whether a request is outstanding right now.
        """
        workers = list(self._workers)
        now = time.perf_counter()
        per_worker = []
        for worker in workers:
            busy_since = worker.busy_since
            busy_s = worker.busy_s
            if busy_since is not None:
                busy_s += max(0.0, now - busy_since)
            per_worker.append(
                {
                    "lane": worker.lane,
                    "busy": busy_since is not None,
                    "busy_s": busy_s,
                    "alive": worker.alive,
                }
            )
        return {
            "tag": self.tag,
            "size": self._size,
            "queue_depth": self._queue_depth,
            "alive": sum(1 for w in per_worker if w["alive"]),
            "inflight": sum(1 for w in per_worker if w["busy"]),
            "workers": per_worker,
            "steals": int(self.stats["steals"]),
            "requeued": int(self.stats["requeued"]),
            "compactions": int(self.stats["compactions"]),
            "crashes": int(self.stats["crashes"]),
            "arena_generation": (
                self._arena.generation if self._arena is not None else 0
            ),
        }

    # ------------------------------------------------------------------
    # Delta stream
    # ------------------------------------------------------------------
    def record_commit(self, move: Move) -> None:
        """Append a committed move; workers sync lazily at the next request."""
        self._deltas.append(move)

    @property
    def committed(self) -> int:
        """Global count of committed moves recorded so far."""
        return self._delta_base + len(self._deltas)

    @property
    def retained_deltas(self) -> int:
        """Deltas still buffered (global count minus compacted prefix)."""
        return len(self._deltas)

    def compact_deltas(self) -> int:
        """Drop the delta prefix every consumer has passed; returns count.

        A prefix is droppable once every *live* worker's ``synced``
        watermark and the arena baseline (where respawned workers start
        replaying) are both beyond it.
        """
        floor = self._arena_baseline()
        for worker in self._workers:
            if worker.alive:
                floor = min(floor, worker.synced)
        drop = floor - self._delta_base
        if drop <= 0:
            return 0
        del self._deltas[:drop]
        self._delta_base = floor
        self.stats["compactions"] += 1
        return drop

    # ------------------------------------------------------------------
    # Verification fan-out
    # ------------------------------------------------------------------
    def verify_batch(self, moves: Sequence[Move]) -> List[Optional[VerifyOutcome]]:
        """Verify each candidate on a worker replica, in batch order.

        ``None`` marks a candidate no worker could finish (every worker
        died with it queued); the caller re-verifies those serially.
        Dead workers are respawned before returning.
        """
        if self._arena is None or self._arena.meta.get("kind") != "replica":
            raise RuntimeError("verify_batch requires a pool with a replica arena")
        if not moves:
            return []
        started = time.perf_counter()
        self._spawn_missing()
        self.stats["verify_batches"] += 1
        self.stats["verify_tasks"] += len(moves)
        head = self.committed

        def message(worker: _WorkerHandle, index: int) -> Tuple:
            # Ship the delta suffix this worker has not replayed yet; a
            # failed send marks the worker dead, so the watermark can
            # advance before the send.
            deltas = self._deltas[worker.synced - self._delta_base :]
            first_index = worker.synced
            worker.synced = head
            return ("verify", deltas, first_index, index, moves[index])

        results, obs = self._schedule(len(moves), message, requeue=True)
        self.last_verify_obs = [entry for entry in obs if entry is not None]
        for outcome in results.values():
            self.stats["worker_busy_s"] += outcome.eval_s
        self.stats["failed_shards"] += len(moves) - len(results)
        self._spawn_missing()
        self.stats["verify_wall_s"] += time.perf_counter() - started
        return [results.get(index) for index in range(len(moves))]

    # ------------------------------------------------------------------
    # Stateless remote calls (U-sweep, batch)
    # ------------------------------------------------------------------
    def call(
        self, fn_spec: str, payloads: Sequence[Any]
    ) -> List[Optional[Any]]:
        """Scatter ``payloads`` over the workers; ``None`` marks a crash.

        Results keep payload order.  Worker exceptions propagate as
        :class:`WorkerError` (they are bugs, not crashes); a worker that
        dies forfeits only its in-flight payload, its queued ones go to
        the survivors, and it is respawned.
        """
        if not payloads:
            return []
        self._spawn_missing()
        self.stats["call_tasks"] += len(payloads)
        results, self.last_call_obs = self._schedule(
            len(payloads),
            lambda _worker, position: ("call", fn_spec, payloads[position]),
            requeue=False,
        )
        self._spawn_missing()
        return [results.get(position) for position in range(len(payloads))]

    # ------------------------------------------------------------------
    # Test support
    # ------------------------------------------------------------------
    def crash_worker(self, index: int = 0) -> None:
        """Ask one worker to die (exercises the recovery path in tests)."""
        worker = self._workers[index]
        if self._send(worker, ("crash",)):
            worker.process.join(timeout=5.0)

    def crash_worker_after(self, index: int, requests: int) -> None:
        """Arm worker ``index`` to die after serving ``requests`` more
        verify requests — from the pool's viewpoint the next task is in
        flight when it dies (exercises mid-batch requeue in tests)."""
        worker = self._workers[index]
        if self._send(worker, ("crash_after", requests)):
            self._recv(worker)

    def alive_workers(self) -> int:
        return sum(
            1
            for w in self._workers
            if w.alive and w.process.is_alive()
        )
