"""Process-parallel execution: verification fan-out and the U-sweep pool.

The package splits into five modules:

* :mod:`repro.parallel.replica` — worker-side state: a tree + timer
  replica kept bit-identical to the main process via delta replay;
* :mod:`repro.parallel.pool` — the persistent process pool with
  per-worker pipes, one event-driven scheduler, crash
  detection/recovery, and the stateless ``call`` channel used by the
  global flow's U-sweep;
* :mod:`repro.parallel.verify` — the local-opt bridge: top-R candidate
  fan-out with a deterministic reduce;
* :mod:`repro.parallel.sweep` — the global flow's U-sweep pool and its
  worker-side entry points;
* :mod:`repro.parallel.shm` — the zero-copy shared-memory backplane:
  compiled kernel planes exported once per baseline generation, mapped
  read-only by every worker.
"""

from repro.parallel.pool import (
    CRASH_EXIT_CODE,
    WorkerCrash,
    WorkerError,
    WorkerPool,
    worker_arena,
)
from repro.parallel.replica import (
    Replica,
    ReplicaSpec,
    VerifyOutcome,
    publish_replica_arena,
)
from repro.parallel.shm import ArenaView, SharedPlaneArena, attach
from repro.parallel.verify import ParallelVerifier

__all__ = [
    "ArenaView",
    "CRASH_EXIT_CODE",
    "ParallelVerifier",
    "Replica",
    "ReplicaSpec",
    "SharedPlaneArena",
    "VerifyOutcome",
    "WorkerCrash",
    "WorkerError",
    "WorkerPool",
    "attach",
    "publish_replica_arena",
    "worker_arena",
]
