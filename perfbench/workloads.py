"""Workload definitions for the end-to-end ``repro optimize`` benchmark.

Each workload is one optimize job, built through the package's public
API in the order ``repro optimize`` runs it.  ``FULL`` holds the two
benchmark workloads; ``SMOKE`` runs the same two code paths on the
MINI testcase in seconds, for the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

#: BLAS threads per process.  Every workload uses one, serial ones too:
#: workers x BLAS threads then stays within a 2-CPU host for the pooled
#: workload, serial runs leave the second core idle instead of competing
#: with themselves for memory bandwidth, and all workloads do the same
#: floating-point work, so serial and pooled trees can be compared
#: byte for byte.
BLAS_THREADS = 1

#: The CLI's U-sweep.
SWEEP_FACTORS = (1.0, 1.15)
#: LP -> ECO -> verify passes (``GlobalOptConfig.max_iterations``).  The
#: CLI runs 3; one pass is what the paper runs, and it keeps a CLS1v1 job
#: near 33 s, so that 48 runs fit the benchmark's time budget.
GLOBAL_ITERATIONS = 1
#: Predictors per run behind ``variation_reduction_pct``.  The reduction
#: of one flow depends on which training set its predictor drew: over 90
#: draws it ranged from 13.2% to 18.2% on CLS1v1, with a low mode near
#: 14% in about one draw in six, so with one predictor per run the
#: quartile spread of ten runs reached 20%.  Resampling those 90 values,
#: the median of five predictors per run kept it under 11% in 99% of
#: sets of ten runs (median 4.6%).  Seven would narrow it to 7.7%, but
#: the third pair of extra predictors would add 7-10 s to every run, and
#: 48 runs in a slow stretch of the host would then overrun the budget.
QUALITY_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    testcase: str  # "MINI", "CLS1v1" or "CLS1v2"
    flow: str  # "local" or "global-local"
    workers: int = 1
    train_cases: int = 16
    moves_per_case: int = 12
    #: ``None`` keeps the ``LocalOptConfig`` default.
    local_iterations: Optional[int] = None
    buffers_per_iteration: Optional[int] = None
    #: Predictors per untraced run whose reductions give the run's
    #: ``variation_reduction_pct`` (their median): the timed flow's own
    #: and ``quality_samples - 1`` more, trained on derived seeds.
    quality_samples: int = 1
    #: Workload whose final tree must be byte-identical to this one's
    #: for the same seed (the serial twin of a pooled workload).
    twin: Optional[str] = None

    def to_dict(self) -> dict:
        return asdict(self)


FULL = {
    w.name: w
    for w in (
        Workload(
            name="cls1_global_local",
            why="CLS1v1 global-local, serial: the LP-planned ECO pass dominates "
            "(table build and select), local moves are a small tail",
            testcase="CLS1v1",
            flow="global-local",
            local_iterations=10,
            buffers_per_iteration=24,
            quality_samples=QUALITY_SAMPLES,
        ),
        Workload(
            name="cls1_global_local_pool2",
            why="the cls1_global_local input on a 2-worker pool: per-worker ECO "
            "caches, payload shipping and worker waits; tree must match serial",
            testcase="CLS1v1",
            flow="global-local",
            workers=2,
            local_iterations=10,
            buffers_per_iteration=24,
            quality_samples=QUALITY_SAMPLES,
            twin="cls1_global_local",
        ),
    )
}

SMOKE = {
    w.name: w
    for w in (
        Workload(
            name="cls1_global_local",
            why="smoke: MINI global-local, serial",
            testcase="MINI",
            flow="global-local",
            train_cases=4,
            moves_per_case=6,
            local_iterations=2,
            buffers_per_iteration=6,
            quality_samples=3,
        ),
        Workload(
            name="cls1_global_local_pool2",
            why="smoke: MINI global-local on a 2-worker pool",
            testcase="MINI",
            flow="global-local",
            workers=2,
            train_cases=4,
            moves_per_case=6,
            local_iterations=2,
            buffers_per_iteration=6,
            quality_samples=3,
            twin="cls1_global_local",
        ),
    )
}
