"""Worker-side replica state for the parallel verification engine.

A :class:`Replica` is everything one pool worker needs to golden-verify
candidate moves on its own: a private clock tree rebuilt from serialized
state (:mod:`repro.netlist.serialize` preserves ids, fanout order,
enumeration order and the id-allocation counter — see
``tests/test_serialize.py``), a private :class:`IncrementalTimer`, and
the frozen baseline artifacts (pairs, alphas, baseline skews) the
verification decision consumes.

Bit-identity contract
---------------------
The main process attaches its engine to the run's starting tree (a full
propagation) and advances it once per committed move.  A replica attaches
to a bit-identical copy of the same starting tree and replays the *same*
committed-move stream through the *same* ``advance`` path, so its
per-corner states evolve through the same float operations and stay
bit-identical to the main process's.  A candidate verified here therefore
returns exactly the floats the serial loop would have computed — which is
what lets the parallel reduce pick the same winner, bit for bit.
"""

from __future__ import annotations

import dataclasses
import pickle
import time
from dataclasses import dataclass
from typing import Any, Dict, Sequence, Tuple

from repro.core.moves import Move, apply_move_undoable, undo_move
from repro.eco.legalize import Legalizer
from repro.netlist.serialize import tree_from_dict, tree_to_dict
from repro.netlist.tree import ClockTree
from repro.route.rc_net import DEFAULT_SEGMENT_UM
from repro.sta.incremental import IncrementalTimer
from repro.sta.skew import SkewAnalysis
from repro.sta.timer import TimingResult
from repro.tech.library import Library


@dataclass(frozen=True)
class ReplicaSpec:
    """Everything needed to build a worker replica, in picklable form."""

    tree_payload: Dict[str, Any]
    library: Library
    legalizer: Legalizer
    pairs: Tuple[Tuple[int, int], ...]
    alphas: Dict[str, float]
    baseline_skews: SkewAnalysis
    wire_metric: str = "d2m"
    segment_um: float = DEFAULT_SEGMENT_UM
    local_skew_tolerance_ps: float = 0.5
    wire_backend: str = "kernel"

    @staticmethod
    def from_problem(
        problem, tree: ClockTree, local_skew_tolerance_ps: float = 0.5
    ) -> "ReplicaSpec":
        """Snapshot a :class:`SkewVariationProblem` run's starting state."""
        return ReplicaSpec(
            tree_payload=tree_to_dict(tree),
            library=problem.design.library,
            legalizer=problem.design.legalizer,
            pairs=tuple(problem.pairs),
            alphas=dict(problem.alphas),
            baseline_skews=problem.baseline.skews,
            wire_metric=problem.timer.wire_metric,
            segment_um=problem.timer.segment_um,
            local_skew_tolerance_ps=local_skew_tolerance_ps,
            wire_backend=problem.timer.wire_backend,
        )


@dataclass(frozen=True)
class VerifyOutcome:
    """One candidate's verification result, as sent back to the pool."""

    index: int
    total_variation: float
    degraded: bool
    eval_s: float = 0.0


class Replica:
    """A long-lived tree + timer replica that stays in sync via deltas."""

    def __init__(self, spec: ReplicaSpec, view=None) -> None:
        """Build from ``spec``; ``view`` is the arena it was published in.

        When the arena's publisher also exported its kernel planes and
        state, the engine adopts them directly (zero-copy structure
        views + a baseline :class:`~repro.sta.kernel.KernelState` whose
        arrays stay read-only shared memory — every mutation path copies
        before writing), skipping the per-net compile and full
        propagation; otherwise the engine attaches with a full timing.
        """
        self.spec = spec
        self.tree = tree_from_dict(spec.tree_payload)
        self.engine = IncrementalTimer(
            spec.library,
            wire_metric=spec.wire_metric,
            segment_um=spec.segment_um,
            wire_backend=spec.wire_backend,
        )
        corner_names = view.meta.get("corner_names") if view is not None else None
        if (
            spec.wire_backend == "kernel"
            and corner_names
            and "tree/ids" in view.arrays
        ):
            from repro.sta.kernel import CompiledTree, KernelState

            planes = {
                name[len("tree/") :]: arr
                for name, arr in view.arrays.items()
                if name.startswith("tree/")
            }
            compiled = CompiledTree.from_planes(
                self.engine._kernel_obj(), planes, corner_names
            )
            state = KernelState(
                **{
                    field.name: view.arrays["state/" + field.name]
                    for field in dataclasses.fields(KernelState)
                }
            )
            self.engine.adopt_compiled(self.tree, compiled, state)
        else:
            self.engine.ensure(self.tree)
        #: Number of committed moves replayed so far (replay starts at
        #: the arena baseline, not the run's move 0).
        self.applied = (
            int(view.meta.get("baseline_index", 0)) if view is not None else 0
        )

    @classmethod
    def from_arena(cls, view) -> "Replica":
        """Build a replica from an attached shared-memory arena view.

        The arena's spec blob carries the tree *as of the arena's
        baseline index*.
        """
        return cls(pickle.loads(view.blob("spec")), view)

    # ------------------------------------------------------------------
    def sync(self, deltas: Sequence[Move], first_index: int) -> None:
        """Replay the committed-move stream ``deltas`` onto the replica.

        ``first_index`` is the global index of ``deltas[0]``; moves this
        replica already applied are skipped, so redelivery after a pool
        rebuild is harmless.
        """
        for offset, move in enumerate(deltas):
            index = first_index + offset
            if index < self.applied:
                continue
            if index > self.applied:
                raise ValueError(
                    f"delta stream gap: replica at {self.applied}, "
                    f"received index {index}"
                )
            undo = apply_move_undoable(
                self.tree, self.spec.legalizer, self.spec.library, move
            )
            self.engine.advance(
                self.tree, undo.dirty, self.spec.pairs, alphas=self.spec.alphas
            )
            self.applied += 1

    # ------------------------------------------------------------------
    def verify(self, index: int, move: Move) -> VerifyOutcome:
        """Golden-verify one candidate move at all corners."""
        started = time.perf_counter()
        undo = apply_move_undoable(
            self.tree, self.spec.legalizer, self.spec.library, move
        )
        try:
            result = self.engine.preview(
                self.tree, undo.dirty, self.spec.pairs, alphas=self.spec.alphas
            )
        finally:
            undo_move(self.tree, undo)
            self.engine.rebase(self.tree)
        return VerifyOutcome(
            index=index,
            total_variation=result.total_variation,
            degraded=result.skews.degraded_local_skew(
                self.spec.baseline_skews,
                tol_ps=self.spec.local_skew_tolerance_ps,
            ),
            eval_s=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    def evaluate(self) -> TimingResult:
        """Full timing of the replica's current state (test support)."""
        return self.engine.time_tree(
            self.tree, self.spec.pairs, alphas=self.spec.alphas
        )


def publish_replica_arena(
    arena, spec: ReplicaSpec, tree: ClockTree, engine=None, baseline_index: int = 0
) -> str:
    """Export a replica baseline into ``arena``; returns the segment name.

    The published spec carries ``tree`` serialized *as of*
    ``baseline_index`` committed moves, so workers built from this
    generation replay only the delta suffix.  When ``engine`` is an
    attached kernel-backend :class:`IncrementalTimer`, its compiled SoA
    planes and propagation state ride along and workers adopt them
    instead of recompiling (see :class:`Replica`); otherwise workers
    attach their engine with a full timing of the published tree.
    """
    snapshot_spec = dataclasses.replace(spec, tree_payload=tree_to_dict(tree))
    blobs = {"spec": pickle.dumps(snapshot_spec, protocol=5)}
    arrays: Dict[str, Any] = {}
    meta: Dict[str, Any] = {
        "kind": "replica",
        "baseline_index": int(baseline_index),
    }
    snapshot = engine.kernel_snapshot(tree) if engine is not None else None
    if snapshot is not None:
        compiled, state = snapshot
        for name, arr in compiled.export_planes().items():
            arrays["tree/" + name] = arr
        for field in dataclasses.fields(type(state)):
            arrays["state/" + field.name] = getattr(state, field.name)
        meta["corner_names"] = [c.name for c in compiled.corners]
    return arena.export(blobs, arrays, meta)

