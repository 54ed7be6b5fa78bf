"""Differential tests: batched timing kernel vs the scalar reference.

The kernel (:mod:`repro.sta.kernel`) is a pure execution-engine swap —
same model, same float operations, vectorized.  Its contract is
agreement with the reference backend to ≤1e-9 ps on every artifact at
every corner (in practice the two are bit-identical), and byte-identical
local-opt trajectories with the kernel on and off, including under the
workers=4 verification pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.local_opt import LocalOptConfig, LocalOptimizer
from repro.core.ml.training import train_predictor
from repro.core.moves import apply_move_undoable, enumerate_moves, undo_move
from repro.core.objective import SkewVariationProblem
from repro.sta.incremental import IncrementalTimer
from repro.sta.kernel import ArrayMap, TimingKernel
from repro.sta.timer import GoldenTimer
from repro.testcases.cls1 import build_cls1
from repro.testcases.mini import build_mini

TOL_PS = 1e-9

FIELDS = (
    "arrival",
    "input_slew",
    "driver_delay",
    "driver_load",
    "driver_out_slew",
    "edge_delay",
    "edge_elmore",
)


@pytest.fixture(scope="module")
def mini4_design():
    return build_mini(corner_names=("c0", "c1", "c2", "c3"))


@pytest.fixture(scope="module")
def cls1_design():
    return build_cls1(1)


def _assert_timings_match(got, want, context):
    assert set(got) == set(want), f"{context}: corner sets differ"
    for name in want:
        got_ct, want_ct = got[name], want[name]
        for field in FIELDS:
            got_map = getattr(got_ct, field)
            want_map = getattr(want_ct, field)
            assert set(got_map) == set(want_map), (
                f"{context} {name}.{field}: key sets differ"
            )
            for key, value in want_map.items():
                assert abs(got_map[key] - value) <= TOL_PS, (
                    f"{context} {name}.{field}[{key}]: "
                    f"{got_map[key]!r} != {value!r}"
                )


# ----------------------------------------------------------------------
# Full-tree propagation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("metric", ["d2m", "elmore"])
def test_golden_kernel_matches_reference_mini(mini4_design, metric):
    design = mini4_design
    ref = GoldenTimer(
        design.library, wire_metric=metric, wire_backend="reference"
    )
    ker = GoldenTimer(design.library, wire_metric=metric, wire_backend="kernel")
    _assert_timings_match(
        ker.analyze_all_corners(design.tree),
        ref.analyze_all_corners(design.tree),
        f"MINI/{metric}",
    )


@pytest.mark.parametrize("metric", ["d2m", "elmore"])
def test_golden_kernel_matches_reference_cls1(cls1_design, metric):
    design = cls1_design
    ref = GoldenTimer(
        design.library, wire_metric=metric, wire_backend="reference"
    )
    ker = GoldenTimer(design.library, wire_metric=metric, wire_backend="kernel")
    _assert_timings_match(
        ker.analyze_all_corners(design.tree),
        ref.analyze_all_corners(design.tree),
        f"CLS1/{metric}",
    )


def test_single_corner_analysis_matches(mini4_design):
    design = mini4_design
    ref = GoldenTimer(design.library, wire_backend="reference")
    ker = GoldenTimer(design.library, wire_backend="kernel")
    for corner in design.library.corners:
        _assert_timings_match(
            {corner.name: ker.analyze_corner(design.tree, corner)},
            {corner.name: ref.analyze_corner(design.tree, corner)},
            f"single/{corner.name}",
        )


def test_latencies_and_objective_match(cls1_design):
    design = cls1_design
    ref = GoldenTimer(design.library, wire_backend="reference")
    ker = GoldenTimer(design.library, wire_backend="kernel")
    want = ref.time_tree(design.tree, design.pairs)
    got = ker.time_tree(design.tree, design.pairs)
    assert got.latencies == want.latencies
    assert got.total_variation == want.total_variation


# ----------------------------------------------------------------------
# Incremental retime path: randomized move walks
# ----------------------------------------------------------------------
def _differential_walk(design, metric, steps, seed, commit_every=5):
    """Drive kernel and reference IncrementalTimers through one move walk.

    Both engines see the same apply/undo/commit stream; every step
    compares every artifact at every corner.  Returns the number of
    moves applied.
    """
    ref = IncrementalTimer(
        design.library, wire_metric=metric, wire_backend="reference"
    )
    ker = IncrementalTimer(
        design.library, wire_metric=metric, wire_backend="kernel"
    )
    rng = np.random.default_rng(seed)
    tree_ref = design.tree.clone()
    tree_ker = design.tree.clone()
    ref.ensure(tree_ref)
    ker.ensure(tree_ker)
    pairs = design.pairs
    moves = enumerate_moves(tree_ref, design.library)
    applied = 0
    while applied < steps and moves:
        move = moves[int(rng.integers(len(moves)))]
        undo_ref = apply_move_undoable(
            tree_ref, design.legalizer, design.library, move
        )
        undo_ker = apply_move_undoable(
            tree_ker, design.legalizer, design.library, move
        )
        applied += 1
        commit = applied % commit_every == 0
        if commit:
            got = ker.advance(tree_ker, undo_ker.dirty, pairs)
            want = ref.advance(tree_ref, undo_ref.dirty, pairs)
            # Committed-state invalidation must match: the candidate
            # pipeline keys its reuse decisions off these sets.
            assert ker.last_touched == ref.last_touched, applied
            moves = enumerate_moves(tree_ref, design.library)
        else:
            got = ker.preview(tree_ker, undo_ker.dirty, pairs)
            want = ref.preview(tree_ref, undo_ref.dirty, pairs)
        _assert_timings_match(
            got.per_corner, want.per_corner, f"step {applied}"
        )
        assert got.latencies == want.latencies, applied
        assert got.total_variation == want.total_variation, applied
        if not commit:
            undo_move(tree_ref, undo_ref)
            ref.rebase(tree_ref)
            undo_move(tree_ker, undo_ker)
            ker.rebase(tree_ker)
    assert applied >= steps
    # The rigid-shift bookkeeping must replicate decision for decision.
    assert ker.stats["subtree_shifts"] == ref.stats["subtree_shifts"]
    assert ker.stats["retimes"] == ref.stats["retimes"]
    return applied


@pytest.mark.parametrize(
    "metric,steps,seed",
    [("d2m", 120, 2015), ("elmore", 90, 607)],
)
def test_random_walk_kernel_matches_reference(mini4_design, metric, steps, seed):
    """≥200 randomized apply/undo/commit steps across both wire metrics."""
    _differential_walk(mini4_design, metric, steps=steps, seed=seed)


def test_random_walk_cls1(cls1_design):
    _differential_walk(cls1_design, "d2m", steps=20, seed=42)


# ----------------------------------------------------------------------
# Trajectory byte-identity, kernel on vs off
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def predictor():
    design = build_mini()
    return train_predictor(design.library, [], "full_rsmt_d2m")


def _trajectory(predictor, wire_backend, workers):
    design = build_mini()
    timer = GoldenTimer(design.library, wire_backend=wire_backend)
    problem = SkewVariationProblem.create(design, timer=timer)
    config = LocalOptConfig(max_iterations=3, workers=workers, top_r=5)
    outcome = LocalOptimizer(problem, predictor, config).run()
    return [
        (
            repr(record.move),
            record.predicted_reduction_ps,
            record.actual_reduction_ps,
            record.objective_after_ps,
        )
        for record in outcome.history
    ]


def test_local_opt_trajectory_identical_kernel_on_off(predictor):
    """Serial local opt commits the exact same move stream either way."""
    assert _trajectory(predictor, "kernel", workers=1) == _trajectory(
        predictor, "reference", workers=1
    )


def test_pool_trajectory_identical_kernel_on_off(predictor):
    """A workers=4 pool run is byte-identical with the kernel on and off.

    Kernel-backed replicas adopt the arena's published planes; reference
    replicas find none and attach with a full timing.  Both sides must
    commit the same moves.
    """
    kernel_on = _trajectory(predictor, "kernel", workers=4)
    kernel_off = _trajectory(predictor, "reference", workers=4)
    assert kernel_on == kernel_off
    assert len(kernel_on) > 0


# ----------------------------------------------------------------------
# View semantics
# ----------------------------------------------------------------------
def test_array_map_behaves_like_dict(mini4_design):
    design = mini4_design
    ref = GoldenTimer(design.library, wire_backend="reference")
    ker = GoldenTimer(design.library, wire_backend="kernel")
    corner = design.library.corners[0]
    want = ref.analyze_corner(design.tree, corner)
    got = ker.analyze_corner(design.tree, corner)
    assert isinstance(got.arrival, ArrayMap)
    # Mapping protocol: equality against the reference dicts.
    assert dict(got.arrival) == dict(want.arrival)
    assert got.driver_delay == dict(want.driver_delay)
    assert len(got.edge_delay) == len(want.edge_delay)
    assert sorted(got.input_slew.keys()) == sorted(want.input_slew.keys())
    # Masked keys raise and report absent, like the reference dicts.
    root = design.tree.root
    assert root not in got.edge_delay
    with pytest.raises(KeyError):
        got.edge_delay[root]
    assert got.edge_delay.get(root) is None
    sink = design.tree.sinks()[0]
    assert sink not in got.driver_load
    assert got.arrival.get(sink) == want.arrival[sink]


def test_kernel_shares_edge_cache_with_incremental(mini4_design):
    design = mini4_design
    inc = IncrementalTimer(design.library, wire_backend="kernel")
    inc.ensure(design.tree.clone())
    kernel = inc._kernel
    assert isinstance(kernel, TimingKernel)
    assert kernel.edge_cache is inc.edge_cache
    assert inc.edge_cache.misses > 0
