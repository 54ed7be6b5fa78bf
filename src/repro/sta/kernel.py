"""Array-backed batched timing kernel: SoA/CSR compilation + propagation.

The scalar timing engines (:mod:`repro.sta.timer`,
:mod:`repro.sta.incremental`) walk the tree one node at a time, one
corner at a time, over ``Dict[int, float]`` state.  This module compiles
a :class:`~repro.netlist.tree.ClockTree` into struct-of-arrays form and
propagates arrivals, slews, driver delays and D2M/Elmore edge metrics
level-by-level as numpy operations batched across **all corners at
once** (corner as the leading axis):

* **CSR child adjacency** — one ``child_ptr``/``child_idx`` pair over
  nodes in BFS (topological) order, so each depth level's drivers and
  edges occupy contiguous ranges;
* **compile-time per-edge metrics** — routed lengths (congestion factor
  included), per-corner Elmore/D2M wire delays and squared PERI step
  slews, evaluated through the same :class:`~repro.route.rc_net
  .EdgeRCCache` the scalar engines use (star branches are electrically
  independent, so per-edge values equal the star-net values bit for
  bit);
* **vectorized NLDM evaluation** — every library cell shares one
  (slew, load) characterization grid, so the per-(size, corner) tables
  stack into one ``(corners, sizes, slews, loads)`` array and the
  bilinear interpolation (clamp, ``searchsorted``, the four-corner
  blend) runs on whole driver batches;
* **vectorized PERI slew degradation** and the signoff gate correction
  (``tanh`` memoized per unique quantized argument, because
  ``numpy.tanh`` and ``math.tanh`` differ in the last ulp).

Bit-compatibility contract
--------------------------
The kernel is a *performance* transform, not a remodel: every array
operation reproduces the scalar engines' float operations in the same
order (IEEE-754 elementwise ops are identical scalar or vectorized), so
kernel results match the reference backend **bit for bit** — the
differential suite (``tests/test_kernel.py``) holds both backends to
1e-9 ps and the local-opt trajectory to byte identity, and observed
disagreement is exactly 0.  Where a numpy ufunc is *not* bit-identical
to the ``math`` module (``tanh``, ``hypot``), the kernel either
memoizes the scalar function or the scalar reference was rewritten in
the vectorizable form (see :func:`repro.sta.slew.peri_slew`).

Incremental use
---------------
:meth:`CompiledTree.retime` replays the incremental engine's
dirty-frontier walk with per-corner boolean masks: re-evaluated rows
come from :meth:`CompiledTree.compile_row` *overrides* (the compiled
arrays are never mutated by a preview, which is what keeps the
apply→preview→undo→rebase round-trip free), cascade-vs-rigid-shift
decisions are made per corner exactly as the scalar engine makes them,
and committed moves either patch rows in place (displace/resize) or
trigger a cache-amortized full recompile (surgery).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geometry import BBox
from repro.netlist.tree import ClockTree
from repro.route.congestion import routed_length_factor
from repro.route.rc_net import DEFAULT_SEGMENT_UM, EdgeRCCache
from repro.sta.gate import GATE_LOAD_QUANTUM_FF, GATE_SLEW_QUANTUM_PS
from repro.sta.signoff import (
    LOAD_GAIN,
    LOAD_SCALE_FF,
    MAX_SIZE,
    REFERENCE_SIZE,
    SLEW_GAIN,
    SLEW_SCALE_PS,
)
from repro.sta.slew import LN9
from repro.sta.timer import CornerTiming
from repro.tech.corners import Corner
from repro.tech.library import Library


class KernelUnsupported(Exception):
    """The library/tree cannot be compiled (fall back to the reference)."""


class KernelStale(Exception):
    """The compiled arrays no longer describe the tree (recompile needed)."""


class ArrayMap(Mapping):
    """Read-only dict-shaped view over one corner's row of a state array.

    Keeps :class:`~repro.sta.timer.CornerTiming` consumers (``local_opt``,
    ``lp``, ``eco_flow``, ``framework``, ``analysis``) unchanged: lookups,
    ``.get``, iteration, ``len`` and equality behave exactly like the
    scalar engines' ``Dict[int, float]`` artifacts.  ``mask`` restricts
    the key set (drivers with fanout, non-root nodes).
    """

    __slots__ = ("_ids", "_index", "_row", "_mask")

    def __init__(
        self,
        ids: Sequence[int],
        index: Dict[int, int],
        row: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        self._ids = ids
        self._index = index
        self._row = row
        self._mask = mask

    def __getitem__(self, nid: int) -> float:
        i = self._index.get(nid)
        if i is None or (self._mask is not None and not self._mask[i]):
            raise KeyError(nid)
        return float(self._row[i])

    def __iter__(self):
        if self._mask is None:
            return iter(self._ids)
        mask = self._mask
        return (nid for k, nid in enumerate(self._ids) if mask[k])

    def __len__(self) -> int:
        if self._mask is None:
            return len(self._ids)
        return int(np.count_nonzero(self._mask))


@dataclass
class KernelState:
    """All-corner propagation state: ``(corners, nodes)`` float arrays.

    ``edge_delay``/``edge_elmore`` are indexed by *child node* (the
    incoming edge), mirroring the scalar engines' per-child dicts.
    ``driver_valid`` marks nodes currently carrying driver artifacts
    (non-sinks with fanout); a driver that loses its whole fanout in a
    surgery is invalidated, exactly as the scalar engine pops its
    artifacts.
    """

    arrival: np.ndarray
    input_slew: np.ndarray
    driver_delay: np.ndarray
    driver_load: np.ndarray
    driver_out_slew: np.ndarray
    edge_delay: np.ndarray
    edge_elmore: np.ndarray
    driver_valid: np.ndarray

    def copy(self) -> "KernelState":
        return KernelState(
            arrival=self.arrival.copy(),
            input_slew=self.input_slew.copy(),
            driver_delay=self.driver_delay.copy(),
            driver_load=self.driver_load.copy(),
            driver_out_slew=self.driver_out_slew.copy(),
            edge_delay=self.edge_delay.copy(),
            edge_elmore=self.edge_elmore.copy(),
            driver_valid=self.driver_valid.copy(),
        )


@dataclass
class _Row:
    """One driver's recompiled geometry (a preview override or patch)."""

    child_pos: np.ndarray
    child_ids: Tuple[int, ...]
    size_idx: int
    load: np.ndarray
    wdelay: np.ndarray
    elmore: np.ndarray
    step_sq: np.ndarray


class TimingKernel:
    """Library-level compiled context: stacked NLDM tables plus memos.

    One instance per (library, wire metric, segmentation); it owns the
    caches shared across compiles — the per-edge RC metric cache, the
    routed-length-factor memo and the ``tanh`` memo — so repeated
    compiles of mutated trees amortize all scalar evaluation.
    """

    def __init__(
        self,
        library: Library,
        wire_metric: str = "d2m",
        segment_um: float = DEFAULT_SEGMENT_UM,
        edge_cache: Optional[EdgeRCCache] = None,
    ) -> None:
        if wire_metric not in ("d2m", "elmore"):
            raise ValueError("wire_metric must be 'd2m' or 'elmore'")
        self._library = library
        self._wire_metric = wire_metric
        self._segment_um = segment_um
        self._edge_cache = edge_cache if edge_cache is not None else EdgeRCCache()
        self._factor_memo: Dict[Tuple, float] = {}
        self._tanh_memo: Dict[float, float] = {}
        self._pin_cap_memo: Dict[int, float] = {}
        self._stack_tables()

    # ------------------------------------------------------------------
    # Library compilation
    # ------------------------------------------------------------------
    def _stack_tables(self) -> None:
        lib = self._library
        sizes = tuple(lib.sizes)
        if not sizes:
            raise KernelUnsupported("library has no drive sizes")
        if lib.source_drive_size not in sizes:
            raise KernelUnsupported("source drive size outside the size list")
        corners = list(lib.corners)
        ref = lib.cell(sizes[0], corners[0])
        sax = ref.delay_table.slew_grid
        lax = ref.delay_table.load_grid
        if sax.size < 2 or lax.size < 2:
            raise KernelUnsupported("NLDM axes too small to batch")
        delay_vals = np.empty((len(corners), len(sizes), sax.size, lax.size))
        slew_vals = np.empty_like(delay_vals)
        icap = np.empty((len(corners), len(sizes)))
        for ci, corner in enumerate(corners):
            for si, size in enumerate(sizes):
                cell = lib.cell(size, corner)
                for table in (cell.delay_table, cell.slew_table):
                    if not (
                        np.array_equal(table.slew_grid, sax)
                        and np.array_equal(table.load_grid, lax)
                    ):
                        raise KernelUnsupported(
                            "cells do not share one characterization grid"
                        )
                delay_vals[ci, si] = cell.delay_table.value_grid
                slew_vals[ci, si] = cell.slew_table.value_grid
                icap[ci, si] = cell.input_cap_ff
        self._corner_row = {c.name: i for i, c in enumerate(corners)}
        self._size_pos = {size: i for i, size in enumerate(sizes)}
        self._sax = sax
        self._lax = lax
        self._delay_vals = delay_vals
        self._slew_vals = slew_vals
        self._icap = icap
        # Per-size signoff factors, computed with math.sqrt so the
        # vectorized correction multiplies the exact scalar constants.
        self._sqrt_ref = np.array(
            [math.sqrt(REFERENCE_SIZE / size) for size in sizes]
        )
        self._size_frac = np.array([size / MAX_SIZE for size in sizes])

    @property
    def library(self) -> Library:
        return self._library

    @property
    def wire_metric(self) -> str:
        return self._wire_metric

    @property
    def edge_cache(self) -> EdgeRCCache:
        return self._edge_cache

    # ------------------------------------------------------------------
    # Scalar memos (bit-identical to the reference helpers)
    # ------------------------------------------------------------------
    def _edge_factor(self, fanout, bbox_area, start, end) -> float:
        key = (fanout, bbox_area, start, end)
        factor = self._factor_memo.get(key)
        if factor is None:
            if len(self._factor_memo) >= 1 << 20:
                self._factor_memo.clear()
            factor = routed_length_factor(fanout, bbox_area, start, end)
            self._factor_memo[key] = factor
        return factor

    def _pin_cap(self, size: int) -> float:
        cap = self._pin_cap_memo.get(size)
        if cap is None:
            cap = self._library.input_cap_ff(size)
            self._pin_cap_memo[size] = cap
        return cap

    def _tanh(self, x: np.ndarray) -> np.ndarray:
        # numpy.tanh disagrees with math.tanh in the last ulp; the scalar
        # engines use math.tanh, so gather it over the unique (quantized)
        # arguments instead.
        uniq, inverse = np.unique(x.ravel(), return_inverse=True)
        memo = self._tanh_memo
        vals = np.empty(uniq.size)
        for k, v in enumerate(uniq.tolist()):
            t = memo.get(v)
            if t is None:
                if len(memo) >= 1 << 20:
                    memo.clear()
                t = math.tanh(v)
                memo[v] = t
            vals[k] = t
        return vals[inverse].reshape(x.shape)

    # ------------------------------------------------------------------
    # Batched gate evaluation
    # ------------------------------------------------------------------
    def _lookup(
        self,
        values: np.ndarray,
        corner_rows: np.ndarray,
        size_idx: np.ndarray,
        slew: np.ndarray,
        load: np.ndarray,
    ) -> np.ndarray:
        """Vectorized NLDM bilinear interpolation over ``(corner, driver)``.

        Reproduces :meth:`repro.tech.cells.NLDMTable.lookup` operation
        for operation: clamp to the grid, right-side ``searchsorted``
        minus one clamped to the last cell, then the four-corner blend in
        the same association order.
        """
        sax, lax = self._sax, self._lax
        s = np.clip(slew, sax[0], sax[-1])
        c = np.clip(load, lax[0], lax[-1])
        si = np.searchsorted(sax, s, side="right") - 1
        si = np.clip(si, 0, sax.size - 2)
        ci = np.searchsorted(lax, c, side="right") - 1
        ci = np.clip(ci, 0, lax.size - 2)
        u = (s - sax[si]) / (sax[si + 1] - sax[si])
        t = (c - lax[ci]) / (lax[ci + 1] - lax[ci])
        cr = corner_rows[:, None]
        sz = size_idx[None, :]
        v00 = values[cr, sz, si, ci]
        v01 = values[cr, sz, si, ci + 1]
        v10 = values[cr, sz, si + 1, ci]
        v11 = values[cr, sz, si + 1, ci + 1]
        return (
            v00 * (1 - u) * (1 - t)
            + v01 * (1 - u) * t
            + v10 * u * (1 - t)
            + v11 * u * t
        )

    def gate_batch(
        self,
        corner_rows: np.ndarray,
        size_idx: np.ndarray,
        input_slew: np.ndarray,
        load: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Signoff-corrected inverter-pair (delay, output slew) batches.

        ``input_slew``/``load`` are ``(corners, drivers)``; quantization,
        the four table lookups (first stage into the pair's internal pin
        cap, second stage into the net load) and the signoff correction
        all follow the scalar sequence in
        :func:`repro.sta.gate.inverter_pair_timing` and
        :func:`repro.sta.signoff.signoff_gate_factor`.
        """
        gate_slew = (
            np.rint(input_slew / GATE_SLEW_QUANTUM_PS) * GATE_SLEW_QUANTUM_PS
        )
        gate_load = (
            np.rint(load / GATE_LOAD_QUANTUM_FF) * GATE_LOAD_QUANTUM_FF
        )
        icap = self._icap[corner_rows[:, None], size_idx[None, :]]
        d1 = self._lookup(self._delay_vals, corner_rows, size_idx, gate_slew, icap)
        s1 = self._lookup(self._slew_vals, corner_rows, size_idx, gate_slew, icap)
        d2 = self._lookup(self._delay_vals, corner_rows, size_idx, s1, gate_load)
        s2 = self._lookup(self._slew_vals, corner_rows, size_idx, s1, gate_load)
        correction = (
            1.0
            + (LOAD_GAIN * self._tanh(gate_load / LOAD_SCALE_FF))
            * self._sqrt_ref[size_idx][None, :]
            - (SLEW_GAIN * self._tanh(gate_slew / SLEW_SCALE_PS))
            * self._size_frac[size_idx][None, :]
        )
        return (d1 + d2) * correction, s2

    # ------------------------------------------------------------------
    # Tree compilation
    # ------------------------------------------------------------------
    def compile(
        self, tree: ClockTree, corners: Optional[Sequence[Corner]] = None
    ) -> "CompiledTree":
        """Compile ``tree`` into SoA/CSR arrays for ``corners`` (default all)."""
        return CompiledTree(self, tree, corners)


class CompiledTree:
    """SoA/CSR form of one tree state, for a fixed corner subset."""

    def __init__(
        self,
        kernel: TimingKernel,
        tree: ClockTree,
        corners: Optional[Sequence[Corner]] = None,
    ) -> None:
        self._kernel = kernel
        lib = kernel._library
        self.corners: Tuple[Corner, ...] = tuple(
            corners if corners is not None else lib.corners
        )
        self.corner_rows = np.array(
            [kernel._corner_row[c.name] for c in self.corners], dtype=np.int64
        )
        self.corner_pos = {c.name: k for k, c in enumerate(self.corners)}
        self.C = len(self.corners)

        order, fanouts = tree.bfs_structure()
        n = len(order)
        self.n = n
        self.ids: List[int] = order
        self.index: Dict[int, int] = {nid: i for i, nid in enumerate(order)}
        self.root_pos = 0

        fanout = np.empty(n, dtype=np.int64)
        depth = np.empty(n, dtype=np.int64)
        size_idx = np.full(n, -1, dtype=np.int64)
        child_ptr = np.empty(n + 1, dtype=np.int64)
        child_ptr[0] = 0
        child_idx_parts: List[np.ndarray] = []
        depth[0] = 0
        nodes = [tree.node(nid) for nid in order]
        index = self.index
        for i, kids in enumerate(fanouts):
            fanout[i] = len(kids)
            child_ptr[i + 1] = child_ptr[i] + len(kids)
            if kids:
                positions = np.fromiter(
                    (index[c] for c in kids), dtype=np.int64, count=len(kids)
                )
                child_idx_parts.append(positions)
                depth[positions] = depth[i] + 1
        self.fanout = fanout
        self.depth = depth
        self.child_ptr = child_ptr
        self.child_idx = (
            np.concatenate(child_idx_parts)
            if child_idx_parts
            else np.empty(0, dtype=np.int64)
        )
        self.has_edge = np.ones(n, dtype=bool)
        self.has_edge[self.root_pos] = False

        n_edges = int(child_ptr[-1])
        self.load = np.zeros((self.C, n))
        self.edge_wdelay = np.empty((self.C, n_edges))
        self.edge_elmore = np.empty((self.C, n_edges))
        self.edge_step_sq = np.empty((self.C, n_edges))

        for i, node in enumerate(nodes):
            if node.is_sink or not fanout[i]:
                continue
            size = lib.source_drive_size if node.is_source else node.size
            pos = kernel._size_pos.get(size)
            if pos is None:
                raise KernelUnsupported(f"drive size {size} not in library")
            size_idx[i] = pos
            e0, e1 = int(child_ptr[i]), int(child_ptr[i + 1])
            load, wdelay, elmore, step_sq = self._eval_net(
                tree, node, fanouts[i]
            )
            self.load[:, i] = load
            self.edge_wdelay[:, e0:e1] = wdelay
            self.edge_elmore[:, e0:e1] = elmore
            self.edge_step_sq[:, e0:e1] = step_sq
        self.size_idx = size_idx
        self.levels = self._build_levels()

    def _build_levels(self) -> List[Tuple[np.ndarray, int, int, np.ndarray]]:
        """Level partitions: BFS order is sorted by depth, so each depth's
        nodes — and therefore its CSR edge block — are contiguous."""
        fanout, depth, child_ptr = self.fanout, self.depth, self.child_ptr
        levels: List[Tuple[np.ndarray, int, int, np.ndarray]] = []
        bounds = np.searchsorted(depth, np.arange(depth[-1] + 2))
        for d in range(int(depth[-1]) + 1):
            a, b = int(bounds[d]), int(bounds[d + 1])
            drivers = a + np.nonzero(fanout[a:b] > 0)[0]
            if drivers.size == 0:
                continue
            rep = np.repeat(np.arange(drivers.size), fanout[drivers])
            levels.append((drivers, int(child_ptr[a]), int(child_ptr[b]), rep))
        return levels

    # ------------------------------------------------------------------
    # Zero-copy plane export/import (shared-memory worker backplane)
    # ------------------------------------------------------------------
    #: Arrays :meth:`apply_rows` patches in place; an attached compile
    #: must own writable copies of these.  Everything else is immutable
    #: after compile and can stay a read-only shared view.
    MUTABLE_PLANES = ("load", "edge_wdelay", "edge_elmore", "edge_step_sq", "size_idx")
    STRUCTURE_PLANES = ("ids", "fanout", "depth", "child_ptr", "child_idx", "has_edge")

    def export_planes(self) -> Dict[str, np.ndarray]:
        """Flat ``{name: array}`` snapshot of this compile's SoA planes."""
        planes = {
            name: getattr(self, name)
            for name in self.MUTABLE_PLANES + self.STRUCTURE_PLANES
            if name != "ids"
        }
        planes["ids"] = np.asarray(self.ids, dtype=np.int64)
        return planes

    @classmethod
    def from_planes(
        cls,
        kernel: TimingKernel,
        planes: Mapping[str, np.ndarray],
        corner_names: Sequence[str],
    ) -> "CompiledTree":
        """Rebuild a compile from exported planes, skipping ``_eval_net``.

        Structure planes are adopted as-is (read-only shared views are
        fine — nothing ever writes them); the :attr:`MUTABLE_PLANES`
        are copied into process-local memory because :meth:`apply_rows`
        patches them in place on every committed move.  Level partitions
        are recomputed — they are derived data, cheap next to the per-net
        scalar compile this path avoids.
        """
        self = cls.__new__(cls)
        self._kernel = kernel
        by_name = {c.name: c for c in kernel._library.corners}
        self.corners = tuple(by_name[name] for name in corner_names)
        self.corner_rows = np.array(
            [kernel._corner_row[name] for name in corner_names], dtype=np.int64
        )
        self.corner_pos = {name: k for k, name in enumerate(corner_names)}
        self.C = len(self.corners)
        self.ids = [int(nid) for nid in planes["ids"]]
        self.index = {nid: i for i, nid in enumerate(self.ids)}
        self.n = len(self.ids)
        self.root_pos = 0
        for name in cls.STRUCTURE_PLANES:
            if name != "ids":
                setattr(self, name, planes[name])
        for name in cls.MUTABLE_PLANES:
            setattr(self, name, np.array(planes[name], copy=True))
        self.levels = self._build_levels()
        return self

    # ------------------------------------------------------------------
    # Per-net scalar evaluation (compile time; shared with row overrides)
    # ------------------------------------------------------------------
    def _eval_net(
        self, tree: ClockTree, node, children: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-corner (load, wire delay, Elmore, step²) of one driver net.

        Scalar per edge — routed-length factor, pin caps and the
        Elmore/D2M metrics come from the same memoized helpers the
        reference engine uses, so compiled values are bit-identical to
        the reference evaluation of the same geometry.
        """
        kernel = self._kernel
        lib = kernel._library
        child_nodes = [tree.node(c) for c in children]
        net_points = [node.location] + [c.location for c in child_nodes]
        bbox_area = BBox.of_points(net_points).area
        fanout = len(children)
        lengths: List[float] = []
        pin_caps: List[float] = []
        for child, child_node in zip(children, child_nodes):
            factor = kernel._edge_factor(
                fanout, bbox_area, node.location, child_node.location
            )
            lengths.append(tree.edge_length(child) * factor)
            pin_caps.append(
                lib.sink_cap_ff
                if child_node.is_sink
                else kernel._pin_cap(child_node.size)
            )
        load = np.empty(self.C)
        wdelay = np.empty((self.C, fanout))
        elmore = np.empty((self.C, fanout))
        step_sq = np.empty((self.C, fanout))
        use_d2m = kernel._wire_metric == "d2m"
        cache = kernel._edge_cache
        segment = kernel._segment_um
        for k, corner in enumerate(self.corners):
            wire = lib.wire(corner)
            total = 0.0
            for j, (length, pin_cap) in enumerate(zip(lengths, pin_caps)):
                total += wire.segment_cap(length) + pin_cap
                elm, d2m = cache.metrics(wire, length, pin_cap, segment)
                elmore[k, j] = elm
                wdelay[k, j] = d2m if use_d2m else elm
                step = LN9 * elm
                step_sq[k, j] = step * step
            load[k] = total
        return load, wdelay, elmore, step_sq

    def compile_row(self, tree: ClockTree, nid: int) -> Optional[_Row]:
        """Recompile one driver's row against the (mutated) ``tree``.

        Returns ``None`` for a driver with no fanout (the scalar engine
        pops its artifacts).  Raises :class:`KernelStale` when the row
        references nodes or sizes the compiled arrays do not know —
        callers fall back to a full recompile.
        """
        node = tree.node(nid)
        children = tree.children(nid)
        if not children:
            return None
        positions = []
        for child in children:
            pos = self.index.get(child)
            if pos is None:
                raise KernelStale(f"unknown child {child}")
            positions.append(pos)
        lib = self._kernel._library
        size = lib.source_drive_size if node.is_source else node.size
        size_pos = self._kernel._size_pos.get(size)
        if size_pos is None:
            raise KernelStale(f"drive size {size} not in library")
        load, wdelay, elmore, step_sq = self._eval_net(tree, node, children)
        return _Row(
            child_pos=np.asarray(positions, dtype=np.int64),
            child_ids=tuple(children),
            size_idx=size_pos,
            load=load,
            wdelay=wdelay,
            elmore=elmore,
            step_sq=step_sq,
        )

    # ------------------------------------------------------------------
    # Full propagation
    # ------------------------------------------------------------------
    def propagate(self) -> KernelState:
        """Root-to-leaves propagation over all compiled corners at once."""
        C, n = self.C, self.n
        state = KernelState(
            arrival=np.zeros((C, n)),
            input_slew=np.zeros((C, n)),
            driver_delay=np.zeros((C, n)),
            driver_load=self.load.copy(),
            driver_out_slew=np.zeros((C, n)),
            edge_delay=np.zeros((C, n)),
            edge_elmore=np.zeros((C, n)),
            driver_valid=self.fanout > 0,
        )
        state.input_slew[:, self.root_pos] = self._kernel._library.source_slew_ps
        kernel = self._kernel
        for drivers, e0, e1, rep in self.levels:
            delay, out_slew = kernel.gate_batch(
                self.corner_rows,
                self.size_idx[drivers],
                state.input_slew[:, drivers],
                self.load[:, drivers],
            )
            state.driver_delay[:, drivers] = delay
            state.driver_out_slew[:, drivers] = out_slew
            out_time = state.arrival[:, drivers] + delay
            children = self.child_idx[e0:e1]
            state.arrival[:, children] = (
                out_time[:, rep] + self.edge_wdelay[:, e0:e1]
            )
            os = out_slew[:, rep]
            state.input_slew[:, children] = np.sqrt(
                os * os + self.edge_step_sq[:, e0:e1]
            )
            state.edge_delay[:, children] = self.edge_wdelay[:, e0:e1]
            state.edge_elmore[:, children] = self.edge_elmore[:, e0:e1]
        return state

    # ------------------------------------------------------------------
    # Incremental re-propagation
    # ------------------------------------------------------------------
    def build_overrides(
        self, tree: ClockTree, dirty: Iterable[int]
    ) -> Tuple[Dict[int, Optional[_Row]], List[Tuple[int, int]]]:
        """Row overrides plus ``(depth, position)`` seeds for ``dirty``."""
        overrides: Dict[int, Optional[_Row]] = {}
        seeds: List[Tuple[int, int]] = []
        for nid in dirty:
            if nid not in tree:
                continue
            pos = self.index.get(nid)
            if pos is None:
                raise KernelStale(f"unknown dirty node {nid}")
            if tree.node(nid).is_sink:
                continue
            overrides[pos] = self.compile_row(tree, nid)
            seeds.append((tree.depth(nid), pos))
        return overrides, seeds

    def retime(
        self,
        tree: ClockTree,
        state: KernelState,
        overrides: Dict[int, Optional[_Row]],
        seeds: Sequence[Tuple[int, int]],
        stats: Optional[Dict[str, int]] = None,
        touched: Optional[Tuple[set, set]] = None,
    ) -> KernelState:
        """Dirty-frontier re-propagation with per-corner decision masks.

        Mirrors ``IncrementalTimer._retime_state`` corner by corner: a
        node is processed only at corners where it is scheduled, a
        changed child slew cascades at exactly the corners it changed,
        and a clean subtree's arrivals shift rigidly by that corner's
        delta.  Compiled arrays are read-only here; dirty rows come from
        ``overrides``.
        """
        st = state.copy()
        C = self.C
        sched: Dict[int, np.ndarray] = {}
        active: Dict[int, Set[int]] = {}

        def schedule(pos: int, depth: int, mask: np.ndarray) -> None:
            m = sched.get(pos)
            if m is None:
                m = np.zeros(C, dtype=bool)
                sched[pos] = m
                active.setdefault(depth, set()).add(pos)
            m |= mask

        all_corners = np.ones(C, dtype=bool)
        for depth, pos in seeds:
            schedule(pos, depth, all_corners)

        ids = self.ids
        while active:
            depth = min(active)
            batch = sorted(active.pop(depth))
            evals: List[int] = []
            for pos in batch:
                if pos in overrides and overrides[pos] is None:
                    # A driver that lost its whole fanout (surgery): the
                    # golden analysis carries no artifacts for it.
                    st.driver_valid[pos] = False
                    if touched is not None:
                        touched[0].add(ids[pos])
                    continue
                evals.append(pos)
            if not evals:
                continue

            size_idx = np.empty(len(evals), dtype=np.int64)
            loads = np.empty((C, len(evals)))
            for k, pos in enumerate(evals):
                row = overrides.get(pos)
                if row is not None:
                    size_idx[k] = row.size_idx
                    loads[:, k] = row.load
                else:
                    size_idx[k] = self.size_idx[pos]
                    loads[:, k] = self.load[:, pos]
            delay, out_slew = self._kernel.gate_batch(
                self.corner_rows, size_idx, st.input_slew[:, evals], loads
            )

            for k, pos in enumerate(evals):
                mask = sched[pos]
                row = overrides.get(pos)
                if row is not None:
                    children = row.child_pos
                    child_ids = row.child_ids
                    wdelay, elmore = row.wdelay, row.elmore
                    step_sq, load = row.step_sq, row.load
                else:
                    e0, e1 = int(self.child_ptr[pos]), int(self.child_ptr[pos + 1])
                    children = self.child_idx[e0:e1]
                    child_ids = tuple(ids[c] for c in children)
                    wdelay = self.edge_wdelay[:, e0:e1]
                    elmore = self.edge_elmore[:, e0:e1]
                    step_sq = self.edge_step_sq[:, e0:e1]
                    load = self.load[:, pos]
                if touched is not None:
                    touched[0].add(ids[pos])
                    touched[0].update(child_ids)

                mcol = mask[:, None]
                st.driver_delay[:, pos] = np.where(
                    mask, delay[:, k], st.driver_delay[:, pos]
                )
                st.driver_load[:, pos] = np.where(
                    mask, load, st.driver_load[:, pos]
                )
                st.driver_out_slew[:, pos] = np.where(
                    mask, out_slew[:, k], st.driver_out_slew[:, pos]
                )
                st.driver_valid[pos] = True

                out_time = st.arrival[:, pos] + delay[:, k]
                new_arr = out_time[:, None] + wdelay
                osl = out_slew[:, k][:, None]
                new_slew = np.sqrt(osl * osl + step_sq)
                old_arr = st.arrival[:, children]
                old_slew = st.input_slew[:, children]
                st.arrival[:, children] = np.where(mcol, new_arr, old_arr)
                st.input_slew[:, children] = np.where(mcol, new_slew, old_slew)
                st.edge_delay[:, children] = np.where(
                    mcol, wdelay, st.edge_delay[:, children]
                )
                st.edge_elmore[:, children] = np.where(
                    mcol, elmore, st.edge_elmore[:, children]
                )
                slew_changed = mcol & (new_slew != old_slew)
                if touched is not None:
                    arr_changed = (mcol & (new_arr != old_arr)).any(axis=0)
                    for j in np.nonzero(arr_changed)[0]:
                        touched[1].add(child_ids[j])

                for j in range(len(child_ids)):
                    child_pos = int(children[j])
                    if child_pos in overrides:
                        child_drives = overrides[child_pos] is not None
                    else:
                        child_drives = bool(self.fanout[child_pos])
                    if not child_drives:
                        continue
                    already = sched.get(child_pos)
                    cascade = mask & slew_changed[:, j]
                    shiftable = mask & ~slew_changed[:, j]
                    if already is not None:
                        shiftable = shiftable & ~already
                    if cascade.any():
                        schedule(child_pos, depth + 1, cascade)
                    if shiftable.any():
                        deltas = new_arr[:, j] - old_arr[:, j]
                        do_shift = shiftable & (deltas != 0.0)
                        if do_shift.any():
                            # Clean subtree: arrivals shift rigidly at
                            # exactly the corners whose delta is nonzero.
                            if stats is not None:
                                stats["subtree_shifts"] += int(do_shift.sum())
                            sub_ids = tree.subtree_ids(child_ids[j])
                            sub_pos = [
                                self.index[s] for s in sub_ids if s != child_ids[j]
                            ]
                            if sub_pos:
                                rows = np.nonzero(do_shift)[0]
                                st.arrival[
                                    np.ix_(rows, np.asarray(sub_pos))
                                ] += deltas[do_shift][:, None]
                            if touched is not None:
                                touched[1].update(sub_ids)
        return st

    # ------------------------------------------------------------------
    # Committing overrides
    # ------------------------------------------------------------------
    def apply_rows(self, overrides: Dict[int, Optional[_Row]]) -> bool:
        """Patch committed rows into the compiled arrays in place.

        Only possible when no row changed shape (same children in the
        same order — displacements and resizes).  Returns ``False`` when
        any row is structural; the caller recompiles instead.
        """
        for pos, row in overrides.items():
            if row is None:
                return False
            e0, e1 = int(self.child_ptr[pos]), int(self.child_ptr[pos + 1])
            if e1 - e0 != row.child_pos.size or not np.array_equal(
                self.child_idx[e0:e1], row.child_pos
            ):
                return False
        for pos, row in overrides.items():
            e0, e1 = int(self.child_ptr[pos]), int(self.child_ptr[pos + 1])
            self.edge_wdelay[:, e0:e1] = row.wdelay
            self.edge_elmore[:, e0:e1] = row.elmore
            self.edge_step_sq[:, e0:e1] = row.step_sq
            self.load[:, pos] = row.load
            self.size_idx[pos] = row.size_idx
        return True

    def remap_state(
        self, old: "CompiledTree", state: KernelState
    ) -> KernelState:
        """Permute ``state`` (indexed by ``old``'s order) to this order."""
        perm = np.fromiter(
            (old.index[nid] for nid in self.ids), dtype=np.int64, count=self.n
        )
        return KernelState(
            arrival=state.arrival[:, perm],
            input_slew=state.input_slew[:, perm],
            driver_delay=state.driver_delay[:, perm],
            driver_load=state.driver_load[:, perm],
            driver_out_slew=state.driver_out_slew[:, perm],
            edge_delay=state.edge_delay[:, perm],
            edge_elmore=state.edge_elmore[:, perm],
            driver_valid=state.driver_valid[perm],
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def corner_timing(self, state: KernelState, name: str) -> CornerTiming:
        """Dict-shaped :class:`CornerTiming` view of one corner's state."""
        k = self.corner_pos[name]
        ids, index = self.ids, self.index
        return CornerTiming(
            corner=self.corners[k],
            arrival=ArrayMap(ids, index, state.arrival[k]),
            input_slew=ArrayMap(ids, index, state.input_slew[k]),
            driver_delay=ArrayMap(
                ids, index, state.driver_delay[k], state.driver_valid
            ),
            driver_load=ArrayMap(
                ids, index, state.driver_load[k], state.driver_valid
            ),
            driver_out_slew=ArrayMap(
                ids, index, state.driver_out_slew[k], state.driver_valid
            ),
            edge_delay=ArrayMap(ids, index, state.edge_delay[k], self.has_edge),
            edge_elmore=ArrayMap(
                ids, index, state.edge_elmore[k], self.has_edge
            ),
        )

    def sink_latencies(
        self, state: KernelState, sinks: Sequence[int]
    ) -> Dict[str, Dict[int, float]]:
        """``{corner: {sink: arrival}}`` in library corner order."""
        pos = np.fromiter(
            (self.index[s] for s in sinks), dtype=np.int64, count=len(sinks)
        )
        return {
            corner.name: dict(
                zip(sinks, state.arrival[self.corner_pos[corner.name], pos].tolist())
            )
            for corner in self.corners
        }
