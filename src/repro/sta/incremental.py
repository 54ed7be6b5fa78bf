"""Incremental multi-corner timing engine with per-net caching.

The golden timer (:mod:`repro.sta.timer`) re-propagates the whole tree at
every corner for every evaluation — the reproduction-scale version of the
paper's 70-minute commercial ECO+STA loop.  But a Table-2 local move only
perturbs one driver net, its parent net, and the downstream cone; every
other net's *local* timing artifacts (driver delay, output slew, per-edge
wire delay/Elmore, fanout slews) are functions of the net's own geometry
and its input slew alone — arrival only offsets them.  This module
exploits that structure three ways:

1. **Per-net caching** — each net evaluation is memoized under a *net
   signature*: corner, resolved drive size, driver location, input slew,
   and per-fanout (location, via geometry, pin class).  Any change that
   could alter the result changes the signature, so a hit is exact.
2. **Per-edge RC caching** — inside a net evaluation, each edge's
   Elmore/D2M metrics come from :class:`repro.route.rc_net.EdgeRCCache`,
   keyed on edge length, load, and wire RC.  Star branches are
   electrically independent, so per-edge memoization is exact; slew-only
   cascades (where geometry is untouched) skip all RC reconstruction.
3. **Dirty-frontier re-propagation** — :meth:`IncrementalTimer.preview`
   and :meth:`IncrementalTimer.advance` take the set of structurally
   dirty drivers, re-evaluate nets outward from that frontier in depth
   order, and handle clean subtrees whose input slew is unchanged with a
   constant arrival shift instead of re-evaluation.

The golden timer remains the arbiter of correctness: every artifact here
is computed with the *same* formulas on the *same* float operations, so
incremental results match full golden re-analysis to ~1e-12 ps (the
differential tests in ``tests/test_incremental_timer.py`` enforce 1e-9).
A tree-revision stamp (see :meth:`repro.netlist.tree.ClockTree.revision`)
detects out-of-band mutations and falls back to a full — but still
net-cached — re-propagation, so arbitrary ECO surgery stays correct.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.geometry import BBox
from repro.netlist.tree import ClockNode, ClockTree
from repro.route.congestion import routed_length_factor
from repro.route.rc_net import DEFAULT_SEGMENT_UM, EdgeRCCache
from repro.sta.gate import inverter_pair_timing, quantize_gate_inputs
from repro.sta.signoff import signoff_gate_factor
from repro.sta.skew import SkewAnalysis
from repro.sta.slew import wire_degraded_slew
from repro.sta.timer import CornerTiming, TimingResult
from repro.tech.corners import Corner
from repro.tech.library import Library


@dataclass(frozen=True)
class _NetEval:
    """Arrival-independent timing artifacts of one driver net.

    ``edge_delay``/``edge_elmore``/``child_slew`` are positional, in the
    driver's fanout order, so a cached evaluation can be re-applied to a
    net whose child *ids* differ but whose geometry matches.
    """

    driver_delay: float
    driver_load: float
    out_slew: float
    edge_delay: Tuple[float, ...]
    edge_elmore: Tuple[float, ...]
    child_slew: Tuple[float, ...]


class _CornerState:
    """Mutable per-corner propagation state of the attached tree."""

    __slots__ = (
        "arrival",
        "input_slew",
        "driver_delay",
        "driver_load",
        "driver_out_slew",
        "edge_delay",
        "edge_elmore",
    )

    def __init__(self) -> None:
        self.arrival: Dict[int, float] = {}
        self.input_slew: Dict[int, float] = {}
        self.driver_delay: Dict[int, float] = {}
        self.driver_load: Dict[int, float] = {}
        self.driver_out_slew: Dict[int, float] = {}
        self.edge_delay: Dict[int, float] = {}
        self.edge_elmore: Dict[int, float] = {}

    def copy(self) -> "_CornerState":
        other = _CornerState()
        other.arrival = dict(self.arrival)
        other.input_slew = dict(self.input_slew)
        other.driver_delay = dict(self.driver_delay)
        other.driver_load = dict(self.driver_load)
        other.driver_out_slew = dict(self.driver_out_slew)
        other.edge_delay = dict(self.edge_delay)
        other.edge_elmore = dict(self.edge_elmore)
        return other

    def as_corner_timing(self, corner: Corner) -> CornerTiming:
        return CornerTiming(
            corner=corner,
            arrival=self.arrival,
            input_slew=self.input_slew,
            driver_delay=self.driver_delay,
            driver_load=self.driver_load,
            driver_out_slew=self.driver_out_slew,
            edge_delay=self.edge_delay,
            edge_elmore=self.edge_elmore,
        )


class IncrementalTimer:
    """Clock-tree STA with net-level caching and frontier re-propagation.

    The three entry points, in increasing specificity:

    * :meth:`time_tree` — GoldenTimer-compatible full result for any tree
      (attaches if needed; full pass with net-cache reuse);
    * :meth:`preview` — trial evaluation of an already-applied mutation
      from its dirty frontier, *without* adopting the new state (caller
      undoes the mutation and calls :meth:`rebase`);
    * :meth:`advance` — like preview, but commits the new state.
    """

    def __init__(
        self,
        library: Library,
        wire_metric: str = "d2m",
        segment_um: float = DEFAULT_SEGMENT_UM,
        max_cache_entries: int = 131072,
        wire_backend: str = "kernel",
    ) -> None:
        if wire_metric not in ("d2m", "elmore"):
            raise ValueError("wire_metric must be 'd2m' or 'elmore'")
        if wire_backend not in ("kernel", "reference"):
            raise ValueError("wire_backend must be 'kernel' or 'reference'")
        self._library = library
        self._wire_metric = wire_metric
        self._segment_um = segment_um
        self._max_entries = max(2, max_cache_entries)
        self._net_cache: Dict[Tuple, _NetEval] = {}
        self._gate_cache: Dict[Tuple, Tuple[float, float]] = {}
        self._edge_cache = EdgeRCCache(max_entries=2 * self._max_entries)
        self._wire_backend = wire_backend
        self._kernel = None  # lazy TimingKernel (kernel backend only)
        self._kernel_unsupported = False
        self._compiled = None  # CompiledTree of the attached tree
        self._kstate = None  # KernelState of the attached tree
        self._tree: Optional[ClockTree] = None
        self._stamp: Optional[Tuple[int, int]] = None
        self._states: Dict[str, _CornerState] = {}
        self.stats: Dict[str, int] = {
            "full_passes": 0,
            "retimes": 0,
            "net_evals": 0,
            "net_hits": 0,
            "gate_evals": 0,
            "gate_hits": 0,
            "subtree_shifts": 0,
        }
        #: Nodes touched by the last :meth:`advance`, as ``(local,
        #: arrival)`` frozensets — *local* means input slew, driver
        #: delay/load or incoming-edge delay changed (re-evaluated
        #: drivers plus their fanout), *arrival* means the node's arrival
        #: moved (including rigid subtree shifts).  ``None`` after
        #: :meth:`attach`, i.e. "assume everything changed".  Consumed by
        #: the candidate pipeline's dependency invalidation.
        self.last_touched: Optional[Tuple[frozenset, frozenset]] = None

    # ------------------------------------------------------------------
    # Attachment bookkeeping
    # ------------------------------------------------------------------
    @property
    def library(self) -> Library:
        return self._library

    @property
    def wire_metric(self) -> str:
        return self._wire_metric

    @property
    def edge_cache(self) -> EdgeRCCache:
        return self._edge_cache

    @property
    def wire_backend(self) -> str:
        return self._wire_backend

    def _kernel_obj(self):
        """The lazily built :class:`~repro.sta.kernel.TimingKernel`.

        Shares this timer's :class:`EdgeRCCache`, so compiled edge
        metrics and reference-path evaluations draw from one pool.
        """
        if self._kernel is None:
            from repro.sta.kernel import TimingKernel

            self._kernel = TimingKernel(
                self._library,
                self._wire_metric,
                self._segment_um,
                edge_cache=self._edge_cache,
            )
        return self._kernel

    def is_attached(self, tree: ClockTree) -> bool:
        """True if ``tree`` is the tree this timer's state describes."""
        return self._stamp == (id(tree), tree.revision)

    def attach(self, tree: ClockTree) -> None:
        """Bind to ``tree``: full propagation (batched or per corner)."""
        self.stats["full_passes"] += 1
        if self._wire_backend == "kernel" and not self._kernel_unsupported:
            from repro.sta.kernel import KernelUnsupported

            try:
                compiled = self._kernel_obj().compile(tree)
            except KernelUnsupported:
                self._kernel_unsupported = True
            else:
                self._compiled = compiled
                self._kstate = compiled.propagate()
                self._states = {}
                self._tree = tree
                self._stamp = (id(tree), tree.revision)
                self.last_touched = None
                return
        self._compiled = None
        self._kstate = None
        self._states = {
            corner.name: self._full_state(tree, corner)
            for corner in self._library.corners
        }
        self._tree = tree
        self._stamp = (id(tree), tree.revision)
        self.last_touched = None

    def ensure(self, tree: ClockTree) -> None:
        """Attach to ``tree`` unless the current state already matches."""
        if not self.is_attached(tree):
            self.attach(tree)

    def rebase(self, tree: ClockTree) -> None:
        """Declare ``tree`` back in the attached geometry.

        Call after undoing a previewed mutation: the tree's revision
        counter advanced, but its geometry — and therefore the retained
        state — is exactly what :meth:`attach` (or the last
        :meth:`advance`) computed.
        """
        if self._tree is not tree:
            raise ValueError("rebase target is not the attached tree")
        self._stamp = (id(tree), tree.revision)

    def kernel_snapshot(self, tree: ClockTree):
        """The attached ``(CompiledTree, KernelState)``, or ``None``.

        Only available on the kernel backend while attached to ``tree``
        — the pair describes exactly that tree's geometry.  The shared
        -memory arena exports it so worker replicas can adopt the main
        engine's compiled planes instead of recompiling.
        """
        if self._compiled is None or self._kstate is None:
            return None
        if not self.is_attached(tree):
            return None
        return self._compiled, self._kstate

    def adopt_compiled(self, tree: ClockTree, compiled, state) -> None:
        """Bind to ``tree`` by adopting a pre-built kernel compile.

        ``compiled``/``state`` must describe ``tree``'s exact geometry
        (an arena snapshot of an engine whose floats evolved through the
        same ``advance`` path), so adopting them is bit-identical to
        :meth:`attach` plus a delta replay — without the per-net scalar
        compile and full propagation.
        """
        if self._wire_backend != "kernel":
            raise ValueError("adopt_compiled requires the kernel wire backend")
        self._kernel = compiled._kernel
        self._kernel_unsupported = False
        self._compiled = compiled
        self._kstate = state
        self._states = {}
        self._tree = tree
        self._stamp = (id(tree), tree.revision)
        self.last_touched = None

    # ------------------------------------------------------------------
    # Evaluation entry points
    # ------------------------------------------------------------------
    def corner_timings(self, tree: ClockTree) -> Dict[str, CornerTiming]:
        """Per-corner timing of ``tree`` (attaching if needed)."""
        self.ensure(tree)
        if self._kstate is not None:
            return {
                corner.name: self._compiled.corner_timing(
                    self._kstate, corner.name
                )
                for corner in self._library.corners
            }
        return {
            corner.name: self._states[corner.name].as_corner_timing(corner)
            for corner in self._library.corners
        }

    def analyze_corner(self, tree: ClockTree, corner: Corner) -> CornerTiming:
        """GoldenTimer-compatible single-corner analysis of ``tree``."""
        self.ensure(tree)
        if self._kstate is not None:
            return self._compiled.corner_timing(self._kstate, corner.name)
        return self._states[corner.name].as_corner_timing(corner)

    def time_tree(
        self,
        tree: ClockTree,
        pairs: Sequence[Tuple[int, int]],
        alphas: Optional[Mapping[str, float]] = None,
    ) -> TimingResult:
        """GoldenTimer-compatible full result (memoized full propagation)."""
        self.ensure(tree)
        if self._kstate is not None:
            return self._snapshot_kernel(
                tree, self._compiled, self._kstate, pairs, alphas
            )
        return self._snapshot(tree, self._states, pairs, alphas)

    def preview(
        self,
        tree: ClockTree,
        dirty: Iterable[int],
        pairs: Sequence[Tuple[int, int]],
        alphas: Optional[Mapping[str, float]] = None,
    ) -> TimingResult:
        """Time an applied-but-uncommitted mutation of the attached tree.

        ``tree`` must be the attached tree object, already mutated;
        ``dirty`` the structurally dirty driver ids (see
        :func:`repro.core.moves.apply_move_undoable`).  The internal
        state is left at the pre-mutation tree: undo the mutation and
        call :meth:`rebase` to continue issuing previews cheaply.
        """
        if self._kstate is not None:
            state, _, compiled = self._kernel_retime(tree, dirty)
            return self._snapshot_kernel(tree, compiled, state, pairs, alphas)
        states = self._retime(tree, dirty)
        return self._snapshot(tree, states, pairs, alphas)

    def advance(
        self,
        tree: ClockTree,
        dirty: Iterable[int],
        pairs: Sequence[Tuple[int, int]],
        alphas: Optional[Mapping[str, float]] = None,
    ) -> TimingResult:
        """Like :meth:`preview`, but adopt the mutated tree as current."""
        touched = (set(), set())
        if self._kstate is not None:
            state, overrides, compiled = self._kernel_retime(
                tree, dirty, touched
            )
            if compiled is not self._compiled:
                # Mutation outside the compiled node set: adopt the fresh
                # compile and its full propagation.
                self._compiled = compiled
            elif not self._compiled.apply_rows(overrides):
                # Structural move (surgery): BFS order changed, so rebuild
                # the CSR arrays and carry the retimed state across by
                # node-id permutation.
                recompiled = self._kernel_obj().compile(tree)
                state = recompiled.remap_state(self._compiled, state)
                self._compiled = recompiled
            self._kstate = state
            self._stamp = (id(tree), tree.revision)
            self.last_touched = (frozenset(touched[0]), frozenset(touched[1]))
            return self._snapshot_kernel(
                tree, self._compiled, state, pairs, alphas
            )
        states = self._retime(tree, dirty, touched)
        self._states = states
        self._stamp = (id(tree), tree.revision)
        self.last_touched = (frozenset(touched[0]), frozenset(touched[1]))
        return self._snapshot(tree, states, pairs, alphas)

    # ------------------------------------------------------------------
    # Core propagation
    # ------------------------------------------------------------------
    def _full_state(self, tree: ClockTree, corner: Corner) -> _CornerState:
        state = _CornerState()
        state.arrival[tree.root] = 0.0
        state.input_slew[tree.root] = self._library.source_slew_ps
        for nid in tree.topological_order():
            node = tree.node(nid)
            children = tree.children(nid)
            if node.is_sink or not children:
                continue
            self._apply_net(tree, corner, state, nid, node, children)
        return state

    def _apply_net(
        self,
        tree: ClockTree,
        corner: Corner,
        state: _CornerState,
        nid: int,
        node: ClockNode,
        children: Tuple[int, ...],
    ) -> _NetEval:
        """Evaluate ``nid``'s net and write its artifacts into ``state``."""
        ev = self._net_eval(tree, corner, node, children, state.input_slew[nid])
        state.driver_delay[nid] = ev.driver_delay
        state.driver_load[nid] = ev.driver_load
        state.driver_out_slew[nid] = ev.out_slew
        out_time = state.arrival[nid] + ev.driver_delay
        for child, ed, ee, cs in zip(
            children, ev.edge_delay, ev.edge_elmore, ev.child_slew
        ):
            state.arrival[child] = out_time + ed
            state.edge_delay[child] = ed
            state.edge_elmore[child] = ee
            state.input_slew[child] = cs
        return ev

    def _retime(
        self,
        tree: ClockTree,
        dirty: Iterable[int],
        touched: Optional[Tuple[set, set]] = None,
    ) -> Dict[str, _CornerState]:
        if self._tree is not tree:
            raise ValueError(
                "preview/advance requires the attached tree; call ensure() first"
            )
        self.stats["retimes"] += 1
        return {
            corner.name: self._retime_state(
                tree, corner, self._states[corner.name], set(dirty), touched
            )
            for corner in self._library.corners
        }

    def _kernel_retime(
        self,
        tree: ClockTree,
        dirty: Iterable[int],
        touched: Optional[Tuple[set, set]] = None,
    ):
        """Kernel-backend counterpart of :meth:`_retime`.

        Returns ``(state, overrides, compiled)``.  ``compiled`` is the
        attached :class:`CompiledTree` except when the mutation referenced
        nodes the compiled arrays do not know (ECO surgery outside the
        Table-2 move set): then the mutated tree is fully recompiled and
        freshly propagated, and ``compiled`` is that new object.
        """
        if self._tree is not tree:
            raise ValueError(
                "preview/advance requires the attached tree; call ensure() first"
            )
        from repro.sta.kernel import KernelStale

        self.stats["retimes"] += 1
        try:
            overrides, seeds = self._compiled.build_overrides(tree, set(dirty))
            state = self._compiled.retime(
                tree,
                self._kstate,
                overrides,
                seeds,
                stats=self.stats,
                touched=touched,
            )
            return state, overrides, self._compiled
        except KernelStale:
            compiled = self._kernel_obj().compile(tree)
            state = compiled.propagate()
            if touched is not None:
                touched[0].update(compiled.ids)
                touched[1].update(compiled.ids)
            return state, {}, compiled

    def _retime_state(
        self,
        tree: ClockTree,
        corner: Corner,
        old: _CornerState,
        dirty: set,
        touched: Optional[Tuple[set, set]] = None,
    ) -> _CornerState:
        state = old.copy()
        heap: List[Tuple[int, int]] = []
        scheduled = set()

        def push(nid: int, depth: int) -> None:
            if nid not in scheduled:
                scheduled.add(nid)
                heapq.heappush(heap, (depth, nid))

        for nid in dirty:
            if nid in tree:
                push(nid, tree.depth(nid))

        while heap:
            depth, nid = heapq.heappop(heap)
            node = tree.node(nid)
            if node.is_sink:
                continue
            children = tree.children(nid)
            if not children:
                # A driver that lost its whole fanout (surgery): golden
                # analysis would carry no driver artifacts for it.
                state.driver_delay.pop(nid, None)
                state.driver_load.pop(nid, None)
                state.driver_out_slew.pop(nid, None)
                if touched is not None:
                    touched[0].add(nid)
                continue
            ev = self._net_eval(
                tree, corner, node, children, state.input_slew[nid]
            )
            if touched is not None:
                touched[0].add(nid)
                touched[0].update(children)
            state.driver_delay[nid] = ev.driver_delay
            state.driver_load[nid] = ev.driver_load
            state.driver_out_slew[nid] = ev.out_slew
            out_time = state.arrival[nid] + ev.driver_delay
            for child, ed, ee, cs in zip(
                children, ev.edge_delay, ev.edge_elmore, ev.child_slew
            ):
                new_arrival = out_time + ed
                old_arrival = state.arrival.get(child)
                slew_changed = state.input_slew.get(child) != cs
                state.arrival[child] = new_arrival
                state.edge_delay[child] = ed
                state.edge_elmore[child] = ee
                state.input_slew[child] = cs
                if touched is not None and new_arrival != old_arrival:
                    touched[1].add(child)
                if not tree.children(child):
                    continue
                if slew_changed or child in scheduled:
                    # Changed slew re-times the whole downstream cone
                    # (geometry-clean nets hit the per-net/edge caches).
                    push(child, depth + 1)
                elif old_arrival is None:
                    push(child, depth + 1)
                else:
                    delta = new_arrival - old_arrival
                    if delta != 0.0:
                        # Clean subtree: arrivals shift rigidly.
                        self.stats["subtree_shifts"] += 1
                        arrival = state.arrival
                        for sub in tree.subtree_ids(child):
                            if sub != child:
                                arrival[sub] += delta
                        if touched is not None:
                            touched[1].update(tree.subtree_ids(child))
        return state

    # ------------------------------------------------------------------
    # Net evaluation with caching
    # ------------------------------------------------------------------
    def _net_eval(
        self,
        tree: ClockTree,
        corner: Corner,
        node: ClockNode,
        children: Tuple[int, ...],
        input_slew: float,
    ) -> _NetEval:
        lib = self._library
        size = lib.source_drive_size if node.is_source else node.size
        child_nodes = [tree.node(c) for c in children]
        signature = (
            corner.name,
            size,
            node.location,
            input_slew,
            tuple(
                (c.location, c.via, None if c.is_sink else c.size)
                for c in child_nodes
            ),
        )
        cached = self._net_cache.get(signature)
        if cached is not None:
            self.stats["net_hits"] += 1
            return cached
        self.stats["net_evals"] += 1

        wire = lib.wire(corner)
        net_points = [node.location] + [c.location for c in child_nodes]
        bbox_area = BBox.of_points(net_points).area
        fanout = len(children)

        lengths: List[float] = []
        pin_caps: List[float] = []
        total_load = 0.0
        for child, child_node in zip(children, child_nodes):
            factor = routed_length_factor(
                fanout, bbox_area, node.location, child_node.location
            )
            length = tree.edge_length(child) * factor
            pin_cap = (
                lib.sink_cap_ff
                if child_node.is_sink
                else lib.input_cap_ff(child_node.size)
            )
            lengths.append(length)
            pin_caps.append(pin_cap)
            total_load += wire.segment_cap(length) + pin_cap

        driver_delay, out_slew = self._gate_eval(
            corner, size, input_slew, total_load
        )

        edge_delay: List[float] = []
        edge_elmore: List[float] = []
        child_slew: List[float] = []
        use_d2m = self._wire_metric == "d2m"
        for length, pin_cap in zip(lengths, pin_caps):
            elmore, d2m = self._edge_cache.metrics(
                wire, length, pin_cap, self._segment_um
            )
            edge_delay.append(d2m if use_d2m else elmore)
            edge_elmore.append(elmore)
            child_slew.append(wire_degraded_slew(out_slew, elmore))

        ev = _NetEval(
            driver_delay=driver_delay,
            driver_load=total_load,
            out_slew=out_slew,
            edge_delay=tuple(edge_delay),
            edge_elmore=tuple(edge_elmore),
            child_slew=tuple(child_slew),
        )
        if len(self._net_cache) >= self._max_entries:
            for key in list(islice(self._net_cache, self._max_entries // 2)):
                del self._net_cache[key]
        self._net_cache[signature] = ev
        return ev

    def _gate_eval(
        self, corner: Corner, size: int, input_slew: float, load_ff: float
    ) -> Tuple[float, float]:
        """Signoff-corrected inverter-pair delay and output slew, memoized.

        Inputs are snapped to the shared gate quantization grid (see
        :func:`repro.sta.gate.quantize_gate_inputs`) — exactly as the
        golden timer snaps them — so the memo key is a *quantized* pair
        that recurs across nets and slew-cascade tails, instead of a raw
        float pair that never repeats.
        """
        gate_slew, gate_load = quantize_gate_inputs(input_slew, load_ff)
        key = (corner.name, size, gate_slew, gate_load)
        found = self._gate_cache.get(key)
        if found is not None:
            self.stats["gate_hits"] += 1
            return found
        self.stats["gate_evals"] += 1
        cell = self._library.cell(size, corner)
        pair = inverter_pair_timing(cell, gate_slew, gate_load)
        correction = signoff_gate_factor(size, gate_slew, gate_load)
        value = (pair.delay_ps * correction, pair.output_slew_ps)
        if len(self._gate_cache) >= self._max_entries:
            for key_old in list(islice(self._gate_cache, self._max_entries // 2)):
                del self._gate_cache[key_old]
        self._gate_cache[key] = value
        return value

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def _snapshot(
        self,
        tree: ClockTree,
        states: Mapping[str, _CornerState],
        pairs: Sequence[Tuple[int, int]],
        alphas: Optional[Mapping[str, float]],
    ) -> TimingResult:
        sinks = tree.sinks()
        per_corner: Dict[str, CornerTiming] = {}
        latencies: Dict[str, Dict[int, float]] = {}
        for corner in self._library.corners:
            state = states[corner.name]
            per_corner[corner.name] = state.as_corner_timing(corner)
            latencies[corner.name] = {s: state.arrival[s] for s in sinks}
        skews = SkewAnalysis.from_latencies(
            latencies, list(pairs), self._library.corners, alphas
        )
        return TimingResult(
            per_corner=per_corner, latencies=latencies, skews=skews
        )

    def _snapshot_kernel(
        self,
        tree: ClockTree,
        compiled,
        state,
        pairs: Sequence[Tuple[int, int]],
        alphas: Optional[Mapping[str, float]],
    ) -> TimingResult:
        """Kernel-state counterpart of :meth:`_snapshot`."""
        latencies = compiled.sink_latencies(state, tree.sinks())
        per_corner = {
            corner.name: compiled.corner_timing(state, corner.name)
            for corner in self._library.corners
        }
        skews = SkewAnalysis.from_latencies(
            latencies, list(pairs), self._library.corners, alphas
        )
        return TimingResult(
            per_corner=per_corner, latencies=latencies, skews=skews
        )
