"""Worker-aware trace merging and canonical span-tree extraction.

Pool workers trace into their own lanes (``worker`` >= 1) and stream
drained event deltas back with every pipe response.  The parent calls
:func:`merge_worker_events` at the request site, which re-parents each
worker lane's *root* spans under the span that issued the request — so
the merged trace reads as one coherent tree: a ``verify`` span executed
on worker lane 3 hangs under the main lane's ``trial`` span exactly
where the serial path would have executed it inline.

Because worker-side spans use the same names as their serial
equivalents (the spans live in shared code), the canonical span tree
(:func:`span_tree` — the deduplicated, sorted set of name paths over
the re-parented trace, with the pool's own transport spans left out) is
identical for any worker count: that is the
determinism contract the CI trace-schema job asserts between
``--workers 1`` and ``--workers 4`` runs.
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping, Optional, Tuple

_SpanKey = Tuple[int, int]  # (worker lane, span id)


def merge_worker_events(
    tracer,
    events: List[Mapping[str, object]],
    worker: int,
    anchor: Optional[int] = None,
) -> int:
    """Append a worker lane's drained events to ``tracer``.

    Root spans (``parent`` is None) are re-parented under ``anchor`` —
    by default the tracer's currently open span — in the tracer's own
    lane (``parent_worker``).  Timestamps are left worker-local (lanes
    have independent monotonic clocks).  Returns the number of events
    merged; a disabled tracer merges nothing.
    """
    if not getattr(tracer, "enabled", False) or not events:
        return 0
    if anchor is None:
        anchor = tracer.current_span
    merged = 0
    for event in events:
        event = dict(event)
        event["worker"] = worker
        if (
            event.get("type") == "span_start"
            and event.get("parent") is None
            and anchor is not None
        ):
            event["parent"] = anchor
            event["parent_worker"] = tracer.worker
        tracer.events.append(event)
        merged += 1
    return merged


def load_events(path: str) -> List[Dict[str, object]]:
    """Read a JSONL trace file back into a list of event dicts."""
    events: List[Dict[str, object]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def _span_index(
    events: List[Mapping[str, object]],
) -> Dict[_SpanKey, Tuple[str, Optional[_SpanKey], str]]:
    """Map (lane, span) -> (name, parent key, phase) from the start events."""
    index: Dict[_SpanKey, Tuple[str, Optional[_SpanKey], str]] = {}
    for event in events:
        if event.get("type") != "span_start":
            continue
        lane = int(event.get("worker", 0))
        key = (lane, int(event["span"]))
        parent = event.get("parent")
        if parent is None:
            parent_key: Optional[_SpanKey] = None
        else:
            parent_lane = int(event.get("parent_worker", lane))
            parent_key = (parent_lane, int(parent))
        index[key] = (
            str(event.get("name", "")),
            parent_key,
            str(event.get("phase") or ""),
        )
    return index


def span_paths(
    events: List[Mapping[str, object]], skip_phase: Optional[str] = None
) -> Dict[str, int]:
    """Slash-joined name path -> number of spans on that path.

    Spans of phase ``skip_phase`` are left out and their children hoisted
    to the nearest kept ancestor.
    """
    index = _span_index(events)
    path_cache: Dict[_SpanKey, str] = {}

    def path_of(key: _SpanKey) -> str:
        cached = path_cache.get(key)
        if cached is not None:
            return cached
        chain: List[str] = []
        cursor: Optional[_SpanKey] = key
        seen = set()
        while cursor is not None and cursor not in seen:
            seen.add(cursor)
            entry = index.get(cursor)
            if entry is None:
                chain.append("<orphan>")
                break
            name, parent, phase = entry
            if phase != skip_phase:
                chain.append(name)
            cursor = parent
        path = "/".join(reversed(chain))
        path_cache[key] = path
        return path

    counts: Dict[str, int] = {}
    for key, (_name, _parent, phase) in index.items():
        if phase == skip_phase:
            continue
        path = path_of(key)
        counts[path] = counts.get(path, 0) + 1
    return counts


def span_tree(events: List[Mapping[str, object]]) -> List[str]:
    """Canonical span tree: the sorted, deduplicated set of logical paths.

    Worker lanes are included after re-parenting, so a pooled run and a
    serial run of the same flow produce the same tree — span *counts*
    may differ (four workers each open their own ``verify`` span where
    the serial loop opens one), but the set of logical paths does not.
    Transport spans (``phase="parallel"``: ``queue_wait``,
    ``shm_attach``, ``shm_export``) exist only in pooled runs, so they
    are skipped and their children hoisted to the enclosing span.
    """
    return sorted(span_paths(events, skip_phase="parallel"))
