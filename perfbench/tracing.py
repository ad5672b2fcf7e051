"""Span capture around the program's layer entry points.

A traced run installs wrappers on the public functions of each layer
(:data:`TARGETS`) before the workload starts and removes them after it
ends; the program itself is not modified. Each wrapped call records one
:class:`Span` (name, start, end, parent, request id) in memory; spans
are written as JSONL once the run is over.

Layer names are the first component of a span name and match the repo
modules: ``service``, ``io``, ``index``, ``core``, ``roadnet``,
``dynamic``. A span's *self time* is its duration minus the durations of
its children (children run inside their parent on the same thread, so
they never overlap each other).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.core.algorithm import GPSSNQueryProcessor
from repro.dynamic.continuous import ContinuousQueryRegistry
from repro.dynamic.maintenance import DynamicIndexMaintainer
from repro.index.social_index import SocialIndex
from repro.io import snapshot as snapshot_io
from repro.roadnet.engines import CSREngine
from repro.roadnet.shortest_path import DistanceOracle
from repro.service.executor import NetworkSnapshot, WorkerState
from repro.service.server import GPSSNService

#: Span names of request roots: one client request is one such call.
REQUEST_ROOTS = ("service.execute", "service.update")

#: ``(owner, attribute, span name)`` of every wrapped entry point.
TARGETS = (
    (GPSSNService, "execute", "service.execute"),
    (GPSSNService, "update", "service.update"),
    (GPSSNService, "subscribe", "service.subscribe"),
    (WorkerState, "run_shard", "service.run_shard"),
    (snapshot_io, "freeze", "io.freeze"),
    (NetworkSnapshot, "build_worker", "io.attach"),
    (GPSSNQueryProcessor, "__init__", "index.build"),
    (GPSSNQueryProcessor, "answer", "core.answer"),
    (DistanceOracle, "distances_from", "roadnet.oracle"),
    (DistanceOracle, "dense_distances_from", "roadnet.oracle"),
    (CSREngine, "sssp", "roadnet.sssp"),
    (CSREngine, "sssp_dense", "roadnet.sssp"),
    (CSREngine, "point_to_point", "roadnet.p2p"),
    (DynamicIndexMaintainer, "apply", "dynamic.maintain"),
    (DynamicIndexMaintainer, "flush", "dynamic.flush"),
    (ContinuousQueryRegistry, "apply_batch", "dynamic.apply_batch"),
    (ContinuousQueryRegistry, "reanswer", "dynamic.reanswer"),
    (SocialIndex, "compact", "dynamic.compact"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    request_id: Optional[str]
    start: float = 0.0
    end: float = 0.0
    #: ``QueryStatistics`` returned by a ``core.answer`` call.
    stats: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class SpanRecorder:
    """In-memory span store; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._request_ids = itertools.count()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            if name == "service.execute":
                # execute(self, entries, request_id, trace=False)
                request_id = kwargs.get("request_id") or args[2]
            elif name == "service.update":
                request_id = f"update-{next(recorder._request_ids)}"
            else:
                request_id = parent.request_id if parent else None
            span = Span(
                id=next(recorder._ids),
                name=name,
                parent=parent.id if parent else None,
                request_id=request_id,
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)
            if name == "core.answer":
                span.stats = result[1]
            return result

        return traced

    def install(self) -> Callable[[], None]:
        """Wrap every target; returns the function that unwraps them."""
        saved = []
        for owner, attr, name in TARGETS:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

        def uninstall() -> None:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

        return uninstall

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for span in sorted(self.spans, key=lambda s: s.start):
                fp.write(json.dumps({
                    "id": span.id,
                    "name": span.name,
                    "parent": span.parent,
                    "request_id": span.request_id,
                    "start": span.start,
                    "end": span.end,
                }) + "\n")


class SpanIndex:
    """Parent/child structure over a recorder's spans."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans = list(spans)
        self.by_id = {span.id: span for span in self.spans}
        self.child_sec: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                self.child_sec[span.parent] += span.duration

    def self_sec(self, span: Span) -> float:
        return span.duration - self.child_sec[span.id]

    def root_of(self, span: Span) -> Span:
        while span.parent is not None:
            span = self.by_id[span.parent]
        return span

    def under_requests(self, request_ids) -> List[Span]:
        """Spans below a request root whose id is in ``request_ids``
        (the roots themselves excluded)."""
        wanted = set(request_ids)
        out = []
        for span in self.spans:
            if span.parent is None:
                continue
            root = self.root_of(span)
            if root.name in REQUEST_ROOTS and root.request_id in wanted:
                out.append(span)
        return out
