"""In-memory span recording around calls into the program's layers.

The benchmark does not instrument the program: in a traced run it
replaces chosen public functions (methods or module-level names) with
wrappers that record one span per call — name, layer, start, end,
parent span and a per-session or per-device key — and restores them
afterwards.  Spans are plain tuples appended to a list; they are
written out once, when the run ends.

The current span lives in a :class:`contextvars.ContextVar`, so
interleaved asyncio tasks nest independently, and a job the signer
pool runs under a copied context nests under the request that queued
it.

A span's *self time* is its duration minus the part of it that its
children cover (the union of their intervals, clipped to the parent).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)


class Span(NamedTuple):
    sid: int
    parent: int          # 0 for a root
    name: str
    layer: str
    key: Optional[object]
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


#: How a wrapper derives the key of a call from its arguments.
KeyFn = Callable[..., Optional[object]]


class SpanRecorder:
    """Records spans; patches and restores the wrapped functions."""

    def __init__(self, now: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.now = now
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(0, "", None))
        self._patched: List[Tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------

    def current(self) -> Tuple[int, str, Optional[object]]:
        """``(span id, layer, key)`` of the innermost open span."""
        return self._current.get()

    def _new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def record(self, name: str, layer: str, start: float, end: float,
               key: Optional[object] = None,
               parent: Optional[int] = None) -> int:
        """Append a finished span (parent defaults to the current one)."""
        cur_id, _cur_layer, cur_key = self._current.get()
        sid = self._new_id()
        self.spans.append(Span(sid, cur_id if parent is None else parent,
                               name, layer,
                               cur_key if key is None else key,
                               start, end))
        return sid

    def call(self, name: str, layer: str, fn: Callable, args: tuple,
             kwargs: dict, key: Optional[object] = None) -> object:
        """Run ``fn`` synchronously inside a new span."""
        parent, _layer, parent_key = self._current.get()
        sid = self._new_id()
        key = parent_key if key is None else key
        token = self._current.set((sid, layer, key))
        start = self.now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.now()
            self._current.reset(token)
            self.spans.append(Span(sid, parent, name, layer, key, start,
                                   end))

    async def acall(self, name: str, layer: str, fn: Callable,
                    args: tuple, kwargs: dict,
                    key: Optional[object] = None) -> object:
        """Await ``fn`` inside a new span (the task's own context)."""
        parent, _layer, parent_key = self._current.get()
        sid = self._new_id()
        key = parent_key if key is None else key
        token = self._current.set((sid, layer, key))
        start = self.now()
        try:
            return await fn(*args, **kwargs)
        finally:
            end = self.now()
            self._current.reset(token)
            self.spans.append(Span(sid, parent, name, layer, key, start,
                                   end))

    # -- patching --------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str, layer: str,
             key_fn: Optional[KeyFn] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a class (for methods) or a module (for functions
        looked up through it at call time).  ``key_fn`` receives the
        call's arguments, ``self`` included for methods.
        """
        original = getattr(owner, attr)
        recorder = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                key = key_fn(*args, **kwargs) if key_fn else None
                return await recorder.acall(name, layer, original, args,
                                            kwargs, key)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                key = key_fn(*args, **kwargs) if key_fn else None
                return recorder.call(name, layer, original, args, kwargs,
                                     key)

        self.patch(owner, attr, wrapper)

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Install a replacement, restored by :meth:`unwrap_all`.  A
        method a class inherits is shadowed on that class, not patched
        on its base."""
        owned = not isinstance(owner, type) or attr in owner.__dict__
        original = owner.__dict__[attr] if owned and isinstance(
            owner, type) else getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original, owned))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original, owned = self._patched.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- export ----------------------------------------------------------

    def to_rows(self) -> List[list]:
        return [list(span) for span in self.spans]


def spans_from_rows(rows: Iterable[Sequence]) -> List[Span]:
    return [Span(*row) for row in rows]


# -- analysis ------------------------------------------------------------------


def union_length(intervals: Iterable[Tuple[float, float]],
                 lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in intervals
                     if b > lo and a < hi)
    covered = 0.0
    cur_start = cur_end = None
    for a, b in clipped:
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = a, b
        elif b > cur_end:
            cur_end = b
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    return {span.sid: span.duration - union_length(
        children.get(span.sid, ()), span.start, span.end)
        for span in spans}


def roots(spans: Sequence[Span]) -> Dict[int, Span]:
    """Span id -> the root of its tree (a span whose parent is not
    among ``spans`` counts as a root)."""
    by_id = {span.sid: span for span in spans}
    found: Dict[int, Span] = {}
    for span in spans:
        chain = []
        cur = span
        while cur.sid not in found and cur.parent in by_id:
            chain.append(cur.sid)
            cur = by_id[cur.parent]
        root = found.get(cur.sid, cur)
        for sid in chain + [cur.sid]:
            found[sid] = root
    return found


def in_window(spans: Sequence[Span], start: float, end: float
              ) -> List[Span]:
    """Spans whose *root* started inside ``[start, end)``: a request or
    device counts wholly inside the window or wholly outside it."""
    root = roots(spans)
    return [span for span in spans if start <= root[span.sid].start < end]


def under(spans: Sequence[Span], root_name: str) -> List[Span]:
    """Spans in trees whose root is named ``root_name``."""
    root = roots(spans)
    return [span for span in spans if root[span.sid].name == root_name]


def self_ms_by_layer(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per layer, in milliseconds."""
    totals: Dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for span in spans:
        totals[span.layer] += selfs[span.sid] * 1000.0
    return dict(totals)


def durations_ms(spans: Sequence[Span], name: str) -> List[float]:
    return [span.duration * 1000.0 for span in spans if span.name == name]
