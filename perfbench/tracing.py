"""Span recording around the program's public calls, from outside it.

:func:`instrument` replaces selected functions and methods of the
imported ``repro`` modules with timing wrappers: every call records a
span ``(name, start, end, parent, thread)`` in memory, and generator
functions record one span per item produced.  Spans are written out
once, when the process ends; self times and per-layer sums are derived
from them afterwards (:func:`layer_totals`).  Nothing here edits the
program: uninstrumented runs execute exactly the shipped code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time

# (span name, module, attribute path).  Every module that imported a
# function by name gets its own entry, because the wrapper must replace
# the name the caller actually looks up.
SEARCH_TARGETS = (
    ("sequences.load", "repro.sequences.fasta", "read_fasta"),
    ("sequences.load", "repro.sequences.database", "read_fasta"),
    ("sequences.load", "repro.sequences.database",
     "SequenceDatabase.from_fasta"),
    ("align.pack", "repro.core.engines", "pack_database"),
    ("align.pack", "repro.core.engines", "pack_database_binned"),
    ("align.pack", "repro.core.caching", "pack_database"),
    ("align.pack", "repro.core.caching", "pack_database_binned"),
    ("align.pack", "repro.align.screening", "pack_database"),
    ("align.pack", "repro.align.multiquery", "pack_database"),
    ("align.profile", "repro.core.engines", "_padded_profile"),
    ("align.profile", "repro.core.engines", "build_multi_profile"),
    ("align.profile", "repro.core.engines", "build_screen_profile"),
    ("align.profile", "repro.core.engines", "build_screen_multi_profile"),
    ("align.profile", "repro.align.screening", "_padded_profile"),
    ("align.profile", "repro.align.multiquery", "build_multi_profile"),
    ("align.sweep", "repro.core.engines", "sw_score_batch"),
    ("align.sweep", "repro.core.engines", "sw_score_batch_multi"),
    ("align.sweep", "repro.align.screening", "sw_score_batch"),
    ("align.sweep", "repro.align.multiquery", "sw_score_batch_multi"),
    ("align.screen", "repro.core.engines", "sw_screen_batch"),
    ("align.screen", "repro.core.engines", "sw_screen_batch_multi"),
    ("align.rescore", "repro.core.engines", "rescore_screened"),
    ("align.rescore", "repro.core.engines", "rescore_screened_multi"),
    ("store.open", "repro.store.packstore", "PackStore.__init__"),
    ("store.open", "repro.store.packstore", "PackStore.verify"),
    ("store.load", "repro.store.packstore", "PackStore.load_packs"),
    ("store.load", "repro.store.packstore", "PackStore.load_binned_packs"),
    ("store.load", "repro.store.packstore", "PackStore.load_profile"),
    ("core.engine", "repro.core.engines", "InterSequenceEngine.search"),
    ("core.engine", "repro.core.engines",
     "InterSequenceEngine.search_batch"),
    ("core.run", "repro.core.runtime", "HybridRuntime.run"),
)

MASTER_TARGETS = (
    ("core.master", "repro.core.master", "Master.on_request"),
    ("core.master", "repro.core.master", "Master.on_progress"),
    ("core.master", "repro.core.master", "Master.on_complete"),
)

SIMULATE_TARGETS = (
    ("simulate.run", "repro.simulate.des", "HybridSimulator.run"),
)


class Tracer:
    """In-memory span log; one per process."""

    def __init__(self, observe=None):
        #: ``observe(tracer, name, args, seconds)`` is called after each
        #: call of a wrapped function, to count the work it was given.
        self.observe = observe
        self.spans: list[tuple] = []  # (id, name, start, end, parent, tid)
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn, args, kwargs, observed: bool):
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((span_id, name, start, end, parent,
                                   threading.get_ident()))
            if observed and self.observe is not None:
                self.observe(self, name, args, end - start)

    def wrap(self, name: str, fn, observed: bool = False):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    try:
                        item = self.span(name, next, (iterator,), {}, False)
                    except StopIteration:
                        return
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, args, kwargs, observed)
        return wrapper


#: Spans whose arguments are passed to the tracer's ``observe`` hook,
#: for cell and padding accounting.
_OBSERVED = {"align.sweep", "align.profile"}


def instrument(tracer: Tracer, targets) -> None:
    """Replace every target with a span-recording wrapper."""
    for name, module_name, path in targets:
        module = importlib.import_module(module_name)
        owner = module
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = tracer.wrap(name, raw.__func__, name in _OBSERVED)
            setattr(owner, attr, classmethod(wrapped))
        else:
            setattr(owner, attr, tracer.wrap(name, raw, name in _OBSERVED))


def count_events(tracer: Tracer) -> None:
    """Count every simulator event that fires (not merely scheduled)."""
    from repro.simulate.events import EventQueue

    schedule = EventQueue.schedule

    def counting_schedule(self, at, action):
        def counted():
            tracer.count("simulate.events")
            action()
        return schedule(self, at, counted)

    EventQueue.schedule = counting_schedule


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child_time: dict[int, float] = {}
    for _sid, _name, start, end, parent, _tid in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {
        sid: (end - start) - child_time.get(sid, 0.0)
        for sid, _name, start, end, _parent, _tid in spans
    }


def layer_totals(spans) -> dict[str, float]:
    """Name -> summed duration of its outermost spans (no double count).

    A span nested inside a span of the same name (``from_fasta`` calling
    ``read_fasta``, the rescore's own exact sweep inside a sweep-named
    span) is already covered by its ancestor.
    """
    by_id = {s[0]: s for s in spans}
    totals: dict[str, float] = {}
    for sid, name, start, end, parent, _tid in spans:
        ancestor = parent
        nested = False
        while ancestor:
            record = by_id.get(ancestor)
            if record is None:
                break
            if record[1] == name:
                nested = True
                break
            ancestor = record[4]
        if not nested:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def self_totals(spans) -> dict[str, float]:
    """Name -> summed self time over all its spans."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for sid, name, *_rest in spans:
        totals[name] = totals.get(name, 0.0) + own[sid]
    return totals


#: Per-layer time metric -> the span name whose outermost spans it sums.
_OUTER_METRICS = {
    "sequences.load_s": "sequences.load",
    "align.pack_s": "align.pack",
    "align.profile_s": "align.profile",
    "align.sweep_s": "align.sweep",
    "align.screen_s": "align.screen",
    "align.rescore_s": "align.rescore",
    "store.open_s": "store.open",
    "store.load_s": "store.load",
    "core.engine_s": "core.engine",
    "simulate.run_s": "simulate.run",
}
#: Per-layer self-time metric -> span name.
_SELF_METRICS = {
    "core.topk_s": "core.engine",
    "core.master_s": "core.master",
}


def layer_seconds(spans) -> dict[str, float]:
    """The per-layer time metrics of one process, from its spans.

    Every metric is present; a layer with no spans reads 0.
    ``simulate.run_s`` is an intermediate (the DES time) that callers
    turn into ``simulate.loop_s``.
    """
    outer = layer_totals(spans)
    own = self_totals(spans)
    result = {metric: outer.get(name, 0.0)
              for metric, name in _OUTER_METRICS.items()}
    result.update({metric: own.get(name, 0.0)
                   for metric, name in _SELF_METRICS.items()})
    return result
