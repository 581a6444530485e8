"""In-memory span recorder for the traced benchmark run.

A span is one timed call at a layer boundary: its name, start, end, the
span that caused it, the thread it ran on and the trial it belongs to.
Spans stay in memory until the run ends; ``to_json`` writes them out.

Calls made inside ``varprop.bench.run_trials`` are reached by swapping
module attributes for timing wrappers (``wrap``) and restoring them after
the pass.  A wrapped name that no longer exists is recorded as absent
instead of failing the run.
"""

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    thread: int
    trial: int


@dataclass
class Call:
    """One traced solve: its inputs, what it returned or raised, and the
    accuracy the caller scored from it."""

    trial: int
    labels: object
    cfg: object
    result: object
    error: str
    seconds: float
    accuracy: float = None

    @property
    def labels_per_class(self):
        return self.labels.l // self.labels.k

    @property
    def key(self):
        return (self.cfg.method, self.labels_per_class, self.trial)


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = []
        self.absent = []
        self.trial_of_seed = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack):
        # worker threads of run_trials start with an empty stack; their
        # calls were caused by the span open on the calling thread
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else 0

    @contextmanager
    def span(self, name):
        stack = self._stack()
        trial = getattr(self._local, "trial", -1)
        sid = next(self._ids)
        parent = self._parent(stack)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), trial))

    def set_trial(self, trial):
        self._local.trial = trial

    def record_call(self, labels, cfg, result, error, seconds):
        call = Call(getattr(self._local, "trial", -1), labels, cfg, result, error, seconds)
        self._local.call = call
        self.calls.append(call)

    def record_accuracy(self, accuracy):
        """Attach a score to the last solve recorded on this thread."""
        self._local.call.accuracy = accuracy

    @contextmanager
    def wrap(self, module, attr, name, before=None, record=None):
        """Replace ``module.attr`` by a span-recording wrapper for the block.

        ``before(args)`` runs ahead of the call (outside the span);
        ``record(args, result, error, seconds)`` runs after it.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(name)
            yield
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            start = time.perf_counter()
            try:
                with self.span(name):
                    result = original(*args, **kwargs)
            except Exception as exc:
                if record is not None:
                    record(args, None, type(exc).__name__, time.perf_counter() - start)
                raise
            if record is not None:
                record(args, result, None, time.perf_counter() - start)
            return result

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def total(self, name):
        """Summed duration of every span called ``name``."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_time(self, name):
        """Summed self time of the spans called ``name``: each span's
        duration minus the part of it that its children's intervals cover."""
        children = {}
        for s in self.spans:
            children.setdefault(s.parent, []).append((s.start, s.end))
        total = 0.0
        for s in self.spans:
            if s.name != name:
                continue
            covered = 0.0
            cursor = s.start
            for a, b in sorted(children.get(s.id, [])):
                a, b = max(a, cursor), min(b, s.end)
                if b > a:
                    covered += b - a
                    cursor = b
            total += (s.end - s.start) - covered
        return total

    def to_json(self):
        return {"spans": [asdict(s) for s in self.spans], "absent": sorted(set(self.absent))}
