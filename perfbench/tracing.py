"""In-memory spans around calls into toksel's modules.

The tracer wraps functions from the benchmark's side: `instrument` rebinds
every module-level name in the loaded toksel modules that refers to a
target function, so calls made through those names record a span, and
restores the originals on exit. Nothing in
toksel's source changes.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    run: str  # the command the span belongs to: "setup", "workload:<i>" or "probe:<i>"
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        rec = Span(len(self.spans), parent, name, self.run, time.perf_counter(), attrs=attrs)
        self.spans.append(rec)
        self._open.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, attrs_fn=None):
        """`fn` recording a span per call; `attrs_fn` maps its bound arguments to span attributes."""
        sig = inspect.signature(fn) if attrs_fn else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if attrs_fn:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = attrs_fn(bound.arguments)
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its direct children cover."""
        own = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own


def span_cost(calls: int = 20_000, repeats: int = 7) -> float:
    """Median time one traced call adds to a plain call, timed on a no-op function."""

    def noop():
        pass

    traced = Tracer().wrap("noop", noop)

    def per_call(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls

    return statistics.median(per_call(traced) - per_call(noop) for _ in range(repeats))


@contextmanager
def instrument(tracer: Tracer, package: str, targets):
    """Trace `targets`, tuples (module, attribute path, attrs_fn), inside `package`.

    A dotted attribute such as "ForestScorer.fit" is rebound on its class;
    a plain function is rebound wherever a module of the package refers to it.
    """
    modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
    undo = []
    try:
        for module_name, attr, attrs_fn in targets:
            module = sys.modules[f"{package}.{module_name}"]
            owner_path, _, fn_name = attr.rpartition(".")
            owner = functools.reduce(getattr, owner_path.split("."), module) if owner_path else None
            original = getattr(owner or module, fn_name)
            wrapper = tracer.wrap(f"{module_name}.{attr}", original, attrs_fn)
            if owner is not None:
                undo.append((owner, fn_name, original))
                setattr(owner, fn_name, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        undo.append((m, key, original))
                        setattr(m, key, wrapper)
        yield
    finally:
        for obj, key, original in reversed(undo):
            setattr(obj, key, original)
