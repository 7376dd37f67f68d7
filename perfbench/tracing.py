"""Spans and exact call counts, recorded from outside the library.

``Tracer`` times named spans that the benchmark's jobs put around their
calls into ``heckepieces``.  ``counting`` wraps selected methods of the
library's classes for the duration of a ``with`` block and tallies how often
each is called.  Neither edits the library: spans live in the job code and
the wrappers are installed on the classes and removed again afterwards.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from typing import Iterator

from heckepieces.coxeter import CoxeterGroup
from heckepieces.hecke import KLTable
from heckepieces.laurent import Laurent

# metric name -> methods whose calls it counts.  Every call is counted,
# including calls the library makes to itself (``KLTable.mu`` calls ``get``;
# the default ``left_descents`` calls ``right_descents``).
COXETER_METHODS = {
    "coxeter.length.calls": ("length",),
    "coxeter.mult_gen.calls": ("right_mult_gen", "left_mult_gen"),
    "coxeter.product.calls": ("product",),
    "coxeter.descents.calls": ("right_descents", "left_descents"),
    "coxeter.reduced_word.calls": ("reduced_word",),
    "coxeter.bruhat_leq.calls": ("bruhat_leq",),
    "coxeter.bruhat_lower.calls": ("bruhat_lower",),
}
LAURENT_METHODS = {
    "laurent.mul.calls": ("__mul__", "__rmul__"),
    "laurent.add.calls": ("__add__", "__radd__"),
}
KLTABLE_METHODS = {
    "hecke.query.calls": ("get", "mu"),
}
COUNT_METRICS = tuple(COXETER_METHODS) + tuple(LAURENT_METHODS) + tuple(KLTABLE_METHODS)


class Tracer:
    """Sums span durations by name.  A disabled tracer hands out one shared
    no-op context, so untraced rounds pay only an attribute lookup and a
    method call per span."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.totals: Counter = Counter()
        self.top_level = 0.0
        self._depth = 0
        self._null = contextlib.nullcontext()

    def reset(self) -> None:
        self.totals = Counter()
        self.top_level = 0.0

    def span(self, name: str):
        if not self.enabled:
            return self._null
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str) -> Iterator[None]:
        self._depth += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._depth -= 1
            self.totals[name] += elapsed
            if self._depth == 0:
                self.top_level += elapsed


def _classes_defining(root: type) -> list[type]:
    out, stack = [], [root]
    while stack:
        cls = stack.pop()
        out.append(cls)
        stack.extend(cls.__subclasses__())
    return out


def _wrap(function, counts: Counter, metric: str):
    def counted(*args, **kwargs):
        counts[metric] += 1
        return function(*args, **kwargs)
    counted.__wrapped__ = function
    return counted


@contextlib.contextmanager
def counting(counts: Counter) -> Iterator[Counter]:
    """Count calls into the Coxeter, Laurent and KL-table primitives while
    the block runs.  Methods are wrapped on every class that defines them
    (each Coxeter backend overrides a different subset), so a call is
    counted once, by the method that actually runs."""
    targets = [(cls, COXETER_METHODS) for cls in _classes_defining(CoxeterGroup)]
    targets += [(Laurent, LAURENT_METHODS), (KLTable, KLTABLE_METHODS)]
    installed = []
    try:
        for cls, table in targets:
            for metric, names in table.items():
                for name in names:
                    if name in cls.__dict__:
                        original = cls.__dict__[name]
                        installed.append((cls, name, original))
                        setattr(cls, name, _wrap(original, counts, metric))
        yield counts
    finally:
        for cls, name, original in reversed(installed):
            setattr(cls, name, original)
