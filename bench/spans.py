"""In-memory spans for the benchmark's traced runs.

A span records a name, its start and end (``time.perf_counter`` seconds),
the index of the span that was open when it started, and the counts
recorded at the same boundary.  The layer of a span is the part of its
name before the first dot, so ``inductance.extract`` belongs to the
``inductance`` layer and the per-operation root ``bench.op`` to the
benchmark's own glue.

Spans are only recorded around calls the benchmark makes, plus three
calls that happen inside other public functions and are wrapped for the
length of a traced batch by ``instrumented``: winding generation and
extraction inside ``build_transformer``, and ``numpy.linalg.solve``
inside ``engine.transient``.  ``metal_area`` generates the windings a
second time; that generation is left to the ``transformer.metal_area``
span, so ``transformer.generate`` counts one generation per design.  Untraced operations use ``NULL_TRACER``,
which records nothing, and run the program unwrapped.
"""
from __future__ import annotations

import contextlib
import time

import numpy as np

from tsvqvco import transformer

LAYERS = ("bench", "geometry", "transformer", "inductance", "analysis",
          "topologies", "engine", "metrology")


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "counts": self.counts}


class Tracer:
    """Collects spans in memory; written out once the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(name, time.perf_counter(), parent)
        self._open.append(len(self.spans))
        self.spans.append(s)
        try:
            yield s.counts
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def innermost(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._open[-1]].name if self._open else None

    def add(self, key: str, value: float) -> None:
        """Add to a count of the innermost open span."""
        counts = self.spans[self._open[-1]].counts
        counts[key] = counts.get(key, 0) + value


class _NullTracer:
    """Stand-in for untraced operations: spans cost one call and record
    nothing."""

    def span(self, name: str):
        return contextlib.nullcontext({})


NULL_TRACER = _NullTracer()


def segment_pairs(coils: dict) -> int:
    """Segment pairs the pairwise extraction visits for one model: every
    pair within each winding plus every pair across each pair of
    windings."""
    sizes = [len(c.segments) for c in coils.values()]
    within = sum(n * (n - 1) // 2 for n in sizes)
    across = sum(sizes[i] * sizes[j]
                 for i in range(len(sizes)) for j in range(i + 1, len(sizes)))
    return within + across


@contextlib.contextmanager
def instrumented(tr: Tracer):
    """Wrap the layer calls made inside other public functions with spans
    and counts, and restore the originals afterwards."""
    generate = transformer.generate_coils
    extract = transformer.model_from_coils
    solve = np.linalg.solve

    def traced_generate(geom):
        if tr.innermost() == "transformer.metal_area":
            return generate(geom)
        with tr.span("transformer.generate"):
            return generate(geom)

    def traced_extract(coils, *args, **kwargs):
        with tr.span("inductance.extract") as counts:
            counts["segments"] = sum(len(c.segments) for c in coils.values())
            counts["segment_pairs"] = segment_pairs(coils)
            return extract(coils, *args, **kwargs)

    def traced_solve(a, b):
        t0 = time.perf_counter()
        try:
            return solve(a, b)
        finally:
            tr.add("solve_s", time.perf_counter() - t0)
            tr.add("solves", 1)

    transformer.generate_coils = traced_generate
    transformer.model_from_coils = traced_extract
    np.linalg.solve = traced_solve
    try:
        yield
    finally:
        transformer.generate_coils = generate
        transformer.model_from_coils = extract
        np.linalg.solve = solve


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds each layer spent in its own spans, minus the time covered
    by their child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    out = dict.fromkeys(LAYERS, 0.0)
    for s, c in zip(spans, child):
        layer = s.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + s.duration - c
    return out


def per_root(spans: list[Span]) -> list[dict[str, tuple[float, dict]]]:
    """For each root span (one operation), the summed duration and counts
    of every span name beneath it, the root included."""
    roots: list[dict[str, tuple[float, dict]]] = []
    root_of: list[int] = []
    for i, s in enumerate(spans):
        if s.parent is None:
            root_of.append(len(roots))
            roots.append({})
        else:
            root_of.append(root_of[s.parent])
        acc = roots[root_of[i]]
        dur, counts = acc.get(s.name, (0.0, {}))
        merged = dict(counts)
        for k, v in s.counts.items():
            merged[k] = merged.get(k, 0) + v
        acc[s.name] = (dur + s.duration, merged)
    return roots
