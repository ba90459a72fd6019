"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` replaces each name in ``WRAPPED`` with a wrapper at the
place its callers look it up (``bounds.assemble`` is the name ``full_report``
calls), and ``Tracer.restore`` puts the originals back. Per-entry helpers
(``b_entry_fourier``, ``cos_coefficient``, ``BasisFunction.values``) run m^2
times and are never wrapped.

Each span keeps its name, start, end, parent, op id, whether it raised and a
few attributes read from its arguments or result. Spans stay in memory until
``dump`` writes them out. Time the tracer spends on its own bookkeeping and
on attributes lies outside [start, end] but inside the span's cover, so it
is charged to no layer and shows as tracing overhead.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name). The span name says which layer does the work.
WRAPPED: tuple[tuple[str, str, str], ...] = (
    ("cli", "main", "cli.main"),
    ("cli", "full_report", "bounds.full_report"),
    ("bounds", "full_report", "bounds.full_report"),
    ("bounds", "potential_sandwich", "bounds.potential_sandwich"),
    ("bounds", "subspace_bound", "bounds.subspace_bound"),
    ("bounds", "sample_potential", "assembly.sample_potential"),
    ("bounds", "enumerate_basis", "basis.enumerate_basis"),
    ("bounds", "assemble", "assembly.assemble"),
    ("bounds", "eigen_symmetric", "spectrum.eigen_symmetric"),
    ("assembly", "enumerate_basis", "basis.enumerate_basis"),
    ("assembly", "cached_sample_potential", "assembly.cached_sample_potential"),
    ("assembly", "sample_potential", "assembly.sample_potential"),
    ("assembly", "potential_grid", "surface.potential_grid"),
    ("assembly", "read_field_cache", "assembly.read_field_cache"),
    ("assembly", "write_field_cache", "assembly.write_field_cache"),
)


class Span:
    __slots__ = ("name", "start", "end", "cover_start", "cover_end", "parent", "op", "raised", "attrs")

    def as_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "raised": self.raised,
            **self.attrs,
        }


def _argument(orig, args, kwargs, name):
    return inspect.signature(orig).bind(*args, **kwargs).arguments.get(name)


def _attrs(name: str, orig, args, kwargs, result) -> dict:
    """Counts read at the boundary; only cheap reads of arguments and results."""
    if name == "assembly.sample_potential":
        return {"nx": result.nx, "ny": result.ny, "coeff_shape": list(result.coeffs.shape)}
    if name == "surface.potential_grid":
        return {"points": int(result.size)}
    if name == "assembly.cached_sample_potential":
        return {"cache_dir": _argument(orig, args, kwargs, "cache_dir") is not None}
    if name in ("assembly.read_field_cache", "assembly.write_field_cache"):
        return {"bytes": os.path.getsize(_argument(orig, args, kwargs, "path"))}
    if name == "assembly.assemble":
        a = result.entries
        nonzero_upper = (int((a != 0).sum()) + int((a.diagonal() != 0).sum())) // 2
        return {"m": result.m, "nonzero_upper": nonzero_upper}
    if name == "spectrum.eigen_symmetric":
        return {"m": int(result.m)}
    return {}


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans: list[Span] = []
        self.phase = "setup"
        self.op: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin_op(self, key) -> None:
        """Tag the spans that follow with the op they belong to."""
        self.op = f"{self.phase}:{key}"

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = getattr(self.lib, module_name)
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, span_name))

    def restore(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def _wrap(self, orig, name: str):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = Span()
            span.cover_start = time.perf_counter()
            span.name = name
            span.parent = tracer._stack[-1] if tracer._stack else None
            span.op = tracer.op
            span.raised = False
            span.attrs = {}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                span.start = time.perf_counter()
                result = orig(*args, **kwargs)
                span.end = time.perf_counter()
            except BaseException:
                span.end = time.perf_counter()
                span.raised = True
                raise
            finally:
                tracer._stack.pop()
                if span.raised:
                    span.cover_end = time.perf_counter()
            span.attrs = _attrs(name, orig, args, kwargs, result)
            span.cover_end = time.perf_counter()
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_dict(i)) + "\n")


def self_times(spans: list[Span], indices: list[int]) -> dict[int, float]:
    """Span duration minus the covers of its direct children, for the given spans."""
    wanted = set(indices)
    own = {i: spans[i].end - spans[i].start for i in indices}
    for i in indices:
        parent = spans[i].parent
        if parent in wanted:
            own[parent] -= spans[i].cover_end - spans[i].cover_start
    return own


def same_phase_pairs(m: int) -> int:
    """Entries the dense loop computes: pairs i <= j with equal phase.

    The enumeration holds the constant (cosine) and then a sine and a cosine
    per mode, so m//2 sines and m - m//2 cosines.
    """
    s, c = m // 2, m - m // 2
    return s * (s + 1) // 2 + c * (c + 1) // 2


def eigen_flops(m: int) -> int:
    """Computed: 9 m^3 for a symmetric eigendecomposition with vectors
    (Golub & Van Loan's count) plus 2 m^3 for the residual product A V."""
    return 11 * m**3


def layer_metrics(spans: list[Span], indices: list[int]) -> dict[str, float]:
    """Per-layer busy time and counts over the spans of one pass."""
    own = self_times(spans, indices)
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sampled_under: set[int] = set()
    points = flops = entries = useful = eig_flops = cache_bytes = hits = misses = 0
    grid_mb = 0.0
    for i in indices:
        span = spans[i]
        busy[span.name] += own[i]
        calls[span.name] += 1
        a = span.attrs
        if span.raised:
            continue
        if span.name == "assembly.sample_potential":
            p, q = a["coeff_shape"]
            flops += 2 * p * a["nx"] * a["ny"] + 2 * p * a["ny"] * q
            grid_mb = max(grid_mb, 8 * a["nx"] * a["ny"] / 1e6)
            sampled_under.add(span.parent)
        elif span.name == "surface.potential_grid":
            points += a["points"]
        elif span.name in ("assembly.read_field_cache", "assembly.write_field_cache"):
            cache_bytes += a["bytes"]
        elif span.name == "assembly.assemble":
            entries += same_phase_pairs(a["m"])
            useful += a["nonzero_upper"]
        elif span.name == "spectrum.eigen_symmetric":
            eig_flops += eigen_flops(a["m"])
    for i in indices:
        span = spans[i]
        if span.name == "assembly.cached_sample_potential" and span.attrs.get("cache_dir"):
            if i in sampled_under:
                misses += 1
            else:
                hits += 1
    return {
        "surface.potential_grid_s": busy["surface.potential_grid"],
        "surface.grid_points": points,
        "assembly.sample_s": busy["assembly.sample_potential"],
        "assembly.sample_calls": calls["assembly.sample_potential"],
        "assembly.transform_flops": flops,
        "assembly.grid_mb": grid_mb,
        "assembly.cache_s": busy["assembly.cached_sample_potential"]
        + busy["assembly.read_field_cache"]
        + busy["assembly.write_field_cache"],
        "assembly.cache_read_s": busy["assembly.read_field_cache"],
        "assembly.cache_write_s": busy["assembly.write_field_cache"],
        "assembly.cache_hits": hits,
        "assembly.cache_misses": misses,
        "assembly.cache_bytes": cache_bytes,
        "assembly.assemble_s": busy["assembly.assemble"],
        "assembly.entries_computed": entries,
        "assembly.useful_entry_frac": useful / entries if entries else 0.0,
        "basis.enumerate_s": busy["basis.enumerate_basis"],
        "basis.enumerate_calls": calls["basis.enumerate_basis"],
        "spectrum.eigen_s": busy["spectrum.eigen_symmetric"],
        "spectrum.eigen_calls": calls["spectrum.eigen_symmetric"],
        "spectrum.eigen_flops": eig_flops,
        "bounds.sandwich_s": busy["bounds.potential_sandwich"],
        "bounds.subspace_s": busy["bounds.subspace_bound"],
        "bounds.subspace_calls": calls["bounds.subspace_bound"],
        "bounds.report_self_s": busy["bounds.full_report"],
        "cli.self_s": busy["cli.main"],
        "layers.busy_s": sum(own.values()),
        "trace.bookkeeping_s": sum(
            (spans[i].cover_end - spans[i].cover_start) - (spans[i].end - spans[i].start) for i in indices
        ),
    }
