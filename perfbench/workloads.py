"""The benchmark's workloads, their inputs and the checks behind ``failed``.

A workload is a fixed list of operations. The seed only permutes their order
within each pass; the library receives nothing but surface labels, truncation
sizes and CLI flags. Each operation is timed from outside with
``time.perf_counter`` and its output is checked after the pass, so checks
never count as op time.

The library is imported lazily by ``load_library`` so that the import is paid
inside the set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

# Nodal-domain bound and sandwich bounds (mu - 1, nu) of the paper's geometry
# table, for the 19 catalogued surfaces at H = 1/2.
PAPER_BOUNDS: dict[str, tuple[int, int, int]] = {
    "3/2": (2, 2, 213),
    "4/3": (1, 6, 81),
    "5/3": (4, 2, 743),
    "5/4": (6, 16, 169),
    "7/4": (6, 2, 1815),
    "6/5": (3, 14, 83),
    "7/5": (8, 12, 351),
    "8/5": (3, 2, 433),
    "9/5": (8, 2, 3569),
    "7/6": (10, 38, 189),
    "11/6": (10, 2, 6191),
    "8/7": (5, 24, 97),
    "9/7": (12, 28, 323),
    "10/7": (5, 8, 277),
    "11/7": (12, 6, 1037),
    "12/7": (5, 2, 1201),
    "13/7": (12, 2, 9863),
    "21/20": (38, 278, 491),
    "73/72": (142, 1962, 2353),
}

# (galerkin_k, subspace_lower) that the library produced when this benchmark
# was defined, at each surface's published m (or default_m) on the default
# grids. 8/7 and 9/7 are one below the paper's counts (35 and 54); they are
# pinned as produced, so a change in either direction shows as a failure.
SEED_COUNTS: dict[str, tuple[int, int | None]] = {
    "3/2": (11, 8),
    "4/3": (10, 9),
    "5/3": (12, 11),
    "5/4": (34, 32),
    "7/4": (16, 15),
    "6/5": (20, 19),
    "7/5": (27, 26),
    "8/5": (12, 11),
    "9/5": (20, 19),
    "7/6": (54, None),
    "11/6": (24, None),
    "8/7": (34, 8),
    "9/7": (53, None),
    "10/7": (18, 8),
    "11/7": (35, None),
    "12/7": (14, 8),
    "13/7": (28, None),
    "21/20": (77, None),
    "73/72": (85, None),
}

# Shell-complete truncation sizes for the large_m workload: odd parity
# (3/2, 7/6) uses 2s^2 - 2s + 1 with s = 23, 33; even parity (4/3) uses
# (2s - 1)^2 with s = 17, 23.
LARGE_M_SIZES: dict[str, tuple[int, int]] = {
    "3/2": (1013, 2113),
    "7/6": (1013, 2113),
    "4/3": (1089, 2025),
}
LARGE_M_K = {"3/2": 14, "7/6": 54, "4/3": 10}
LARGE_M_UNCERTAIN = {"4/3": 6}
# residual_bound must stay this far below |lambda_min| <= ||A||.
RESIDUAL_REL_MAX = 1e-8


class OpError(RuntimeError):
    """An operation returned without raising but signalled failure."""


def load_library(src: Path) -> SimpleNamespace:
    """Import the library from its source tree and make the first LAPACK call."""
    sys.path.insert(0, str(src))
    import numpy as np
    from wente_index import assembly, bounds, cli, spectrum, surface

    # The first LAPACK call loads and initialises the BLAS library.
    spectrum.eigen_symmetric(np.diag([1.0, 2.0, 3.0]) + 0.5)
    return SimpleNamespace(np=np, assembly=assembly, bounds=bounds, cli=cli, spectrum=spectrum, surface=surface)


@dataclass
class Outcome:
    key: object
    seconds: float
    output: object = None
    error: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def _label(label: str) -> tuple[int, int]:
    ell, n = label.split("/")
    return int(ell), int(n)


class Workload:
    """Ops of one workload; subclasses define ``keys``, ``call`` and ``check_pass``."""

    name = ""
    keys: list = []

    def __init__(self, lib: SimpleNamespace, seed: int):
        self.lib = lib
        self.rng = random.Random(seed)
        self.on_op = None  # called with each op's key before the op starts

    def order(self) -> list:
        keys = list(self.keys)
        self.rng.shuffle(keys)
        return keys

    def run_pass(self, keys: list | None = None) -> tuple[float, list[Outcome]]:
        """Run every op once in seeded order; returns (pass wall seconds, outcomes)."""
        keys = self.order() if keys is None else keys
        outcomes = []
        start = time.perf_counter()
        for key in keys:
            if self.on_op is not None:
                self.on_op(key)
            t0 = time.perf_counter()
            try:
                output = self.call(key)
            except (Exception, SystemExit) as exc:  # an op failure, not a benchmark failure
                outcomes.append(Outcome(key, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}"))
            else:
                outcomes.append(Outcome(key, time.perf_counter() - t0, output))
        wall = time.perf_counter() - start
        self.check_pass(outcomes)
        return wall, outcomes

    def set_up(self) -> list[Outcome]:
        """Untimed work before the timed passes; returns the outcomes it checked."""
        return self.run_pass()[1]

    def call(self, key):
        raise NotImplementedError

    def check_pass(self, outcomes: list[Outcome]) -> None:
        raise NotImplementedError


class CatalogWorkload(Workload):
    """``report --surface L --jobs 1`` for each catalogued surface, no cache."""

    name = "catalog"
    keys = list(PAPER_BOUNDS)

    def __init__(self, lib, seed, cache_dir: Path | None = None):
        super().__init__(lib, seed)
        self.cache_dir = cache_dir
        self.first_stdout: dict[str, str] = {}

    def argv(self, label: str) -> list[str]:
        argv = ["report", "--surface", label, "--jobs", "1"]
        if self.cache_dir is not None:
            argv += ["--cache-dir", str(self.cache_dir)]
        return argv

    def call(self, label: str) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.lib.cli.main(self.argv(label))
        if rc != 0:
            raise OpError(f"exit code {rc}")
        return buf.getvalue()

    def check_pass(self, outcomes):
        for out in outcomes:
            if out.error is None:
                out.problems.extend(self.check_report(out.key, out.output))

    def check_report(self, label: str, stdout: str) -> list[str]:
        problems = []
        baseline = self.first_stdout.setdefault(label, stdout)
        if stdout != baseline:
            problems.append("stdout differs from the first pass")
        try:
            report = json.loads(stdout)["reports"][0]
        except (ValueError, KeyError, IndexError) as exc:
            return problems + [f"unreadable report: {exc}"]
        names = ("courant_lower", "sandwich_lower", "sandwich_upper")
        for key, want in zip(names, PAPER_BOUNDS[label]):
            if report.get(key) != want:
                problems.append(f"{key} = {report.get(key)!r}, paper {want}")
        for key, want in zip(("galerkin_k", "subspace_lower"), SEED_COUNTS[label]):
            if report.get(key) != want:
                problems.append(f"{key} = {report.get(key)!r}, pinned {want}")
        return problems


class CacheWarmWorkload(CatalogWorkload):
    """The catalog ops reading a coefficient cache that set-up filled.

    Set-up runs one catalog pass without the cache (its reports are the
    reference for the cross-check), then one pass with ``--cache-dir`` on an
    empty directory, which writes every table. Timed passes only read.
    """

    name = "cache_warm"

    def __init__(self, lib, seed, cache_dir: Path):
        super().__init__(lib, seed, cache_dir=None)
        self.fill_dir = cache_dir
        self.uncached: dict[str, dict] = {}

    def set_up(self):
        outcomes = super().set_up()
        for out in outcomes:
            if not out.failed:
                self.uncached[out.key] = _without_cache_dir(json.loads(out.output))
        self.first_stdout.clear()
        self.cache_dir = self.fill_dir
        return outcomes + self.run_pass()[1]

    def check_report(self, label, stdout):
        problems = super().check_report(label, stdout)
        if self.cache_dir is None or problems:
            return problems
        reference = self.uncached.get(label)
        if reference is None:
            return ["no uncached report to compare with"]
        doc = json.loads(stdout)
        if doc.get("config", {}).get("cache_dir") != str(self.cache_dir):
            problems.append("config.cache_dir does not name the cache")
        if _without_cache_dir(doc) != reference:
            problems.append("report differs from the uncached report")
        return problems


def _without_cache_dir(doc: dict) -> dict:
    doc = json.loads(json.dumps(doc))
    doc.get("config", {}).pop("cache_dir", None)
    return doc


class LargeMWorkload(Workload):
    """``full_report`` at large shell-complete m, where assembly and eigh dominate.

    One op is one surface's ladder: ``full_report`` at each of its sizes,
    smaller first. The three ops cost about the same, so op percentiles do not
    hinge on where a median falls between a cheap size and a dear one. Set-up
    warms up with each surface at its smaller size only: the larger size runs
    the same code on bigger arrays and would double set-up time.
    """

    name = "large_m"
    keys = [(label, sizes) for label, sizes in LARGE_M_SIZES.items()]

    def set_up(self):
        return self.run_pass([(label, sizes[:1]) for label, sizes in LARGE_M_SIZES.items()])[1]

    def call(self, key):
        label, sizes = key
        p = self.lib.surface.catalog_surface(*_label(label))
        return [self.lib.bounds.full_report(p, m) for m in sizes]

    def check_pass(self, outcomes):
        for out in outcomes:
            if out.error is None:
                out.problems.extend(self.check_ladder(*out.key, out.output))

    @staticmethod
    def check_ladder(label: str, sizes: tuple[int, ...], reports: list) -> list[str]:
        problems = []
        for m, r in zip(sizes, reports):
            if r.m_used != m:
                problems.append(f"m_used = {r.m_used}, asked for {m}")
            if r.galerkin_k != LARGE_M_K[label]:
                problems.append(f"m={m}: galerkin_k = {r.galerkin_k}, pinned {LARGE_M_K[label]}")
            if label in LARGE_M_UNCERTAIN and r.uncertain_count != LARGE_M_UNCERTAIN[label]:
                problems.append(f"m={m}: uncertain_count = {r.uncertain_count}, pinned {LARGE_M_UNCERTAIN[label]}")
            scale = abs(r.negative_range[0])
            if not r.residual_bound <= RESIDUAL_REL_MAX * scale:
                problems.append(f"m={m}: residual_bound {r.residual_bound:g} not far below |lambda_min| {scale:g}")
        counts = [r.galerkin_k for r in reports]
        if counts != sorted(counts):
            problems.append(f"galerkin_k decreased as m grew: {counts}")
        return problems


def make(name: str, lib: SimpleNamespace, seed: int, cache_dir: Path) -> Workload:
    if name == "catalog":
        return CatalogWorkload(lib, seed)
    if name == "cache_warm":
        return CacheWarmWorkload(lib, seed, cache_dir)
    if name == "large_m":
        return LargeMWorkload(lib, seed)
    raise ValueError(f"unknown workload {name!r}")
