"""Command-line front end: reports, reference-table diffs, cache management.

Subcommands:

    report    full bound report + Galerkin estimate for one surface or all
    bounds    analytic bounds only (no matrix assembly); fast
    table2    computed geometry/bounds columns diffed against reference rows
    table3    computed Galerkin estimates diffed against reference rows
    subspace  negative-definiteness verdict + matrix dump for a basis choice
    cache     inspect or clear cached potential coefficient tables

Each subcommand accepts only the options it reads; _COMMANDS lists them.
Every payload carries schema_version and version.  Its config echoes the
command's --surface, -H, --format and --cache-dir, plus --m, --grid and
--zero-tol for report and table3 and the index list for subspace; it does
not echo --theta, subspace --grid or --jobs.  Identical configurations
produce byte-identical output (no timestamps, sorted keys), whether or not
the coefficient cache was warm.  JSON is strict: a non-finite float is
written as null.  The cache directory comes from --cache-dir
or the WENTE_CACHE_DIR variable.

Exit codes: 0 success, 1 a numerical fault (inconsistent bounds, a failed
eigensolve, a coefficient outside the table), 2 a usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import __version__
from .assembly import DEFAULT_GRID, AssemblyConfig, NyquistError, read_field_cache
from .bounds import (
    SUBSPACE_SETS,
    ConsistencyError,
    courant_bound,
    full_report,
    potential_sandwich,
    subspace_bound,
)
from .reference import REFERENCE_ESTIMATES, REFERENCE_GEOMETRY, estimate_row
from .surface import CATALOG, ParameterError, build_surface, potential_extrema

SCHEMA_VERSION = 4
ENV_CACHE_DIR = "WENTE_CACHE_DIR"

# Diff tolerances for the reference tables (matching the precision at which
# the reference values were printed).
TOL_PERIOD = 0.01  # absolute, two printed decimals
TOL_VMAX_REL = 1e-3
TOL_RANGE_REL = 0.02


class UsageError(Exception):
    pass


def _parse_surface(text: str) -> tuple[int, int]:
    parts = text.split("/")
    if len(parts) != 2:
        raise UsageError(f"surface must look like 'l/n', got {text!r}")
    try:
        ell, n = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UsageError(f"surface must be two integers, got {text!r}") from exc
    return ell, n


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _zero_tol(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"zero_tol must be a finite number >= 0, got {value}")
    return value


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.split("x", 1) if "x" in text else (text, text)
    nx, ny = int(parts[0]), int(parts[1])
    if any(n < 64 or n & (n - 1) for n in (nx, ny)):
        raise argparse.ArgumentTypeError(f"grid sizes must be powers of two >= 64, got {text}")
    return nx, ny


def _selected_surfaces(args) -> list[tuple[int, int]]:
    if args.surface == "all":
        return [(ell, n) for ell, n, _ in CATALOG]
    return [_parse_surface(args.surface)]


def _run_config(args, **extra) -> dict:
    """The command's own options among surface, H, format and cache_dir, plus extra."""
    keys = ("surface", "H", "format", "cache_dir")
    return {k: getattr(args, k) for k in keys if hasattr(args, k)} | extra


def _cache_dir(args) -> Path | None:
    target = args.cache_dir or os.environ.get(ENV_CACHE_DIR)
    return Path(target) if target else None


def _assembly_config(args) -> AssemblyConfig:
    nx, ny = args.grid or (DEFAULT_GRID, DEFAULT_GRID)
    return AssemblyConfig(nx=nx, ny=ny, cache_dir=_cache_dir(args))


def _fan_out(jobs: int, one, items: list) -> list:
    """one(item) for each item on up to jobs threads, results in input order."""
    workers = min(jobs, len(items))
    if workers <= 1:
        return [one(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, items))


def _emit(args, payload: dict, text_renderer) -> None:
    payload = {"schema_version": SCHEMA_VERSION, "version": __version__, **payload}
    if args.format == "json":
        print(json.dumps(_finite(payload), indent=2, sort_keys=True, allow_nan=False))
    elif args.format == "csv":
        print(_render_csv(payload), end="")
    else:
        print(text_renderer(payload))


def _finite(value):
    """value with every non-finite float, in any nesting of dicts and lists, as None."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _render_csv(payload: dict) -> str:
    rows = payload.get("rows") or payload.get("reports") or [payload]
    flat_rows = [_flatten(r) for r in rows]
    fields = sorted({k for r in flat_rows for k in r})
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=fields)
    writer.writeheader()
    for r in flat_rows:
        writer.writerow(r)
    return out.getvalue()


def _flatten(obj: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in obj.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, name + "."))
        elif isinstance(value, (list, tuple)):
            flat[name] = ";".join(_fmt6(v) if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, float):
            flat[name] = _fmt6(value)
        else:
            flat[name] = value
    return flat


def _fmt6(x: float) -> str:
    return f"{x:.6g}"


# --- report ----------------------------------------------------------------

def cmd_report(args) -> int:
    surfaces = _selected_surfaces(args)
    cfg = _assembly_config(args)

    def one(label):
        ell, n = label
        p = build_surface(ell, n, args.H, args.theta)
        return full_report(p, args.m, cfg, zero_tol=args.zero_tol).to_dict()

    reports = _fan_out(args.jobs, one, surfaces)
    payload = {
        "config": _run_config(args, m=args.m, grid=args.grid, zero_tol=args.zero_tol),
        "reports": reports,
    }
    _emit(args, payload, _render_report_text)
    return 0


def _render_report_text(payload: dict) -> str:
    lines = []
    for r in payload["reports"]:
        lines.append(f"surface {r['surface']}  (H={_fmt6(r['H'])}, m={r['m_used']})")
        lines.append(f"  nodal-domain lower bound : {r['courant_lower']}")
        lines.append(f"  sandwich bounds          : {r['sandwich_lower']} .. {r['sandwich_upper']}")
        if r["subspace_lower"] is not None:
            lines.append(f"  certified subspace bound : {r['subspace_lower']}")
        lines.append(f"  negative eigenvalues     : {r['galerkin_k']}")
        lines.append(
            "  index estimate           : {} or {}".format(r["index_estimate"][0], r["index_estimate"][1])
        )
        lines.append(
            "  negative range           : ({}, {})".format(
                _fmt6(r["negative_range"][0]), _fmt6(r["negative_range"][1])
            )
        )
        lines.append(
            "  first six positive       : ({}, {})".format(
                _fmt6(r["first_positive_six"][0]), _fmt6(r["first_positive_six"][1])
            )
        )
        for note in r["notes"]:
            lines.append(f"  note: {note}")
    return "\n".join(lines)


# --- bounds ----------------------------------------------------------------

def _bound_values(p) -> dict:
    """Periods, potential extrema and analytic bounds: the columns of bounds and table2."""
    v_min, v_max = potential_extrema(p)
    sandwich = potential_sandwich(p)
    return {
        "x_period": p.x_period,
        "y_period": p.y_period,
        "v_min": v_min,
        "v_max": v_max,
        "courant_lower": courant_bound(p.ell, p.n),
        "sandwich_lower": sandwich.lower,
        "sandwich_upper": sandwich.upper,
    }


def cmd_bounds(args) -> int:
    surfaces = [build_surface(ell, n, args.H, args.theta) for ell, n in _selected_surfaces(args)]
    rows = [{"surface": p.label, **_bound_values(p)} for p in surfaces]
    payload = {
        "config": _run_config(args),
        "rows": rows,
    }
    _emit(args, payload, _render_bounds_text)
    return 0


def _render_bounds_text(payload: dict) -> str:
    header = f"{'surface':>8} {'x':>8} {'y':>8} {'V_min':>8} {'V_max':>10} {'nodal':>6} {'lo':>6} {'hi':>6}"
    lines = [header]
    for r in payload["rows"]:
        lines.append(
            f"{r['surface']:>8} {_fmt6(r['x_period']):>8} {_fmt6(r['y_period']):>8} "
            f"{_fmt6(r['v_min']):>8} {_fmt6(r['v_max']):>10} "
            f"{r['courant_lower']:>6} {r['sandwich_lower']:>6} {r['sandwich_upper']:>6}"
        )
    return "\n".join(lines)


# --- table2 ----------------------------------------------------------------

def cmd_table2(args) -> int:
    rows = []
    for ref in REFERENCE_GEOMETRY:
        ell, n = _parse_surface(ref.surface)
        computed = _bound_values(build_surface(ell, n, args.H))
        checks = {
            "x_period": abs(computed["x_period"] - ref.x_period) <= TOL_PERIOD,
            "y_period": abs(computed["y_period"] - ref.y_period) <= ref.y_tolerance,
            "v_min": abs(computed["v_min"] - ref.v_min) <= 1e-12,
            "v_max": abs(computed["v_max"] - ref.v_max) <= TOL_VMAX_REL * ref.v_max,
            "courant_lower": computed["courant_lower"] == ref.courant_lower,
            "sandwich_lower": computed["sandwich_lower"] == ref.sandwich_lower,
            "sandwich_upper": computed["sandwich_upper"] == ref.sandwich_upper,
        }
        rows.append(_diff_row(ref.surface, computed, ref._asdict(), checks))
    payload = {
        "config": _run_config(args),
        "rows": rows,
        "all_pass": all(r["all_pass"] for r in rows),
    }
    _emit(args, payload, _render_diff_text)
    return 0


def _diff_row(surface: str, computed: dict, reference: dict, checks: dict) -> dict:
    """One table row: both sides, the per-cell verdicts and the row verdict."""
    return {
        "surface": surface,
        "computed": computed,
        "reference": reference,
        "pass": checks,
        "all_pass": all(checks.values()),
    }


def _diff_listing(payload: dict, headline) -> str:
    """Each row's headline with ok or DIFF, then its failed cells; the table verdict last."""
    lines = []
    for r in payload["rows"]:
        lines.append(f"{headline(r)}  {'ok' if r['all_pass'] else 'DIFF'}")
        lines += [
            f"          {key}: computed={r['computed'][key]!r} reference={r['reference'][key]!r}"
            for key, ok in r["pass"].items()
            if not ok
        ]
    lines.append("all rows pass" if payload["all_pass"] else "some cells differ")
    return "\n".join(lines)


def _render_diff_text(payload: dict) -> str:
    return _diff_listing(payload, lambda r: f"{r['surface']:>8}")


# --- table3 ----------------------------------------------------------------

def _range_ok(computed: tuple[float, float], ref: tuple[float, float]) -> bool:
    return all(
        abs(c - r) <= TOL_RANGE_REL * abs(r) for c, r in zip(computed, ref)
    )


def cmd_table3(args) -> int:
    if args.surface == "all":
        refs = list(REFERENCE_ESTIMATES)
    else:
        label = "{}/{}".format(*_parse_surface(args.surface))
        try:
            refs = [estimate_row(label)]
        except KeyError:
            known = ", ".join(ref.surface for ref in REFERENCE_ESTIMATES)
            raise UsageError(f"no reference row for {label}; table3 has rows for {known}") from None
    cfg = _assembly_config(args)

    def one(ref):
        ell, n = _parse_surface(ref.surface)
        p = build_surface(ell, n, args.H)
        report = full_report(p, args.m, cfg, zero_tol=args.zero_tol)
        checks = {
            "galerkin_k": report.galerkin_k == ref.galerkin_k,
            "negative_range": _range_ok(report.negative_range, ref.negative_range),
            "first_positive_six": _range_ok(report.first_positive_six, ref.first_positive_six),
        }
        if ref.subspace_lower is not None:
            checks["subspace_lower"] = report.subspace_lower == ref.subspace_lower
        reference = {
            "subspace_lower": ref.subspace_lower,
            "galerkin_k": ref.galerkin_k,
            "m": ref.m,
            "negative_range": list(ref.negative_range),
            "first_positive_six": list(ref.first_positive_six),
        }
        return _diff_row(ref.surface, report.to_dict(), reference, checks)

    rows = _fan_out(args.jobs, one, refs)
    payload = {
        "config": _run_config(args, m=args.m, grid=args.grid, zero_tol=args.zero_tol),
        "rows": rows,
        "all_pass": all(r["all_pass"] for r in rows),
    }
    _emit(args, payload, _render_table3_text)
    return 0


def _render_table3_text(payload: dict) -> str:
    def headline(r):
        c = r["computed"]
        return (
            f"{r['surface']:>8}  m={c['m_used']:<4d} k={c['galerkin_k']:<4d} "
            f"neg=({_fmt6(c['negative_range'][0])}, {_fmt6(c['negative_range'][1])}) "
            f"six=({_fmt6(c['first_positive_six'][0])}, {_fmt6(c['first_positive_six'][1])})"
        )

    return _diff_listing(payload, headline)


# --- subspace ----------------------------------------------------------------

def cmd_subspace(args) -> int:
    ell, n = _parse_surface(args.surface)
    p = build_surface(ell, n, args.H, args.theta)
    if args.indices == "published":
        if p.label not in SUBSPACE_SETS:
            raise UsageError(f"no published index set for {p.label}")
        indices = SUBSPACE_SETS[p.label]
    else:
        try:
            indices = tuple(int(tok) for tok in args.indices.split(",") if tok.strip())
        except ValueError as exc:
            raise UsageError(f"bad index list {args.indices!r}") from exc
    verdict = subspace_bound(p, indices, _assembly_config(args))
    payload = {
        "config": _run_config(args, indices=list(indices)),
        "surface": p.label,
        "indices": list(indices),
        "negative_definite": verdict.negative_definite,
        "implied_lower": verdict.implied_lower,
        "max_eigenvalue": verdict.max_eigenvalue,
        "matrix": [[float(v) for v in row] for row in verdict.matrix],
        "matrix_3sf": [[float(f"{v:.3g}") for v in row] for row in verdict.matrix],
    }
    _emit(args, payload, _render_subspace_text)
    return 0


def _render_subspace_text(payload: dict) -> str:
    lines = [
        f"surface {payload['surface']}  indices {payload['indices']}",
        f"negative definite : {payload['negative_definite']}",
        f"implied lower bound: {payload['implied_lower']}",
        f"largest eigenvalue : {_fmt6(payload['max_eigenvalue'])}",
        "matrix (3 significant figures):",
    ]
    for row in payload["matrix_3sf"]:
        lines.append("  " + " ".join(f"{v:9.3g}" for v in row))
    return "\n".join(lines)


# --- cache -------------------------------------------------------------------

def cmd_cache(args) -> int:
    directory = _cache_dir(args)
    if directory is None:
        raise UsageError(f"no cache directory; pass --cache-dir or set {ENV_CACHE_DIR}")
    try:
        entries = sorted(path for path in directory.iterdir() if path.name.endswith(".wntpot") and path.is_file())
    except FileNotFoundError:
        entries = []
    except OSError as exc:
        raise UsageError(f"cache directory {directory} is unusable: {exc.strerror}") from exc
    if args.action == "inspect":
        rows = []
        for path in entries:
            try:
                fld = read_field_cache(path)
            except (OSError, ValueError) as exc:
                # reports treat such a file as a miss and rewrite it
                rows.append({"file": path.name, "unreadable": str(exc)})
                continue
            rows.append(
                {
                    "file": path.name,
                    "surface": fld.surface.label,
                    "H": fld.surface.H,
                    "theta_degrees": fld.surface.theta_degrees,
                    "nx": fld.nx,
                    "ny": fld.ny,
                    "coefficients": list(fld.coeffs.shape),
                }
            )
        payload = {
            "cache_dir": str(directory),
            "rows": rows,
        }
        _emit(args, payload, _render_cache_text)
        return 0
    try:
        for path in entries:
            path.unlink()
    except OSError as exc:
        raise UsageError(f"cache directory {directory} is unusable: {exc.strerror}") from exc
    print(f"removed {len(entries)} cached table(s) from {directory}")
    return 0


def _render_cache_text(payload: dict) -> str:
    lines = [
        f"{r['file']}  (unreadable: {r['unreadable']})" if "unreadable" in r else r["file"]
        for r in payload["rows"]
    ]
    return "\n".join(lines) or "(empty)"


# --- parser ------------------------------------------------------------------

# Every option a subcommand can take, spelled once.
_OPTIONS = {
    "surface": (("--surface",), dict(default="all", help="surface label l/n, or 'all'")),
    "H": (("-H", "--mean-curvature"), dict(dest="H", type=float, default=0.5)),
    "theta": (("--theta",), dict(type=float, default=None, help="override the catalogued angle (degrees)")),
    "format": (("--format",), dict(choices=("json", "csv", "text"), default="json")),
    "cache_dir": (("--cache-dir",), dict(default=None)),
    "jobs": (("--jobs",), dict(type=_positive_int, default=min(4, os.cpu_count() or 1))),
    "grid": (("--grid",), dict(type=_parse_grid, default=None,
                               help=f"N or NXxNY samples per period cell of V (default {DEFAULT_GRID})")),
    "m": (("--m",), dict(type=_positive_int, default=None, help="truncation size (default: reference size)")),
    "zero_tol": (("--zero-tol",), dict(type=_zero_tol, default=None)),
    "indices": (("--indices",), dict(default="published", help="comma list of 1-based indices, or 'published'")),
    "action": (("action",), dict(choices=("inspect", "clear"))),
}

# Every subcommand, spelled once: name -> (handler, help, its options in help order).
_COMMANDS = {
    "report": (cmd_report, "full report per surface",
               ("surface", "H", "theta", "format", "cache_dir", "jobs", "grid", "m", "zero_tol")),
    "bounds": (cmd_bounds, "analytic bounds only", ("surface", "H", "theta", "format")),
    "table2": (cmd_table2, "diff geometry and bounds against reference", ("H", "format")),
    "table3": (cmd_table3, "diff Galerkin estimates against reference",
               ("surface", "H", "format", "cache_dir", "jobs", "grid", "m", "zero_tol")),
    "subspace": (cmd_subspace, "negative definiteness of a basis selection",
                 ("surface", "H", "theta", "format", "cache_dir", "grid", "indices")),
    "cache": (cmd_cache, "inspect or clear the coefficient cache", ("action", "format", "cache_dir")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wente-index",
        description="Morse index bounds and Galerkin estimates for symmetric Wente tori",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for option in options:
            flags, kwargs = _OPTIONS[option]
            sub.add_argument(*flags, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; each distinct warning it raised goes to stderr as one line, before any error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        try:
            code, error = _COMMANDS[args.command][0](args), None
        except (UsageError, ParameterError, NyquistError) as exc:
            code, error = 2, exc
        except (ConsistencyError, ValueError) as exc:
            # a numerical fault; LinAlgError and CoefficientRangeError are ValueErrors
            code, error = 1, exc
    for record in caught:
        print(f"warning: {record.message}", file=sys.stderr)
    if code == 2:
        parser.exit(2, f"error: {error}\n")
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
