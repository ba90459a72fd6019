#!/usr/bin/env python3
"""Benchmark of the wente-index library: end-to-end timings, or per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Everything the
run writes goes to ``.perfbench_run/`` under the repository root. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("catalog", "large_m", "cache_warm")
SETUP_RUNS = 3  # this process plus two fresh interpreters; setup_s is their median
MIN_PASSES = 2
TIME_LIMIT_S = 150.0  # a pass that would end later than this is not started
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"sweep_s": "s", "op_s.p50": "s", "op_s.tail": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "surface.potential_grid_s": "s",
    "surface.grid_points": "count",
    "assembly.sample_s": "s",
    "assembly.sample_calls": "count",
    "assembly.transform_flops": "flop",
    "assembly.grid_mb": "MB",
    "assembly.cache_s": "s",
    "assembly.cache_hits": "count",
    "assembly.cache_misses": "count",
    "assembly.cache_bytes": "bytes",
    "assembly.assemble_s": "s",
    "assembly.entries_computed": "count",
    "assembly.useful_entry_frac": "ratio",
    "basis.enumerate_s": "s",
    "basis.enumerate_calls": "count",
    "spectrum.eigen_s": "s",
    "spectrum.eigen_calls": "count",
    "spectrum.eigen_flops": "flop",
    "bounds.sandwich_s": "s",
    "bounds.subspace_s": "s",
    "bounds.subspace_calls": "count",
    "bounds.report_self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
}
# Printed with the traced run but kept out of the result object: each is
# exactly zero on some workload (no cache, or no CLI on large_m).
PRINTED_ONLY = {
    "assembly.cache_read_s": "s",
    "assembly.cache_write_s": "s",
    "cli.self_s": "s",
    "layers.busy_s": "s",
    "trace.bookkeeping_s": "s",
    "trace.harness_s": "s",
    "trace.sweep_traced_s": "s",
    "trace.sweep_untraced_s": "s",
}
SETUP_PRINTED = ("assembly.cache_write_s", "assembly.cache_misses", "assembly.cache_bytes", "assembly.sample_calls")

LOAD_NOTE = (
    "one process, ops run one after another (closed loop, one client, --jobs 1), "
    "one BLAS thread <= nproc; nothing is queued, so no layer has a wait time to report"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1, help="permutes the op order within each pass")
    ap.add_argument("--seconds", type=float, default=12.0, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "load": LOAD_NOTE,
    }


def set_up(name: str, seed: int, cache_dir: Path, traced: bool = False):
    """Import, first LAPACK call, warm-up pass, cache fill: everything setup_s pays.

    With ``traced``, the set-up's ops run under a tracer, which is returned
    (else None) with its wrappers removed again.
    """
    shutil.rmtree(cache_dir, ignore_errors=True)
    start = time.perf_counter()
    lib = workloads.load_library(SRC)
    workload = workloads.make(name, lib, seed, cache_dir)
    tracer = None
    if traced:
        tracer = spans.Tracer(lib)
        workload.on_op = tracer.begin_op
        tracer.install()
    try:
        outcomes = workload.set_up()
    finally:
        if tracer is not None:
            tracer.restore()
    return lib, workload, tracer, outcomes, time.perf_counter() - start


def setup_only(args, cache_dir: Path) -> int:
    _, _, _, outcomes, seconds = set_up(args.workload, args.seed, cache_dir)
    report_failures(outcomes)
    failed = sum(o.failed for o in outcomes)
    print(json.dumps({"setup_s": seconds, "attempted": len(outcomes), "failed": failed}))
    return 0


def setup_in_child(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=TIME_LIMIT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"setup_s": None, "attempted": 1, "failed": 1}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report_failures(outcomes) -> None:
    for out in outcomes:
        if out.failed:
            why = out.error or "; ".join(out.problems)
            print(f"FAILED {out.key}: {why}", file=sys.stderr)


def timed_passes(workload, seconds: float, process_start: float, traced=None):
    """Whole passes until ``seconds`` have gone by (at least MIN_PASSES).

    With ``traced`` (a Tracer), untraced and traced passes alternate and each
    traced pass also returns the range of spans it recorded.
    """
    passes = []
    start = time.perf_counter()
    while True:
        wall, outcomes = workload.run_pass()
        passes.append({"wall": wall, "outcomes": outcomes, "traced": False})
        if traced is not None:
            first = len(traced.spans)
            traced.phase = f"pass{len(passes)}"
            traced.install()
            try:
                wall, outcomes = workload.run_pass()
            finally:
                traced.restore()
            passes.append({"wall": wall, "outcomes": outcomes, "traced": True, "spans": range(first, len(traced.spans))})
        now = time.perf_counter()
        enough = len(passes) >= MIN_PASSES and now - start >= seconds
        if enough or now - process_start + wall > TIME_LIMIT_S:
            return passes


def end_to_end(passes, setup_samples) -> tuple[dict, dict]:
    walls = [p["wall"] for p in passes]
    ops = [o.seconds for p in passes for o in p["outcomes"]]
    tail_value, tail_pct = tail(ops)
    setups = [s for s in setup_samples if s is not None]
    metrics = {
        "sweep_s": statistics.median(walls),
        "op_s.p50": statistics.median(ops),
        "op_s.tail": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    details = {
        "sweep_s": f"median of {len(walls)} passes",
        "op_s.p50": f"n={len(ops)}",
        "op_s.tail": f"p{tail_pct:.1f}, n={len(ops)}",
        "peak_rss_mb": "ru_maxrss of this process",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
    }
    return metrics, details


def per_layer(tracer, passes) -> tuple[dict, dict]:
    """Medians over the traced passes, and the traced set-up's cache figures."""
    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        m = spans.layer_metrics(tracer.spans, list(p["spans"]))
        m["cli.stdout_bytes"] = sum(len(o.output) for o in p["outcomes"] if isinstance(o.output, str))
        m["trace.harness_s"] = p["wall"] - m["layers.busy_s"] - m["trace.bookkeeping_s"]
        per_pass.append(m)
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["trace.sweep_traced_s"] = statistics.median(p["wall"] for p in traced)
    metrics["trace.sweep_untraced_s"] = statistics.median(p["wall"] for p in passes if not p["traced"])
    metrics["trace.overhead_s"] = metrics["trace.sweep_traced_s"] - metrics["trace.sweep_untraced_s"]
    setup = spans.layer_metrics(tracer.spans, [i for i, span in enumerate(tracer.spans) if span.op.startswith("setup:")])
    return metrics, {key: setup[key] for key in SETUP_PRINTED}


def print_table(rows) -> None:
    for name, value, unit, detail in rows:
        print(f"  {name:<28} {value:>16.6g} {unit:<6} {detail}")


def run_one(args) -> int:
    process_start = time.perf_counter()
    # A fixed name keeps the --cache-dir the reports print the same from run
    # to run; runs in one checkout therefore go one at a time.
    cache_dir = RUN_DIR / "cache"
    try:
        if args.setup_only:
            return setup_only(args, cache_dir)
        attempted = failed = 0
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                child = setup_in_child(args)
                setup_samples.append(child["setup_s"])
                attempted += child["attempted"]
                failed += child["failed"]

        lib, workload, tracer, outcomes, seconds = set_up(args.workload, args.seed, cache_dir, bool(args.trace))
        setup_samples.append(seconds)
        all_outcomes = list(outcomes)
        passes = timed_passes(workload, args.seconds, process_start, tracer)
        for p in passes:
            all_outcomes += p["outcomes"]
        report_failures(all_outcomes)
        attempted += len(all_outcomes)
        failed += sum(o.failed for o in all_outcomes)
        env = environment(lib.np)

        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
        print("env " + json.dumps(env, sort_keys=True))
        if args.trace:
            metrics, setup_layers = per_layer(tracer, passes)
            units = {**PER_LAYER, **PRINTED_ONLY}
            print_table((k, metrics[k], u, "") for k, u in units.items())
            print_table((f"setup.{k}", v, units[k], "set-up, traced") for k, v in setup_layers.items())
            tracer.dump(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
            reported = PER_LAYER
        else:
            metrics, details = end_to_end(passes, setup_samples)
            print_table((k, metrics[k], u, details[k]) for k, u in END_TO_END.items())
            reported = END_TO_END
        print_table([("fail_frac", failed / attempted, "ratio", f"{failed}/{attempted} ops failed")])

        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in reported.items()},
        }
        record = {
            **result,
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "env": env,
            "all_metrics": metrics,
            "setup_samples": setup_samples,
            "passes": [
                {"traced": p["traced"], "wall": p["wall"], "ops": [[str(o.key), o.seconds] for o in p["outcomes"]]}
                for p in passes
            ],
        }
        (RUN_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wente_index" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    # The CLI would otherwise read a cache named by the caller's environment.
    os.environ.pop("WENTE_CACHE_DIR", None)
    # One BLAS thread, set before numpy loads: on a small shared host a second
    # BLAS thread makes small ops swing between two speeds from run to run.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    RUN_DIR.mkdir(exist_ok=True)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
