"""Measuring and reporting for the benchmark; `run.py` is the entry point.

Untraced runs give the end-to-end metrics, traced runs the per-layer ones,
and `smoke` checks that every metric is printed with its unit.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import SpanTable, Tracer, instrument
from workloads import (
    OUTPUT_DIR,
    REFERENCE_S,
    TRACED_MODULES,
    TRACED_NAMESPACES,
    WORKLOADS,
    Recorder,
    SpeedLog,
    child_env,
    clear_build_cache,
    cli,
    tag,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_PER_PASS = 2
IMPORT_REPEATS = 5
PERCENTILES = (99.9, 99.0, 90.0, 50.0)
CLI_NAMES = tuple(name for cls in WORKLOADS.values() for name in cls.cli_names)
SAMPLE_TAGS = [tag(f, n) for f, n in WORKLOADS["fuzz"].sample_types]
OPTIMIZE_TAGS = [tag(f, n) for f, n in WORKLOADS["probe"].optimize_types]
KERNELS = WORKLOADS["probe"].KERNELS

END_TO_END = {"setup_s": "s", "wall_s": "s", "cli_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "roots.build_s": "s",
    "roots.identity_s": "s",
    "roots.positive_roots": "count",
    "roots.self_s": "s",
    **{f"stability.{k}_us": "us" for k in KERNELS},
    "stability.calls": "count",
    "stability.self_s": "s",
    **{f"search.sample_s.{t}": "s" for t in SAMPLE_TAGS},
    **{f"search.sample_ns_per_charge.{t}": "ns" for t in SAMPLE_TAGS},
    **{f"search.optimize_restart_s.{t}": "s" for t in OPTIMIZE_TAGS},
    "search.violations": "count",
    "search.self_s": "s",
    "actions.exchange_graph_s": "s",
    "actions.simple_tilt_us": "us",
    "actions.nodes": "count",
    "actions.edges": "count",
    "actions.to_json_s": "s",
    "actions.to_dot_s": "s",
    "actions.export_bytes": "bytes",
    "actions.equivariance_s": "s",
    "actions.self_s": "s",
    "milnor.validate_us": "us",
    "milnor.correspond_us": "us",
    "milnor.poly_roots_us": "us",
    "milnor.self_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    **{f"cli.main_s.{c}": "s" for c in CLI_NAMES},
    **{f"cli.self_s.{c}": "s" for c in CLI_NAMES},
    **{f"cli.output_bytes.{c}": "bytes" for c in CLI_NAMES},
    "trace.overhead_s": "s",
}

LAYERS = ("roots", "stability", "actions", "search", "milnor", "cli")


# ---------------------------------------------------------------- statistics


def summary(samples) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs), "n": len(xs)}
    for p in PERCENTILES:
        if len(xs) * (100.0 - p) / 100.0 >= 10:
            out[f"p{p:g}"] = xs[math.ceil(p / 100.0 * len(xs)) - 1]
            break
    return out


def describe(name: str, unit: str, samples) -> str:
    s = summary(samples)
    extra = [f"{k} {v:.6g} {unit}" for k, v in s.items() if k.startswith("p")]
    tail = ", ".join(extra) if extra else "no percentile has 10 samples beyond it"
    return f"  {name:<36} median {s['median']:.6g} {unit}  ({tail}; n={s['n']})"


def describe_scaled(name: str, unit: str, scaled, raw) -> str:
    """The scaled samples as `describe` gives them, then the raw median."""
    return f"{describe(name, unit, scaled)}; raw median {statistics.median(raw):.6g} {unit}"


# --------------------------------------------------------------- environment


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads64_", "openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "adesystole").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": openblas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "cpu": cpu,
        "host": platform.node(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


# ------------------------------------------------------------------ set-up


def fresh_process_seconds(code: str) -> float:
    """Run `code` in a fresh interpreter; it prints one number of seconds."""
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(str(ROOT)),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def setup_seconds(types) -> float:
    """Import adesystole and build `types` from a cold cache, in a fresh process."""
    code = (
        "import time\nt = time.perf_counter()\nimport adesystole\n"
        f"for f, n in {list(types)!r}:\n"
        "    adesystole.build_root_system(adesystole.AdeType(f, n))\n"
        "print(time.perf_counter() - t)\n"
    )
    return fresh_process_seconds(code)


def import_seconds() -> float:
    code = "import time\nt = time.perf_counter()\nimport adesystole.cli\nprint(time.perf_counter() - t)\n"
    return fresh_process_seconds(code)


def own_peak_mb() -> float:
    """Peak resident memory of this process (VmHWM where /proc has it), in MB."""
    try:
        with open("/proc/self/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------------ passes


class Totals:
    """Operations attempted and failed over a whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, rec) -> None:
        self.attempted += rec.attempted
        self.failed += rec.failed

    def guarded(self, what: str, fn, *args):
        """Call fn; an exception counts as one failed operation and gives None."""
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - a failing operation must not stop the run
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            print(f"operation failed: {what}", file=sys.stderr)
            return None


def timed_pass(workload, totals: Totals, tracer=None, speed=None):
    """One pass of the workload; None if it raised."""
    rec = Recorder(str(ROOT), tracer, speed)
    try:
        workload.run_pass(rec)
        return rec
    except Exception:  # noqa: BLE001 - count the broken pass and carry on
        traceback.print_exc()
        rec.check(False, f"{workload.name} pass raised")
        return None
    finally:
        totals.add(rec)


def until_deadline(seconds: float, step):
    """Call step(cpu) at least once, and again while the next call fits in `seconds`.

    Each call runs pinned to one CPU, taking the allowed CPUs in turn; the
    processes it starts inherit the pinning.
    """
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    try:
        for k in itertools.count():
            cpu = cpus[k % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            t0 = perf_counter()
            step(cpu)
            last = perf_counter() - t0
            if perf_counter() - start + last > seconds:
                return
    finally:
        os.sched_setaffinity(0, cpus)


def measure(workload, seconds: float, totals: Totals, lines: list[str], timings_out: Path) -> dict:
    """Untraced run: timed passes until the deadline, each followed by set-up timings.

    Every timed block of a pass and every set-up is scaled to reference
    speed (see `workloads.SpeedLog`), and a metric is the median of the
    scaled samples over the run.  The raw medians are printed beside them,
    and the raw timings are written to `timings_out`.
    """
    names = ("setup_s", "wall_s", "cli_s")
    speed = SpeedLog()
    recs, setups = [], []
    children = [0.0]

    def step(cpu):
        rec = timed_pass(workload, totals, speed=speed)
        if rec is not None:
            recs.append(rec)
            children.append(rec.counts["cli_peak_kb"] / 1024.0)
        for _ in range(SETUP_PER_PASS):
            speed.sample()
            t0 = perf_counter()
            setup = totals.guarded("set-up", setup_seconds, workload.setup_types)
            if setup is not None:
                setups.append((t0, setup))

    until_deadline(seconds, step)
    speed.sample()
    write_timings(timings_out, speed, recs, setups)
    own, children = own_peak_mb(), max(children)
    if not (setups and recs):
        return {}
    raw = {
        "setup_s": [dt for _, dt in setups],
        "wall_s": [rec.wall for rec in recs],
        "cli_s": [rec.section_sum("cli.") for rec in recs],
    }
    for rec in recs:
        rec.rescale()
    samples = {
        "setup_s": [speed.scale(t0, dt) for t0, dt in setups],
        "wall_s": [rec.scaled_sum() for rec in recs],
        "cli_s": [rec.scaled_sum("cli.") for rec in recs],
    }
    throughputs = [workload.pass_throughputs(rec) for rec in recs]
    metrics = {name: statistics.median(samples[name]) for name in names}
    metrics["peak_rss_mb"] = max(own, children)
    lines.append(f"end-to-end metrics, workload {workload.name} (times at reference speed):")
    for name in names:
        lines.append(describe_scaled(name, END_TO_END[name], samples[name], raw[name]))
    lines.append(f"  {'peak_rss_mb':<36} {metrics['peak_rss_mb']:.6g} MB")
    for name, unit in workload.throughputs.items():
        lines.append(describe(name, unit, [t[name] for t in throughputs]))
    ratio = totals.failed / totals.attempted if totals.attempted else 1.0
    lines.append(f"  {'failed_ratio':<36} {ratio:.6g} ratio  ({totals.failed} failed of {totals.attempted} attempted)")
    lines.append(f"  {'peak_rss_mb.self':<36} {own:.6g} MB")
    lines.append(f"  {'peak_rss_mb.cli_children':<36} {children:.6g} MB")
    lines.append(describe("reference_ms", "ms", [t * 1e3 for t in speed.refs])
                 + f"; reference speed is {REFERENCE_S * 1e3:g} ms")
    lines.append("sections of a pass, raw (oracle checks excluded):")
    for name in recs[0].sections:
        lines.append(describe(f"section.{name}", "s", [rec.sections.get(name, 0.0) for rec in recs]))
    lines.append(f"  raw timings written to {timings_out.relative_to(ROOT)}")
    return metrics


def write_timings(path: Path, speed, recs, setups) -> None:
    """Reference samples, timed blocks of each pass and set-ups, as JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    data = {
        "reference_s": REFERENCE_S,
        "references": list(zip(speed.times, speed.refs)),
        "passes": [rec.blocks for rec in recs],
        "setups": setups,
    }
    path.write_text(json.dumps(data), encoding="utf-8")


def traced_cli(name: str, argv: list[str], totals: Totals):
    """Run one CLI command in process under a tracer, from a cold build cache."""
    tracer = Tracer()
    out = io.StringIO()
    clear_build_cache()
    with instrument(tracer, TRACED_MODULES, TRACED_NAMESPACES), contextlib.redirect_stdout(out):
        with tracer.span(f"bench.cli_in_process.{name}"):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
    totals.attempted += 1
    if code != 0:
        totals.failed += 1
        print(f"in-process cli {name} exited {code}", file=sys.stderr)
    return tracer, SpanTable(tracer), len(out.getvalue().encode())


def per_call_us(table, name: str) -> tuple[float, list[float]]:
    values = [d * 1e6 for d in table.durations(name)]
    return (statistics.median(values) if values else 0.0), values


def layer_metrics(workload, table, rec, cli_runs: dict) -> tuple[dict, dict]:
    """Per-layer values of one traced pass, and per-call samples for the report."""
    m = {name: 0 if unit in ("count", "bytes") else 0.0 for name, unit in PER_LAYER.items()}
    calls = {}
    m["roots.build_s"] = table.total("roots.build_root_system")
    m["roots.identity_s"] = table.total("roots.verify_volume_identity")
    m["roots.positive_roots"] = rec.counts["positive_roots"]
    kernel_calls = 0
    for kernel in KERNELS:
        m[f"stability.{kernel}_us"], calls[f"stability.{kernel}_us"] = per_call_us(table, f"stability.{kernel}")
        kernel_calls += table.count(f"stability.{kernel}")
    m["stability.calls"] = kernel_calls
    for family, rank, count, _ in getattr(workload, "samples", ()):
        t = tag(family, rank)
        m[f"search.sample_s.{t}"] = table.total("search.sample_ratios", parent=f"bench.sample.{t}")
        m[f"search.sample_ns_per_charge.{t}"] = m[f"search.sample_s.{t}"] / count * 1e9
    for family, rank, restarts, _ in getattr(workload, "optimize", ()):
        t = tag(family, rank)
        total = table.total("search.optimize_ratio", parent=f"bench.optimize.{t}")
        m[f"search.optimize_restart_s.{t}"] = total / restarts
    m["search.violations"] = rec.counts["violations"]
    m["actions.exchange_graph_s"] = table.total("actions.exchange_graph")
    m["actions.simple_tilt_us"], calls["actions.simple_tilt_us"] = per_call_us(table, "actions.simple_tilt")
    m["actions.nodes"] = rec.counts["nodes"]
    m["actions.edges"] = rec.counts["edges"]
    m["actions.to_json_s"] = table.total("actions.ExchangeGraph.to_json")
    m["actions.to_dot_s"] = table.total("actions.ExchangeGraph.to_dot")
    m["actions.export_bytes"] = rec.counts["export_bytes"]
    m["actions.equivariance_s"] = table.total("actions.verify_action_equivariance")
    for metric, fn in (("validate", "validate_configuration"), ("correspond", "verify_correspondence"),
                       ("poly_roots", "points_from_coefficients")):
        m[f"milnor.{metric}_us"], calls[f"milnor.{metric}_us"] = per_call_us(table, f"milnor.{fn}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = table.layer_self(layer) + sum(t.layer_self(layer) for t, _ in cli_runs.values())
    for name, (cli_table, size) in cli_runs.items():
        m[f"cli.main_s.{name}"] = cli_table.total("cli.main")
        m[f"cli.self_s.{name}"] = cli_table.layer_self("cli")
        m[f"cli.output_bytes.{name}"] = size
    return m, calls


def measure_traced(workload, seconds: float, totals: Totals, lines: list[str], spans_out: Path) -> dict:
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    untraced, traced, per_pass, all_calls, saved = [], [], [], {}, []

    def step(cpu):
        plain = timed_pass(workload, totals)
        tracer = Tracer()
        clear_build_cache()
        with instrument(tracer, TRACED_MODULES, TRACED_NAMESPACES):
            with tracer.span("bench.setup"):
                setup = Recorder(str(ROOT), tracer)
                totals.guarded("traced set-up", workload.setup, setup)
            rec = timed_pass(workload, totals, tracer)
        totals.add(setup)
        cli_runs = {}
        for name, argv in workload.cli_commands.items():
            cli_tracer, table, size = traced_cli(name, argv, totals)
            cli_runs[name] = (table, size)
            saved.append((f"cli.{name}", cli_tracer))
        saved.append(("pass", tracer))
        if plain is None or rec is None:
            return
        rec.counts["positive_roots"] += setup.counts["positive_roots"]
        untraced.append(plain.wall)
        traced.append(rec.wall)
        values, calls = layer_metrics(workload, SpanTable(tracer), rec, cli_runs)
        per_pass.append(values)
        for key, samples in calls.items():
            all_calls.setdefault(key, []).extend(samples)

    until_deadline(seconds, step)
    imports = [s for s in (totals.guarded("import", import_seconds) for _ in range(IMPORT_REPEATS)) if s is not None]
    write_spans(spans_out, saved)
    if not (per_pass and imports):
        return {}
    metrics = {
        name: (statistics.median_low if unit in ("count", "bytes") else statistics.median)(
            [p[name] for p in per_pass]
        )
        for name, unit in PER_LAYER.items()
    }
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    lines.append(f"per-layer metrics, workload {workload.name} ({len(per_pass)} traced passes):")
    for name, unit in PER_LAYER.items():
        if name in all_calls and all_calls[name]:
            lines.append(describe(name, unit, all_calls[name]))
        else:
            lines.append(f"  {name:<36} {metrics[name]:.6g} {unit}")
    lines.append(describe("wall_s.untraced", "s", untraced))
    lines.append(describe("wall_s.traced", "s", traced))
    lines.append(f"  spans written to {spans_out.relative_to(ROOT)}")
    return metrics


def write_spans(path: Path, saved) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {}
    for k, (label, tracer) in enumerate(saved):
        for key, value in tracer.arrays().items():
            arrays[f"{k}.{label}.{key}"] = value
    np.savez_compressed(path, **arrays)


# -------------------------------------------------------------------- main


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, list[str]]:
    """One run of a workload: the result object and the report lines."""
    totals = Totals()
    workload = WORKLOADS[workload_name](seed, tiny)
    lines = [f"workload {workload_name}, seed {seed}, seconds {seconds:g}, trace {int(trace)}",
             "environment: " + json.dumps(environment())]
    setup = Recorder(str(ROOT))
    totals.guarded("in-process set-up", workload.setup, setup)
    totals.add(setup)
    if trace:
        spans_out = ROOT / OUTPUT_DIR / f"spans-{workload_name}-seed{seed}.npz"
        metrics = measure_traced(workload, seconds, totals, lines, spans_out)
        units = PER_LAYER
    else:
        metrics = measure(workload, seconds, totals, lines, ROOT / OUTPUT_DIR / f"timings-{workload_name}-seed{seed}.json")
        units = END_TO_END
    result = {
        "correct": totals.failed == 0 and bool(metrics),
        "attempted": max(totals.attempted, 1),
        "failed": totals.failed if metrics else max(totals.failed, 1),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }
    return result, lines


def smoke() -> int:
    """Each workload once at tiny sizes, both modes; every metric printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name, cls in WORKLOADS.items():
        for trace in (0, 1):
            result, lines = run(name, 0, 0, bool(trace), tiny=True)
            print("\n".join(lines))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{name} trace {trace}: metrics {sorted(got.items())} != {sorted(wanted[trace].items())}")
            if not result["correct"]:
                problems.append(f"{name} trace {trace}: {result['failed']} of {result['attempted']} failed")
            text = "\n".join(lines)
            if not trace:
                for metric, unit in {**cls.throughputs, "failed_ratio": "ratio"}.items():
                    if not any(line.split()[:1] == [metric] and f" {unit}" in line for line in lines):
                        problems.append(f"{name}: {metric} not printed with unit {unit}")
            for metric, unit in wanted[trace].items():
                if f"{metric} " not in text:
                    problems.append(f"{name} trace {trace}: {metric} not printed")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


