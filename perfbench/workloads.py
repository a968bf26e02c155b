"""The three benchmark workloads and the oracles that check them.

Each workload is built from a seed, which fixes every input before any
timing starts.  `setup` builds the workload's root systems in process and
checks them; `run_pass` does one timed pass, timing each section and
checking every operation against an exact or closed-form oracle.  Checks
run outside the timed sections.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np

import adesystole
from adesystole import actions, cli, milnor, roots, search, stability

# The modules whose public functions are traced, and every namespace that
# holds references to those functions.
TRACED_MODULES = (roots, stability, actions, search, milnor, cli)
TRACED_NAMESPACES = (*TRACED_MODULES, adesystole)

# Clears the build_root_system cache; captured before any tracing wrapper replaces it.
clear_build_cache = roots.build_root_system.cache_clear

CLI_TIMEOUT_S = 120

# Where runs leave their files, relative to the checkout root.
OUTPUT_DIR = ".perfbench"

# What `python -m adesystole.cli` does, plus an exit hook that reports the
# process's own peak resident memory (VmHWM).  ru_maxrss of a child cannot
# be used: on Linux it also counts the parent's memory at spawn time.
CLI_LAUNCHER = """\
import atexit, runpy, sys
def report_peak():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    print("perfbench-vmhwm-kb", line.split()[1], file=sys.stderr)
    except OSError:
        pass
atexit.register(report_peak)
runpy.run_module("adesystole.cli", run_name="__main__", alter_sys=True)
"""

_E_WEYL_ORDER = {6: 51_840, 7: 2_903_040, 8: 696_729_600}

# The reference: a fixed mix of interpreter work, tiny numpy calls and a sort
# of a few MB, the three kinds of work the workloads do.  On a shared host a
# CPU's speed drifts by tens of percent within seconds.  So an untraced run
# times the reference before every timed section and every set-up, and scales
# each timing to a machine on which the reference takes REFERENCE_S, by the
# mean of the NEAREST reference times around it (see `SpeedLog`).
REFERENCE_S = 0.005
NEAREST = 4
_REF_SMALL = np.linspace(-1.0, 1.0, 64).reshape(8, 8)
_REF_LARGE = np.random.default_rng(0).standard_normal(400_000)


def reference_seconds() -> float:
    """Time the reference: the faster of two runs back to back.

    The first run after a child process exits finds the caches cold and is
    often half as slow again; the second run is not.
    """
    return min(_reference_run(), _reference_run())


def _reference_run() -> float:
    t0 = perf_counter()
    table, acc = {}, 0
    for i in range(12_000):
        table[i & 255] = acc
        acc += (i * 7) % 13
    x = _REF_SMALL
    for _ in range(40):
        x = np.abs(x @ _REF_SMALL).clip(0.0, 1.0) + x.sum(axis=0) * 1e-3
    np.sort(_REF_LARGE[::2])
    return perf_counter() - t0


class SpeedLog:
    """Reference times of one run, in the order they were taken."""

    def __init__(self):
        self.times: list[float] = []
        self.refs: list[float] = []

    def sample(self) -> None:
        self.times.append(perf_counter())
        self.refs.append(reference_seconds())

    def scale(self, start: float, seconds: float) -> float:
        """`seconds` timed from `start`, at reference speed."""
        mid = bisect.bisect(self.times, start + seconds / 2)
        lo = max(0, min(mid - NEAREST // 2, len(self.refs) - NEAREST))
        near = self.refs[lo:lo + NEAREST]
        return seconds * REFERENCE_S * len(near) / sum(near)


def weyl_order(family: str, rank: int) -> int:
    """|W| by the classical closed forms; a closed exchange graph has this many nodes."""
    if family == "A":
        return math.factorial(rank + 1)
    if family == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    return _E_WEYL_ORDER[rank]


def tag(family: str, rank: int) -> str:
    return f"{family}{rank}"


def build(family: str, rank: int):
    return roots.build_root_system(roots.AdeType(family, rank))


class Recorder:
    """Times the sections of one pass, counts work and checked operations."""

    def __init__(self, root: str, tracer=None, speed: SpeedLog | None = None):
        self.root = root
        self.tracer = tracer
        # When given, the reference is timed before each section, and each
        # timed block is kept as (section, start, seconds) for `rescale`.
        self.speed = speed
        self.blocks: list[tuple[str, float, float]] = []
        self.sections: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self.counts: Counter = Counter()
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def timed(self, name: str):
        if self.speed is not None:
            self.speed.sample()
        span = self.tracer.span(f"bench.{name}") if self.tracer else nullcontext()
        with span:
            t0 = perf_counter()
            try:
                yield
            finally:
                dt = perf_counter() - t0
                self.sections[name] = self.sections.get(name, 0.0) + dt
                self.blocks.append((name, t0, dt))

    def rescale(self) -> None:
        """Fill `scaled`: the sections at reference speed, once the run's references are in."""
        self.scaled = {}
        for name, t0, dt in self.blocks:
            self.scaled[name] = self.scaled.get(name, 0.0) + self.speed.scale(t0, dt)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def section_sum(self, prefix: str) -> float:
        return sum(t for name, t in self.sections.items() if name.startswith(prefix))

    def scaled_sum(self, prefix: str = "") -> float:
        """Like `section_sum`, over the sections scaled to reference speed."""
        return sum(t for name, t in self.scaled.items() if name.startswith(prefix))

    @property
    def wall(self) -> float:
        return sum(self.sections.values())

    def cli(self, name: str, argv: list[str]) -> bytes:
        """Run one CLI command in a fresh process, timed as section `cli.<name>`.

        Standard output goes to a file under the output directory, so the
        command never waits on this process reading a pipe.  Returns it.
        """
        out_path = os.path.join(self.root, OUTPUT_DIR, f"cli-{name}.out")
        os.makedirs(os.path.dirname(out_path), exist_ok=True)
        with open(out_path, "wb") as out, self.timed(f"cli.{name}"):
            proc = subprocess.run(
                [sys.executable, "-c", CLI_LAUNCHER, *argv],
                cwd=self.root,
                env=child_env(self.root),
                stdout=out,
                stderr=subprocess.PIPE,
                timeout=CLI_TIMEOUT_S,
            )
        with open(out_path, "rb") as out:
            stdout = out.read()
        self.counts[f"cli_output_bytes.{name}"] += len(stdout)
        for line in proc.stderr.decode(errors="replace").splitlines():
            if line.startswith("perfbench-vmhwm-kb "):
                self.counts["cli_peak_kb"] = max(self.counts["cli_peak_kb"], int(line.split()[1]))
        self.check(proc.returncode == 0, f"cli {name} exit {proc.returncode}: {proc.stderr[-300:]!r}")
        return stdout

    def cli_json(self, name: str, argv: list[str]) -> dict:
        stdout = self.cli(name, argv)
        try:
            payload = json.loads(stdout)
        except ValueError:
            payload = {}
        self.check(bool(payload), f"cli {name} output is not JSON")
        return payload


def child_env(root: str) -> dict:
    src = os.path.join(root, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


class Workload:
    """One benchmark workload: inputs fixed by a seed, a setup, a timed pass."""

    name = ""
    # (family, rank) pairs built by `setup` and by the set-up timing.
    setup_types: tuple[tuple[str, int], ...] = ()
    # Workload throughputs, each computed per pass: name -> unit.
    throughputs: dict[str, str] = {}
    # Names of the pass's CLI commands; `cli_commands` maps each to its argv.
    cli_names: tuple[str, ...] = ()
    cli_commands: dict[str, list[str]]

    def __init__(self, seed: int, tiny: bool):
        self.rng = np.random.default_rng(seed)

    def subseed(self) -> int:
        return int(self.rng.integers(0, 2**31))

    def setup(self, rec: Recorder) -> None:
        """Build the root systems; the identity holds and the root counts match."""
        for family, rank in self.setup_types:
            check_root_system(rec, family, rank)

    def run_pass(self, rec: Recorder) -> None:
        raise NotImplementedError

    def pass_throughputs(self, rec: Recorder) -> dict[str, float]:
        raise NotImplementedError


def check_root_system(rec: Recorder, family: str, rank: int) -> None:
    ade = roots.AdeType(family, rank)
    rs = roots.build_root_system(ade)
    report = roots.verify_volume_identity(rs)
    rec.counts["positive_roots"] += len(rs.positive_roots)
    rec.check(
        report.passed and len(rs.positive_roots) == roots.count_positive_roots(ade),
        f"{ade}: identity {report.passed}, {len(rs.positive_roots)} positive roots",
    )


class Fuzz(Workload):
    """Bulk vectorised sampling, then the same E8 sample through the CLI as CSV and JSON."""

    name = "fuzz"
    setup_types = (("E", 8), ("D", 16), ("A", 2))
    sample_types = setup_types
    throughputs = {"sample_charges_per_s": "1/s"}
    cli_names = ("sample_csv", "sample_json")

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        counts = (1_000, 1_000, 10_000) if tiny else (100_000, 100_000, 1_000_000)
        self.samples = [(f, n, count, self.subseed()) for (f, n), count in zip(self.sample_types, counts)]
        _, _, e8_count, e8_seed = self.samples[0]
        base = ["sample", "--family", "E", "--rank", "8", "--seed", str(e8_seed), "--count", str(e8_count)]
        self.cli_commands = {
            "sample_csv": base + ["--output", "csv"],
            "sample_json": base + ["--output", "json"],
        }

    def run_pass(self, rec: Recorder) -> None:
        best = {}
        for family, rank, count, seed in self.samples:
            rs = build(family, rank)
            cfg = search.SearchConfig(sample_count=count, seed=seed)
            with rec.timed(f"sample.{tag(family, rank)}"):
                result = search.sample_ratios(rs, cfg)
            rec.counts["charges"] += count
            rec.counts["violations"] += result.samples_violating
            best[tag(family, rank)] = result.best_ratio
            self._check_sample(rec, rs, count, result)

        count = self.samples[0][2]
        csv = rec.cli("sample_csv", self.cli_commands["sample_csv"]).decode()
        lines = csv.splitlines()
        rec.check(
            len(lines) == count + 1
            and lines[0] == "index,ratio,sys_upper,sys_lower,volume"
            and max(float(line.split(",")[1]) for line in lines[1:]) == best["E8"],
            "cli sample csv: row count or best ratio differs from the library",
        )
        payload = rec.cli_json("sample_json", self.cli_commands["sample_json"])
        rec.check(
            payload.get("samples") == count
            and payload.get("samples_violating") == 0
            and payload.get("best_ratio") == best["E8"],
            "cli sample json: counts or best ratio differ from the library",
        )

    @staticmethod
    def _check_sample(rec: Recorder, rs, count: int, result) -> None:
        bound = float(result.bound)
        rescored = stability.check_inequality(rs, result.best_charge)
        vol_basis = stability.volume_basis(rs, result.best_charge)
        rec.check(
            result.samples_violating == 0
            and result.ratios.shape == (count,)
            and sum(c for _, _, c in result.histogram) == count
            and result.best_ratio <= bound * (1 + 1e-12)
            and abs(rescored.ratio_upper - result.best_ratio) <= 1e-9 * result.best_ratio
            and abs(vol_basis - rescored.volume) <= 1e-9 * max(1.0, rescored.volume),
            f"sample {rs.ade}: violations {result.samples_violating}, best {result.best_ratio}",
        )

    def pass_throughputs(self, rec: Recorder) -> dict[str, float]:
        return {"sample_charges_per_s": rec.counts["charges"] / rec.scaled_sum("sample.")}


class Probe(Workload):
    """Many tiny calls: optimizer restarts, per-charge kernels, Milnor configurations."""

    name = "probe"
    setup_types = tuple(("A", n) for n in range(1, 9)) + (("D", 5), ("D", 16), ("E", 6), ("E", 8))
    throughputs = {
        "optimize_restarts_per_s": "1/s",
        "kernel_calls_per_s": "1/s",
        "correspond_per_s": "1/s",
    }
    optimize_types = (("A", 2), ("A", 8), ("D", 16))
    cli_names = ("optimize_json", "correspond_json")
    KERNELS = ("volume_basis", "volume_roots", "systole_upper", "systole_lower", "check_inequality")

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        restarts = (2, 1, 1) if tiny else (20, 3, 1)
        self.optimize = [
            (f, n, r, self.subseed()) for (f, n), r in zip(self.optimize_types, restarts)
        ]
        n_charges = 200 if tiny else 10_000
        phase = self.rng.uniform(0.0, 1.0, size=(n_charges, 8))
        log_r = self.rng.uniform(-3.0, 3.0, size=(n_charges, 8))
        self.charges = list(10.0**log_r * np.exp(1j * np.pi * phase))
        self.configs = [self._configuration(1 + k % 8) for k in range(80 if tiny else 2_000)]
        self.equivariance = [
            (
                f,
                n,
                self.rng.standard_normal(n) + 1j * self.rng.standard_normal(n),
                complex(*self.rng.uniform(-1, 1, 2)),
                self.subseed(),
            )
            for f, n in (("A", 2), ("A", 8), ("D", 5), ("E", 6), ("E", 8))
        ]
        self.equivariance_trials = 2 if tiny else 20
        f, n, r, s = self.optimize[0]
        poly = next(coeffs for _, coeffs in self.configs if len(coeffs) == 5)
        self.cli_commands = {
            "optimize_json": [
                "optimize", "--family", f, "--rank", str(n), "--seed", str(s),
                "--restarts", str(r), "--output", "json",
            ],
            "correspond_json": [
                "correspond", "--poly=" + cli.format_charge(poly), "--output", "json",
            ],
        }

    def _configuration(self, n: int):
        """n+1 centred points at least a tenth of their scale apart, and the
        coefficients a_1..a_n of the polynomial with those roots."""
        while True:
            pts = self.rng.standard_normal(n + 1) + 1j * self.rng.standard_normal(n + 1)
            pts -= pts.mean()
            gaps = np.abs(pts[:, None] - pts[None, :])
            np.fill_diagonal(gaps, np.inf)
            if gaps.min() >= 0.1 * np.abs(pts).max():
                return pts, [complex(c) for c in np.poly(pts)[2:]]

    def run_pass(self, rec: Recorder) -> None:
        best = {}
        for family, rank, restarts, seed in self.optimize:
            rs = build(family, rank)
            cfg = search.SearchConfig(seed=seed, restarts=restarts)
            with rec.timed(f"optimize.{tag(family, rank)}"):
                result = search.optimize_ratio(rs, cfg)
            rec.counts["restarts"] += restarts
            rec.counts["violations"] += result.samples_violating
            best[tag(family, rank)] = result.best_ratio
            rec.check(
                result.samples_violating == 0
                and result.ratios.shape == (restarts,)
                and 0 < result.best_ratio <= float(result.bound) * (1 + 1e-12),
                f"optimize {rs.ade}: violations {result.samples_violating}, best {result.best_ratio}",
            )

        self._kernels(rec)
        self._milnor(rec)

        for family, rank, z, zeta, seed in self.equivariance:
            rs = build(family, rank)
            with rec.timed("equivariance"):
                report = actions.verify_action_equivariance(
                    rs, z, zeta, trials=self.equivariance_trials, seed=seed
                )
            rec.check(report.passed, f"equivariance {rs.ade}: {report.as_dict()}")

        payload = rec.cli_json("optimize_json", self.cli_commands["optimize_json"])
        rec.check(
            payload.get("samples_violating") == 0 and payload.get("best_ratio") == best["A2"],
            "cli optimize json: violations or best ratio differ from the library",
        )
        payload = rec.cli_json("correspond_json", self.cli_commands["correspond_json"])
        rec.check(payload.get("passed") is True, "cli correspond json: not passed")

    def _kernels(self, rec: Recorder) -> None:
        rs = build("E", 8)
        kernels = [getattr(stability, name) for name in self.KERNELS]
        vb, vr, su, sl, ci = kernels
        out = []
        with rec.timed("kernels"):
            for z in self.charges:
                out.append((vb(rs, z), vr(rs, z), su(rs, z), sl(rs, z), ci(rs, z)))
        rec.counts["kernel_calls"] += len(kernels) * len(self.charges)
        bound = rs.coxeter / rs.rank

        def close(a: float, b: float) -> bool:
            return abs(a - b) <= 1e-9 * max(1.0, abs(b))

        for k, (basis, vol, upper, lower, report) in enumerate(out):
            rec.check(
                close(basis, vol)
                and lower <= upper * (1 + 1e-12)
                and close(report.volume, vol)
                and close(report.sys_upper, upper)
                and close(report.sys_lower, lower)
                and report.satisfied()
                and upper**2 <= bound * vol * (1 + 1e-12),
                f"kernels on E8 charge {k}: basis {basis}, roots {vol}, sys {lower}..{upper}",
            )

    def _milnor(self, rec: Recorder) -> None:
        out = []
        with rec.timed("milnor"):
            for _, coeffs in self.configs:
                pts = milnor.points_from_coefficients(coeffs)
                config = milnor.validate_configuration(pts)
                out.append((pts, milnor.verify_correspondence(config)))
        rec.counts["configs"] += len(self.configs)
        for (drawn, coeffs), (pts, report) in zip(self.configs, out):
            scale = np.abs(drawn).max()
            found = np.array(pts)
            recovered = len(found) == len(drawn) and all(
                np.abs(found - p).min() <= 1e-7 * scale for p in drawn
            )
            rec.check(
                recovered and report.passed,
                f"milnor n={len(coeffs)}: roots recovered {recovered}, passed {report.passed}",
            )

    def pass_throughputs(self, rec: Recorder) -> dict[str, float]:
        return {
            "optimize_restarts_per_s": rec.counts["restarts"] / rec.scaled_sum("optimize."),
            "kernel_calls_per_s": rec.counts["kernel_calls"] / rec.scaled_sum("kernels"),
            "correspond_per_s": rec.counts["configs"] / rec.scaled_sum("milnor"),
        }


class Explore(Workload):
    """Exact, combinatorial code: cold rank-32 builds, closed exchange graphs, exports."""

    name = "explore"
    throughputs = {"graph_nodes_per_s": "1/s", "export_mb_per_s": "MB/s"}
    cli_names = ("tilt_graph_json",)
    SPOT_CHECKS = 20

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed, tiny)
        if tiny:
            self.cold_types = (("A", 8), ("D", 8), ("E", 6))
            self.graph_types = (("A", 3), ("D", 4), ("A", 4))
        else:
            self.cold_types = (("A", 32), ("D", 32), ("E", 8))
            self.graph_types = (("A", 5), ("D", 5), ("A", 6))
        self.setup_types = self.graph_types
        # Seeded (node, position, direction) edges re-derived by simple_tilt.
        self.spot = {
            (f, n): [
                (int(self.rng.integers(weyl_order(f, n))), int(self.rng.integers(1, n + 1)), int(self.rng.integers(2)))
                for _ in range(self.SPOT_CHECKS)
            ]
            for f, n in self.graph_types
        }
        f, n = self.graph_types[1]
        self.cli_commands = {
            "tilt_graph_json": [
                "tilt-graph", "--family", f, "--rank", str(n),
                "--depth", str(closing_depth(f, n)), "--output", "json",
            ],
        }

    def run_pass(self, rec: Recorder) -> None:
        clear_build_cache()
        for family, rank in self.cold_types:
            with rec.timed("cold_build"):
                check_root_system(rec, family, rank)

        graphs = {}
        for family, rank in self.graph_types:
            rs = build(family, rank)
            with rec.timed("graph"):
                graph = actions.exchange_graph(rs, closing_depth(family, rank))
            with rec.timed("export"):
                as_json = graph.to_json()
                as_dot = graph.to_dot()
            graphs[(family, rank)] = graph
            rec.counts["nodes"] += len(graph.nodes)
            rec.counts["edges"] += len(graph.edges)
            rec.counts["export_bytes"] += len(as_json) + len(as_dot)
            self._check_graph(rec, rs, graph, as_json, as_dot)

        graph = graphs[self.graph_types[1]]
        payload = rec.cli_json("tilt_graph_json", self.cli_commands["tilt_graph_json"])
        rec.check(
            payload.get("complete") is True
            and len(payload.get("edges", ())) == len(graph.edges)
            and payload.get("nodes") == [[list(v) for v in node] for node in graph.nodes],
            "cli tilt-graph json: graph differs from the library's",
        )

    def _check_graph(self, rec: Recorder, rs, graph, as_json: str, as_dot: str) -> None:
        n = rs.rank
        order = weyl_order(rs.ade.family, n)
        degrees = Counter(src for src, _, _, _ in graph.edges)
        rec.check(
            graph.complete
            and len(graph.nodes) == order
            and len(graph.edges) == 2 * n * order
            and len(degrees) == order
            and set(degrees.values()) == {2 * n},
            f"graph {rs.ade}: {len(graph.nodes)} nodes (|W| = {order}), {len(graph.edges)} edges",
        )
        parsed = json.loads(as_json)
        rec.check(
            len(parsed["nodes"]) == order
            and len(parsed["edges"]) == 2 * n * order
            and as_dot.count("\n") + 1 == order + 2 * n * order + 2,
            f"graph {rs.ade}: JSON or DOT export has the wrong size",
        )
        # Node i expands in BFS order, emitting edge (i, k, direction) at 2n*i + 2(k-1) + d.
        for node, k, d in self.spot[(rs.ade.family, n)]:
            direction = (actions.FORWARD, actions.BACKWARD)[d]
            src, dst, pos, label = graph.edges[2 * n * node + 2 * (k - 1) + d]
            target = actions.simple_tilt(rs, actions.HeartState(simples=graph.nodes[node]), k, direction)
            rec.check(
                (src, pos, label) == (node, k, direction) and graph.nodes[dst] == target.simples,
                f"graph {rs.ade}: edge from node {node} at position {k} {direction}",
            )

    def pass_throughputs(self, rec: Recorder) -> dict[str, float]:
        return {
            "graph_nodes_per_s": rec.counts["nodes"] / rec.scaled_sum("graph"),
            "export_mb_per_s": rec.counts["export_bytes"] / 1e6 / rec.scaled_sum("export"),
        }


def closing_depth(family: str, rank: int) -> int:
    """Depth at which the exchange graph closes: one more than |Phi+|."""
    return roots.count_positive_roots(roots.AdeType(family, rank)) + 1


WORKLOADS = {cls.name: cls for cls in (Fuzz, Probe, Explore)}
