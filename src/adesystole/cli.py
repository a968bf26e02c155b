"""Command-line surface: parse inputs, dispatch, emit reports.

One table, `COMMANDS`, drives parsing, dispatch and emission.  Exit status
is 0 on success, 1 on bad input, and 2 when a mathematical property that
should always hold fails numerically (which would mean an implementation
bug, so CI can tell it apart from user error).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from adesystole import actions, milnor, roots, search, stability

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VIOLATION = 2


class CLIError(ValueError):
    """Bad command-line input; maps to exit status 1."""


def parse_complex(token: str) -> complex:
    """One 'a+bi' literal: signs, decimals, and exponent notation allowed."""
    text = token.strip().lower().replace("i", "j")
    try:
        value = complex(text)
    except ValueError:
        raise CLIError(f"could not parse complex literal {token.strip()!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise CLIError(f"complex literal {token.strip()!r} is not finite")
    return value


def parse_charge(text: str) -> list[complex]:
    """Comma-separated complex literals; errors carry the token position."""
    tokens = text.split(",")
    values = []
    for idx, token in enumerate(tokens):
        try:
            values.append(parse_complex(token))
        except CLIError as exc:
            raise CLIError(f"charge token {idx}: {exc}") from None
    return values


def format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 or z.imag != z.imag else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def format_charge(values) -> str:
    return ",".join(format_complex(complex(z)) for z in values)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _fmt17(value):
    """`_jsonable(value)` with every float at 17 significant digits, in one walk."""
    if isinstance(value, (int, str)):
        return value  # the common leaves; the Fraction check in _jsonable is slow
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, dict):
        return {k: _fmt17(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt17(v) for v in value]
    return _jsonable(value)


def render_human(payload: dict) -> str:
    """One `key: value` line per field; a list whose one-line JSON is longer
    than 100 characters gets one indented line per item instead."""
    lines = []
    for key, value in payload.items():
        value = _fmt17(value)
        if isinstance(value, list):
            # With default separators json.dumps(value) is exactly this join.
            parts = [json.dumps(item) for item in value]
            text = "[" + ", ".join(parts) + "]"
            if len(text) > 100:
                lines.append(f"{key}:")
                lines.extend(f"  {part}" for part in parts)
                continue
            lines.append(f"{key}: {text}")
        elif isinstance(value, dict):
            lines.append(f"{key}: {json.dumps(value)}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines)


def render_csv(result: search.SearchResult) -> str:
    """One row per sample (or restart), floats at 17 significant digits."""
    columns = (result.ratios, result.sys_upper, result.sys_lower, result.volumes)
    lines = ["index,ratio,sys_upper,sys_lower,volume"]
    lines.extend(
        f"{idx},{ratio:.17g},{upper:.17g},{lower:.17g},{volume:.17g}"
        for idx, (ratio, upper, lower, volume) in enumerate(zip(*(c.tolist() for c in columns)))
    )
    return "\n".join(lines)


def emit(text: str, out_file: str | None) -> None:
    """Write one rendered report to out_file, or to stdout."""
    if out_file:
        Path(out_file).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def read_config(path: str) -> dict:
    """Flat 'key = value' file mirroring the long flags; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CLIError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


_INT_KEYS = {"rank", "seed", "count", "restarts", "depth"}
_FLAG_KEYS = {"correspond"}


def apply_config(args: argparse.Namespace, config: dict) -> None:
    """Fill unset options from a config mapping; explicit flags win."""
    for key, raw in config.items():
        if not hasattr(args, key):
            continue
        current = getattr(args, key)
        if key in _FLAG_KEYS:
            if current is False and raw.lower() in ("1", "true", "yes"):
                setattr(args, key, True)
            continue
        if current is not None:
            continue
        if key in _INT_KEYS:
            try:
                setattr(args, key, int(raw))
            except ValueError:
                raise CLIError(f"config key {key}: expected an integer, got {raw!r}") from None
        else:
            setattr(args, key, raw)


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise CLIError(f"missing required option --{name.replace('_', '-')}")


class Report(NamedTuple):
    """What a handler computed: report fields, the exit verdict, inputs to echo
    after family/rank, and the object a command's own output modes render."""

    fields: dict
    ok: bool = True
    inputs: dict = {}
    source: object = None


def _charge(args, rs: roots.RootSystem):
    _require(args, "charge")
    values = parse_charge(args.charge)
    if len(values) != rs.rank:
        raise CLIError(f"charge has {len(values)} entries, expected {rs.rank}")
    return values


def _roots(args, rs: roots.RootSystem) -> Report:
    return Report(
        {
            "coxeter": rs.coxeter,
            "count": roots.count_positive_roots(rs.ade),
            "cartan": [list(row) for row in rs.cartan],
            "cartan_inverse": [[str(x) for x in row] for row in rs.cartan_inv],
            "positive_roots": [list(alpha) for alpha in rs.positive_roots],
        }
    )


def _identity(args, rs: roots.RootSystem) -> Report:
    report = roots.verify_volume_identity(rs)
    failures = [
        {"i": i, "j": j, "inverse_entry": str(lhs), "root_sum": str(rhs)}
        for i, j, lhs, rhs in report.failures
    ]
    fields = {"pass": report.passed, "pairs_checked": report.pairs_checked, "failures": failures}
    return Report(fields, report.passed)


def _volume(args, rs: roots.RootSystem) -> Report:
    z = _charge(args, rs)
    via_basis = stability.volume_basis(rs, z)
    via_roots = stability.volume_roots(rs, z)
    gap = abs(via_basis - via_roots) / max(1.0, via_roots)
    agree = gap <= stability.REL_TOL
    fields = {
        "volume_basis": via_basis,
        "volume_roots": via_roots,
        "relative_difference": gap,
        "agree": agree,
    }
    return Report(fields, agree, {"charge": format_charge(z)})


def _systole(args, rs: roots.RootSystem) -> Report:
    z = _charge(args, rs)
    fields = {"sys_lower": stability.systole_lower(rs, z), "sys_upper": stability.systole_upper(rs, z)}
    return Report(fields, True, {"charge": format_charge(z)})


def _inequality(args, rs: roots.RootSystem) -> Report:
    z = _charge(args, rs)
    report = stability.check_inequality(rs, z)
    return Report(report.as_dict(), report.satisfied(), {"charge": format_charge(z)})


def _search_config(args) -> search.SearchConfig:
    """SearchConfig from the options given; sample has no --restarts, optimize no --count."""
    given = {
        "sample_count": getattr(args, "count", None),
        "seed": args.seed,
        "restarts": getattr(args, "restarts", None),
    }
    return search.SearchConfig(**{k: v for k, v in given.items() if v is not None})


def _search_report(result: search.SearchResult, inputs: dict) -> Report:
    fields = result.summary()
    fields["best_charge_str"] = format_charge(result.best_charge)
    return Report(fields, result.samples_violating == 0, inputs, result)


def _sample(args, rs: roots.RootSystem) -> Report:
    cfg = _search_config(args)
    inputs = {"seed": cfg.seed, "count": cfg.sample_count}
    return _search_report(search.sample_ratios(rs, cfg), inputs)


def _optimize(args, rs: roots.RootSystem) -> Report:
    cfg = _search_config(args)
    inputs = {"seed": cfg.seed, "restarts": cfg.restarts}
    return _search_report(search.optimize_ratio(rs, cfg), inputs)


def _tilt_graph(args, rs: roots.RootSystem) -> Report:
    """The graph is the source of every output mode; only human output builds its adjacency."""
    depth = args.depth if args.depth is not None else 4
    return Report({}, True, {"depth": depth}, actions.exchange_graph(rs, depth))


def _configuration(args) -> milnor.PointConfiguration:
    if args.points is not None and args.poly is not None:
        raise CLIError("give either --points or --poly, not both")
    if args.points is not None:
        pts = parse_charge(args.points)
    elif args.poly is not None:
        pts = milnor.points_from_coefficients(parse_charge(args.poly))
    else:
        raise CLIError("missing required option --points or --poly")
    return milnor.validate_configuration(pts)


def _milnor(args, _rs) -> Report:
    config = _configuration(args)
    lengths = milnor.segment_lengths(config)
    fields = {
        "n": config.n,
        "points_centered": format_charge(config.points),
        "ordering": list(config.ordering),
        "general_position": config.general_position,
        "segment_lengths": [{"i": i, "j": j, "length": value} for i, j, value in lengths.entries],
        "systole": milnor.geometric_systole(config),
        "volume": milnor.geometric_volume(config),
    }
    ok = True
    if args.correspond:
        report = milnor.verify_correspondence(config)
        fields["correspondence"] = report.as_dict()
        fields["induced_charge"] = format_charge(milnor.induced_charge(config))
        ok = report.passed
    return Report(fields, ok, {"points": args.points, "poly": args.poly})


def _correspond(args, _rs) -> Report:
    config = _configuration(args)
    report = milnor.verify_correspondence(config)
    fields = report.as_dict()
    fields["induced_charge"] = format_charge(milnor.induced_charge(config))
    return Report(fields, report.passed, {"points": args.points, "poly": args.poly})


RENDERERS = {
    "human": lambda payload, source: render_human(payload),
    "json": lambda payload, source: json.dumps(_jsonable(payload), indent=2),
}


@dataclass(frozen=True)
class Command:
    """One subcommand.  `ade` adds --family/--rank and hands the handler the
    root system; `options` are (flag, add_argument kwargs) pairs; `outputs`
    maps each mode beyond human/json, and any mode whose `RENDERERS` entry
    it replaces, to a renderer of the payload and `Report.source`."""

    handler: Callable[[argparse.Namespace, roots.RootSystem | None], Report]
    help: str
    ade: bool = True
    options: tuple = ()
    outputs: dict = field(default_factory=dict)


_CHARGE = (("--charge", {"help": "comma-separated a+bi entries"}),)
_CSV = {"csv": lambda payload, result: render_csv(result)}
_SEED = ("--seed", {"type": int})
_SAMPLE = (_SEED, ("--count", {"type": int}))
_OPTIMIZE = (_SEED, ("--restarts", {"type": int}))
_DEPTH_HELP = (
    "default 4; a closed graph has one node per Weyl group element: (n+1)! for A_n, "
    "2^(n-1)*n! for D_n, 51,840 for E6, 2,903,040 for E7; E8 (696,729,600) is out of reach"
)
_POINTS = (
    ("--points", {"help": "comma-separated a+bi points"}),
    ("--poly", {"help": "comma-separated coefficients a_1..a_n"}),
)

COMMANDS = {
    "roots": Command(_roots, "root-system data"),
    "identity": Command(_identity, "exact coefficient identity check"),
    "volume": Command(_volume, "volume of a charge along both routes", options=_CHARGE),
    "systole": Command(_systole, "systole bracket of a charge", options=_CHARGE),
    "inequality": Command(_inequality, "systolic inequality report for a charge", options=_CHARGE),
    "sample": Command(_sample, "seeded ratio sampling", options=_SAMPLE, outputs=_CSV),
    "optimize": Command(_optimize, "pattern-search ratio maximization", options=_OPTIMIZE, outputs=_CSV),
    "tilt-graph": Command(
        _tilt_graph,
        "class-level tilt graph",
        options=(("--depth", {"type": int, "help": _DEPTH_HELP}),),
        outputs={
            "human": lambda payload, graph: render_human({**payload, **graph.adjacency()}),
            "json": lambda payload, graph: graph.to_json(payload),
            "dot": lambda payload, graph: graph.to_dot(),
        },
    ),
    "milnor": Command(
        _milnor,
        "point-configuration systole and volume",
        ade=False,
        options=_POINTS + (("--correspond", {"action": "store_true"}),),
    ),
    "correspond": Command(_correspond, "geometric/categorical matching report", ade=False, options=_POINTS),
}

OUTPUTS = tuple(dict.fromkeys([*RENDERERS, *(mode for c in COMMANDS.values() for mode in c.outputs)]))


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input like any other: exit 1, not argparse's 2."""

    def error(self, message):
        raise CLIError(message)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value file supplying default options")
    common.add_argument("--output", choices=OUTPUTS)
    common.add_argument("--out-file")

    ade = argparse.ArgumentParser(add_help=False)
    ade.add_argument("--family", choices=["A", "D", "E", "a", "d", "e"])
    ade.add_argument("--rank", type=int)

    parser = _Parser(
        prog="adesystole",
        description="Systoles and volumes of stability data on ADE root systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        parents = [common, ade] if command.ade else [common]
        p = sub.add_parser(name, parents=parents, help=command.help)
        for flag, kwargs in command.options:
            p.add_argument(flag, **kwargs)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.config:
        apply_config(args, read_config(args.config))
    command = COMMANDS[args.command]
    output = args.output or "human"
    if output not in (*RENDERERS, *command.outputs):
        raise CLIError(f"{output} output is not available for this command")
    inputs, rs = {}, None
    if command.ade:
        _require(args, "family", "rank")
        ade = roots.AdeType(args.family.upper(), args.rank)
        inputs = {"family": ade.family, "rank": ade.rank}
        rs = roots.build_root_system(ade)
    report = command.handler(args, rs)
    inputs.update(report.inputs)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": {k: v for k, v in inputs.items() if v is not None},
        **report.fields,
    }
    render = {**RENDERERS, **command.outputs}[output]
    emit(render(payload, report.source), args.out_file)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def main(argv=None) -> int:
    try:
        return run(argv)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ArithmeticError as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    raise SystemExit(main())
