"""Command-line surface: parse inputs, dispatch, emit reports.

One table, `COMMANDS`, drives parsing, dispatch and emission.  Exit status
is 0 on success, 1 on bad input, and 2 when a mathematical property that
should always hold fails numerically (which would mean an implementation
bug, so CI can tell it apart from user error).  A reader that closes the
pipe early (`| head`) ends the run quietly with status 0.  Every command
needs `roots`; the modules only some commands use, numpy among them, are
imported by their handlers, so a run loads no more than it needs: `roots`
prints a root system without numpy, `dataclasses` or `inspect`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from contextlib import nullcontext
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

from adesystole import roots

if TYPE_CHECKING:
    from adesystole import milnor, search

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VIOLATION = 2


class CLIError(ValueError):
    """Bad command-line input; maps to exit status 1."""


def parse_complex(token: str) -> complex:
    """One 'a+bi' literal: signs, decimals, and exponent notation allowed."""
    text = token.strip().lower()
    if text.endswith("i"):
        text = text[:-1] + "j"
    try:
        value = complex(text)
    except ValueError:
        raise CLIError(f"could not parse complex literal {token.strip()!r}") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise CLIError(f"complex literal {token.strip()!r} is not finite")
    return value


def parse_charge(text: str, option: str) -> list[complex]:
    """Comma-separated complex literals; errors name the option and the token position."""
    tokens = text.split(",")
    values = []
    for idx, token in enumerate(tokens):
        try:
            values.append(parse_complex(token))
        except CLIError as exc:
            raise CLIError(f"{option} token {idx}: {exc}") from None
    return values


def format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def format_charge(values) -> str:
    return ",".join(format_complex(complex(z)) for z in values)


def _fmt17(value):
    """`value` with each float as `{:.17g}` text and each tuple as a list.
    Every report converts its own values, so a payload is JSON data."""
    if isinstance(value, (int, str)):
        return value  # the common leaves first
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, dict):
        return {k: _fmt17(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt17(v) for v in value]
    return value


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


# Rows of a CSV report rendered per chunk: the report is streamed, so it
# never holds more than this many rows as text.  The digit kernel
# (`_csvdigits`) formats one chunk per call; its byte and mask arrays take
# 208 B a row each.
_CSV_ROWS = 2048


def render_csv(result: search.SearchResult) -> Iterator[str]:
    """One row per sample (or restart) as `_csvdigits._CSV_ROW` writes it,
    the floats in `%.17g`'s digits, as chunks of `_CSV_ROWS` rows, each
    with the ratios of its own rows (`result.ratios_of`); each row starts
    with its newline.  The rows are made by `_csvdigits._csv_block`, a
    numpy digit kernel whose output is byte-identical to the template's."""
    import numpy as np

    from adesystole import _csvdigits

    columns = (result.sys_upper, result.sys_lower, result.volumes)
    count = len(result.volumes)
    yield "index,ratio,sys_upper,sys_lower,volume"
    tables = _csvdigits._csv_tables()
    words = np.tile(tables.template, (min(count, _CSV_ROWS), 1))
    mask = np.empty_like(words)
    for start in range(0, count, _CSV_ROWS):
        part = slice(start, start + _CSV_ROWS)
        values = np.column_stack([result.ratios_of(part), *(c[part] for c in columns)])
        yield _csvdigits._csv_block(tables, start, values, words, mask)


def emit(report: str | Iterable[str], out_file: str | None) -> None:
    """Write one rendered report, its text or an iterable of text chunks,
    and a final newline to out_file, or to stdout."""
    chunks = (report,) if isinstance(report, str) else report
    with open(out_file, "w", encoding="utf-8") if out_file else nullcontext(sys.stdout) as out:
        out.writelines(chunks)
        out.write("\n")
        out.flush()  # a closed pipe fails here, inside main, not at exit


def read_config(path: str) -> dict:
    """Flat 'key = value' file mirroring the long flags; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CLIError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


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
    values = parse_charge(args.charge, "--charge")
    if len(values) != rs.rank:
        raise CLIError(f"charge has {len(values)} entries, expected {rs.rank}")
    return values


def _roots(args, rs: roots.RootSystem) -> Report:
    return Report(
        {
            "coxeter": rs.coxeter,
            "count": roots.count_positive_roots(rs.ade),
            "cartan": rs.cartan,
            "cartan_inverse": [[str(x) for x in row] for row in rs.cartan_inv],
            "positive_roots": rs.positive_roots,
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
    from adesystole import stability

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
    from adesystole import stability

    z = _charge(args, rs)
    fields = {"sys_lower": stability.systole_lower(rs, z), "sys_upper": stability.systole_upper(rs, z)}
    return Report(fields, True, {"charge": format_charge(z)})


def _inequality(args, rs: roots.RootSystem) -> Report:
    from adesystole import stability

    z = _charge(args, rs)
    report = stability.check_inequality(rs, z)
    return Report(report.as_dict(), report.satisfied(), {"charge": format_charge(z)})


def _search(args, rs: roots.RootSystem) -> Report:
    """sample or optimize, with the SearchConfig from the options given;
    sample has no --restarts, optimize no --count."""
    from adesystole import search

    given = {
        "sample_count": getattr(args, "count", None),
        "seed": args.seed,
        "restarts": getattr(args, "restarts", None),
    }
    cfg = search.SearchConfig(**{k: v for k, v in given.items() if v is not None})
    if args.command == "sample":
        result, inputs = search.sample_ratios(rs, cfg), {"seed": cfg.seed, "count": cfg.sample_count}
    else:
        result, inputs = search.optimize_ratio(rs, cfg), {"seed": cfg.seed, "restarts": cfg.restarts}
    fields = result.summary()
    fields["best_charge_str"] = format_charge(result.best_charge)
    return Report(fields, result.samples_violating == 0, inputs, result)


def _tilt_graph(args, rs: roots.RootSystem) -> Report:
    """The graph is the source of every output mode, each streamed in chunks."""
    from adesystole import actions

    depth = args.depth if args.depth is not None else 4
    return Report({}, True, {"depth": depth}, actions.exchange_graph(rs, depth))


def _configuration(args) -> milnor.PointConfiguration:
    from adesystole import milnor

    if args.points is not None and args.poly is not None:
        raise CLIError("give either --points or --poly, not both")
    if args.points is not None:
        pts = parse_charge(args.points, "--points")
    elif args.poly is not None:
        pts = milnor.points_from_coefficients(parse_charge(args.poly, "--poly"))
    else:
        raise CLIError("missing required option --points or --poly")
    return milnor.validate_configuration(pts)


def _milnor(args, _rs) -> Report:
    from adesystole import milnor

    config = _configuration(args)
    fields = {
        "n": config.n,
        "points_centered": format_charge(config.points),
        "ordering": config.ordering,
        "general_position": config.general_position,
        "segment_lengths": [{"i": i, "j": j, "length": value} for i, j, value in config.segments],
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
    from adesystole import milnor

    config = _configuration(args)
    report = milnor.verify_correspondence(config)
    fields = report.as_dict()
    fields["induced_charge"] = format_charge(milnor.induced_charge(config))
    return Report(fields, report.passed, {"points": args.points, "poly": args.poly})


RENDERERS = {
    "human": lambda payload, source: render_human(payload),
    "json": lambda payload, source: json.dumps(payload, indent=2),
}


class Command(NamedTuple):
    """One subcommand.  `ade` adds --family/--rank and hands the handler the
    root system; `options` are (flag, add_argument kwargs) pairs; `outputs`
    maps each mode beyond human/json, and any mode whose `RENDERERS` entry
    it replaces, to a renderer of the payload and `Report.source`.  Its
    `--output` takes exactly the modes of `RENDERERS` and `outputs`."""

    handler: Callable[[argparse.Namespace, roots.RootSystem | None], Report]
    help: str
    ade: bool = True
    options: tuple = ()
    outputs: dict = {}


_CHARGE = (("--charge", {"help": "comma-separated a+bi entries"}),)
_CSV = {"csv": lambda payload, result: render_csv(result)}
_SEED = ("--seed", {"type": int})
_SAMPLE = (_SEED, ("--count", {"type": int}))
_OPTIMIZE = (_SEED, ("--restarts", {"type": int}))
_DEPTH_HELP = (
    "default 4; a closed graph has one node per Weyl group element: (n+1)! for A_n, "
    "2^(n-1)*n! for D_n, 51,840 for E6, 2,903,040 for E7 (depth 64, 9-13 s and 0.3 GB); "
    "a graph over 4 GB, such as closed E8 (696,729,600), is invalid; every output mode is streamed"
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
    "sample": Command(_search, "seeded ratio sampling", options=_SAMPLE, outputs=_CSV),
    "optimize": Command(_search, "pattern-search ratio maximization", options=_OPTIMIZE, outputs=_CSV),
    "tilt-graph": Command(
        _tilt_graph,
        "class-level tilt graph",
        options=(("--depth", {"type": int, "help": _DEPTH_HELP}),),
        outputs={
            "human": lambda payload, graph: graph.human_chunks(render_human(payload)),
            "json": lambda payload, graph: graph.json_chunks(payload),
            "dot": lambda payload, graph: graph.dot_chunks(),
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


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input like any other: exit 1, not argparse's 2."""

    def error(self, message):
        raise CLIError(message)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value file supplying default options")
    common.add_argument("--out-file")

    ade = argparse.ArgumentParser(add_help=False)
    ade.add_argument("--family", type=str.upper, choices=roots.FAMILIES)
    ade.add_argument("--rank", type=int)

    parser = _Parser(
        prog="adesystole",
        description="Systoles and volumes of stability data on ADE root systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        parents = [common, ade] if command.ade else [common]
        p = sub.add_parser(name, parents=parents, help=command.help)
        p.add_argument("--output", choices=tuple({**RENDERERS, **command.outputs}), default="human")
        for flag, kwargs in command.options:
            p.add_argument(flag, **kwargs)
    return parser


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Join a value that starts with "-" and a digit or "." to the long option
    just before it: argparse (3.10-3.12) takes a following "-1" or "-1.5" as
    a value but not "-1+1i", while "--charge=-1+1i" (or "--ch=-1+1i", a unique
    prefix) parses whatever the value."""
    attached = []
    for token in argv:
        signed = token[:1] == "-" and token[1:2] in tuple("0123456789.")
        if signed and attached and attached[-1][:2] == "--" and "=" not in attached[-1]:
            attached[-1] += "=" + token
        else:
            attached.append(token)
    return attached


def _config_tokens(args: argparse.Namespace, config: dict) -> list[str]:
    """A config file's options of this command as command-line tokens: a
    store_true flag is bare when its value is 1, true or yes."""
    tokens, options = [], vars(args)
    for key, value in config.items():
        if key in ("command", "config") or key not in options:
            continue
        flag = "--" + key.replace("_", "-")
        if not isinstance(options[key], bool):
            tokens.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes"):
            tokens.append(flag)
    return tokens


def run(argv=None) -> int:
    parser, argv = build_parser(), _attach_signed_values(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    if args.config:
        # Explicit flags come after the file's, so they win.
        args = parser.parse_args(argv[:1] + _config_tokens(args, read_config(args.config)) + argv[1:])
    command = COMMANDS[args.command]
    with warnings.catch_warnings():
        # An out-of-range charge overflows inside numpy before the kernels'
        # range checks reject it, and the ValueError is the one message to show.
        warnings.filterwarnings("ignore", "(overflow|invalid value) encountered", RuntimeWarning)
        inputs, rs = {}, None
        if command.ade:
            _require(args, "family", "rank")
            rs = roots.build_root_system(roots.AdeType(args.family, args.rank))
            inputs = rs.ade._asdict()
        report = command.handler(args, rs)
        inputs.update(report.inputs)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": {k: v for k, v in inputs.items() if v is not None},
            **report.fields,
        }
        render = {**RENDERERS, **command.outputs}[args.output]
        emit(render(payload, report.source), args.out_file)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def main(argv=None) -> int:
    try:
        return run(argv)
    except BrokenPipeError:
        # The reader has all it wanted; stdout goes to devnull so that the
        # interpreter's flush at exit does not fail on the pipe again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ArithmeticError as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    raise SystemExit(main())
