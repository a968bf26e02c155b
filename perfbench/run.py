"""Benchmark of adesystole: three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (the package is imported from
./src, never from an installed copy):

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload explore --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --smoke

With --trace 0 it times passes of the workload until --seconds have gone
and reports the end-to-end metrics, scaled to a fixed reference speed; with
--trace 1 it alternates untraced and traced passes and reports per-layer
metrics plus the tracing overhead.
Every metric is printed by name with its unit, with the environment, and
the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --smoke runs each workload
once at tiny sizes in both modes and checks that every metric is printed
with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_package() -> None:
    """Import adesystole from ./src of this checkout, or fail."""
    if not (SRC / "adesystole" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'adesystole'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import adesystole

    if Path(adesystole.__file__).resolve().parent != SRC / "adesystole":
        raise SystemExit(f"error: imported adesystole from {adesystole.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("fuzz", "probe", "explore"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, both modes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    # One process, one thread: each pass is pinned to a single CPU.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    load_package()
    import harness

    if args.smoke:
        return harness.smoke()
    result, lines = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
