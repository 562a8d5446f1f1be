"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload offline-3task --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
ledger.  Human-readable lines (host fingerprint, each metric with its unit
and sample count, the correctness gate) come first; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 only when the run measured and every
delivered output passed the correctness gate.

The program is imported from ``src/`` next to this directory; the
benchmark sets no BLAS or OpenMP thread variable, it inherits them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SOURCE / 'repro'})", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    from harness import host_fingerprint, stop_children
    from workloads import E2E_UNITS, LAYER_NAMES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    print("host:", json.dumps(host_fingerprint(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()
    expected = LAYER_NAMES if args.trace else tuple(E2E_UNITS)
    missing = [name for name in expected if name not in outcome.metrics]
    if missing:
        outcome.correct = False
        outcome.notes.append(f"metrics not measured: {missing}")
    for note in outcome.notes:
        print(" ", note)
    for name in expected:
        if name in outcome.metrics:
            value, unit, samples = outcome.metrics[name]
            print(f"  {name} = {value:.6g} {unit} (n={samples})")
    result = {
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": outcome.metrics[name][0], "unit": outcome.metrics[name][1]}
            for name in expected
            if name in outcome.metrics
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
