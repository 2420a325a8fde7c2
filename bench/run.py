"""Benchmark entry point.

    python3 bench/run.py --workload audit --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: nilbij is imported from its ``src``
directory, nothing is installed.  Human-readable notes go to standard
output first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
Exits 2 without a result when nilbij's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("audit", "count", "joyal", "calls")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nilbij" / "__init__.py").is_file():
        print(f"error: nilbij sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.trace:
        run = workloads.trace(args.workload, args.seed)
    else:
        run = workloads.measure(args.workload, args.seed, args.seconds, SRC)
    for note in run.notes:
        print(note)
    for reason, count in sorted(run.tally.reasons.items()):
        print(f"failed {count}x: {reason}")
    print(f"error_rate {run.tally.failed / run.tally.attempted:.4f} "
          f"({run.tally.failed} of {run.tally.attempted})")
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
