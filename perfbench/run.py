"""scorecalib benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
plain passes with traced passes (``traced.py``: the same commands with a
timing span around each layer's public functions) and prints per-layer
metrics, including the tracing overhead.  The last stdout line is one
JSON object; a fuller record (machine, inputs, digests, samples) goes to
``.perfbench_work/results/``.

This file imports only the standard library.  It starts the launcher that
runs every command before ``bench`` loads numpy, scipy and the inputs, so
the commands' peak RSS has no floor from the benchmark process.
"""

import sys

from launcher import Launcher


def main() -> int:
    with Launcher() as launcher:
        import bench

        return bench.main(sys.argv[1:], launcher)


if __name__ == "__main__":
    sys.exit(main())
