"""Socket shard worker launcher: one ``WorkerServer`` in its own process.

fanout-sweep starts two of these as child processes, so the remote arm
runs its units on interpreters that do not share the coordinator's GIL.
The launcher binds an ephemeral loopback port, prints it as the first
line of its standard output, and serves until a ``shutdown`` op
arrives.  It then prints one JSON line with its unit count and, when
started with ``--trace 1``, the start (``time.monotonic``) and duration
of every unit it executed — the worker-side compute time that splits
remote unit time into codec, wire and compute without clock sync.

Usage: ``python3 perfbench/worker.py --trace 0``
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.matching import remote  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    units: list[tuple[float, float]] = []
    if args.trace:
        run_unit = remote.run_unit_with

        def timed_unit(*unit_args, **unit_kwargs):
            started = time.monotonic()
            try:
                return run_unit(*unit_args, **unit_kwargs)
            finally:
                units.append((started, time.monotonic() - started))

        remote.run_unit_with = timed_unit

    server = remote.WorkerServer("127.0.0.1", 0)
    print(server.address[1], flush=True)
    server.serve_forever()
    server.stop()
    print(json.dumps({"units": server.stats.units, "timed_units": units}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
