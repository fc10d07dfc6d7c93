"""Serving benchmark: one load generator process against one server process.

Run from the repository root::

    python3 perfbench/run.py --workload add-n1024 --seed 1 --seconds 30 --trace 0

The generator (this process) starts ``perfbench/server.py`` -- an
``HEServer`` behind the asyncio ``SocketServer`` -- and drives it over two
TCP connections.  Each run has two phases of a fixed number of requests:

1. open loop at the workload's rate; every request is timed from when it
   was due to be sent to when its response arrived;
2. closed loop, each connection keeping a fixed window in flight.

``--trace 0`` reports the end-to-end metrics.  The server is started
three times; ``setup_s`` is the median set-up time, and each server
serves a third of both phases.  ``--trace 1`` first runs the open-loop
phase on an untraced server (the baseline of ``trace.overhead_pct``),
then both phases on one server whose layer entry points are wrapped by
``perfbench/layers.py``, and reports the per-layer metrics and table.

Every response is checked (see ``loadgen.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every request was
answered ``ok`` with a correct result, 1 when one was not, and 2 when
the run could not be made at all (no source tree, server failed to
start); the JSON line is printed only with exit codes 0 and 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Everything after the native build must end within this many seconds.
RUN_BUDGET_S = 165.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "server" / "net.py").is_file():
        print(f"perfbench: no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    import loadgen

    loadgen.OUT.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(loadgen.OUT / "native")
    from repro.native.build import NativeBuildError, build

    try:
        build()
    except NativeBuildError as exc:
        print(f"perfbench: native kernels unavailable: {exc}", file=sys.stderr)

    import report

    deadline = loadgen.Deadline(RUN_BUDGET_S)
    probe = report.host_probe()
    try:
        run = loadgen.Run(wl, args.seed, args.seconds, deadline)
        res = loadgen.traced(run) if args.trace else loadgen.untraced(run)
    except loadgen.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = report.print_report(wl, args, res, probe)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
