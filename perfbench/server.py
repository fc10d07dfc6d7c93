"""The server process under test: one ``HEServer`` behind a ``SocketServer``.

Started by ``run.py`` with ``PYTHONPATH=src``.  It builds the deployment
of the socket soak (``demo_deployment``; one DEVICE1 with two tiles;
batches of 8 within 500 us; a 2 ms pump; inline evaluation), installs
the shared relinearization key and, for ``dot_plain``, the weight
vector, then prints one JSON line with the bound port and waits on
stdin for commands, one per line:

``mark``
    note the start of the measured phases in the layer trace;
``stats``
    print one JSON line of server-side counters;
``quit``
    stop serving, write the layer trace (with ``--trace-out``), exit.

End of input counts as ``quit``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from workloads import (
    DEPLOY_SEED,
    MAX_BATCH,
    PUMP_MS,
    WEIGHTS_NAME,
    WINDOW_US,
    WORKLOADS,
    server_weights,
)


def _stats(he, net) -> dict:
    from repro.native import glue

    t0 = time.perf_counter()
    he.metrics_snapshot()
    snapshot_s = time.perf_counter() - t0
    m = he.metrics
    art = he.session.artifacts
    mc = he.session.memcache.stats
    return {
        "net": net.stats(),
        "pump": {"ticks": net.server.pump.ticks,
                 "errors": net.server.pump.errors,
                 "last_error": net.server.pump.last_error},
        "dispatcher": {"raw_launches": he.dispatcher.raw_launches,
                       "submitted_launches": he.dispatcher.submitted_launches,
                       "requeued": he.dispatcher.requeued},
        "batches": len(m.batch_sizes),
        "batch_size_mean": m.mean_batch_size,
        "status_counts": m.status_counts(),
        "shed": m.shed_total,
        "artifacts": {"hits": art.hits, "misses": art.misses},
        "memcache": {"hits": mc.hits, "requests": mc.requests},
        "sessions": len(he.sessions),
        "metrics_records": len(m.records),
        "metrics_snapshot_s": snapshot_s,
        "native_fallbacks": glue.fallback_count(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--trace-out", default="",
                    help="record per-layer spans and write them here at exit")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    from repro.native import backend, glue
    from repro.server import (
        BatchPolicy,
        HEServer,
        ServerClient,
        demo_deployment,
        serve_in_background,
    )
    from repro.xesim import DEVICE1

    trace = None
    if args.trace_out:
        import layers

        trace = layers.LayerTrace()
        layers.install(trace)

    params, _encoder, _encryptor, _decryptor, relin_wire = demo_deployment(
        degree=wl.degree, seed=DEPLOY_SEED)
    he = HEServer(ServerClient.params_wire(params),
                  devices=[(DEVICE1, 2)],
                  policy=BatchPolicy(max_batch=MAX_BATCH, window_us=WINDOW_US))
    he.install_relin_key(relin_wire)
    if wl.op == "dot_plain":
        he.install_weights(WEIGHTS_NAME, server_weights())
    net = serve_in_background(he, pump_ms=PUMP_MS)
    try:
        print(json.dumps({"port": net.port, "backend": backend.get_backend(),
                          "threads": glue.get_threads()}), flush=True)
        for line in sys.stdin:
            cmd = line.strip()
            if cmd == "mark":
                if trace is not None:
                    trace.mark()
                print(json.dumps({"mark": True}), flush=True)
            elif cmd == "stats":
                print(json.dumps(_stats(he, net)), flush=True)
            elif cmd == "quit":
                break
    finally:
        net.stop()
        he.close()
        if trace is not None:
            trace.write(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
