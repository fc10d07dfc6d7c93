"""Metrics, the per-layer table and the printed report of one run."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

import layers
from loadgen import OUTCOMES
from repro.native.build import NativeBuildError, cflags, find_compiler
from repro.obs.metrics import percentile
from workloads import CLOSED_WINDOW, CONNECTIONS

_PROBE = """
import sys, time
start = float(sys.argv[1])
time.sleep(max(0.0, start - time.time()))
t = time.perf_counter()
x = 0
for i in range(3_000_000):
    x += i
print(time.perf_counter() - t)
"""


def host_probe() -> dict:
    """The host's speed and usable parallelism, measured now.

    The same busy loop runs alone, then twice at once, then alone again.
    ``loop_ms`` is the faster solo time: it grows when the host is slow.
    ``effective_cores`` is twice the solo time over the slower paired
    time: 2.0 means two free cores, 1.0 means the pair shared one.
    """

    def burn(n: int) -> list:
        start = time.time() + 0.15
        procs = [subprocess.Popen([sys.executable, "-c", _PROBE, str(start)],
                                  stdout=subprocess.PIPE)
                 for _ in range(n)]
        return [float(p.communicate(timeout=60)[0]) for p in procs]

    solo = burn(1)
    pair = burn(2)
    solo += burn(1)
    return {"loop_ms": min(solo) * 1e3,
            "effective_cores": 2.0 * min(solo) / max(pair)}


def host_signature(server_info: dict) -> dict:
    try:
        compiler = find_compiler()
    except NativeBuildError as exc:
        compiler = f"none ({exc})"
    return {
        "cpus": os.cpu_count(),
        "backend": server_info.get("backend", "?"),
        "native_threads": server_info.get("threads", 0),
        "compiler": compiler,
        "cflags": " ".join(cflags()),
        "python": platform.python_version(),
    }


def _pct(values, q: float) -> float:
    return percentile(sorted(values), q)


def latency_ms(phases) -> list:
    return [(r.recv - r.due) * 1e3 for p in phases for r in p.answered()]


def late_ms(phases) -> list:
    return [(r.sent - r.due) * 1e3 for p in phases for r in p.reqs if r.sent]


def cpu_ms_per_req(phases) -> float:
    answered = sum(len(p.answered()) for p in phases)
    cpu_s = sum(p.cpu_s for p in phases)
    return cpu_s * 1e3 / answered if answered else 0.0


def throughput_rps(phase) -> float:
    span = phase.end - phase.start
    return phase.counts.get("ok", 0) / span if span > 0 else 0.0


#: The end-to-end metrics ``BENCHMARK.json`` gates on, in the JSON line of
#: an untraced run.  ``p99_ms`` and ``error_ratio`` are printed but not
#: gated: p99 spreads by more than the largest allowed bound between runs
#: on a shared 2-vCPU host, and the error ratio is 0 (failures fail the
#: run instead, through ``correct`` and ``failed``).
GATED = ("p50_ms", "throughput_rps", "cpu_ms_per_req", "rss_peak_mib",
         "setup_s")


def _tail(values, q: float) -> tuple:
    """(q-th percentile, note with the sample count and samples beyond)."""
    value = _pct(values, q)
    beyond = sum(1 for v in values if v > value)
    return value, f"n={len(values)}, {beyond} beyond"


def end_to_end(res: dict) -> dict:
    """The end-to-end metrics, each ``(value, unit, note)``.

    Latency percentiles pool the open-loop requests of every server;
    throughput is the median over the servers' closed-loop phases.
    """
    lat = latency_ms(res["open"])
    p99, p99_note = _tail(lat, 99)
    rates = [throughput_rps(p) for p in res["closed"]]
    measured = res["open"] + res["closed"]
    attempted = sum(p.attempted for p in measured)
    failed = sum(p.failures for p in measured)
    setups = res["setups"]
    return {
        "p50_ms": (_pct(lat, 50), "ms", f"open loop, n={len(lat)}"),
        "p99_ms": (p99, "ms", "open loop, " + p99_note),
        "throughput_rps": (statistics.median(rates), "req/s",
                           "closed loop, median of "
                           + ", ".join(f"{r:.1f}" for r in rates)),
        "cpu_ms_per_req": (cpu_ms_per_req(res["open"]), "ms",
                           "server user+sys over the open loop"),
        "rss_peak_mib": (res["hwm_kib"] / 1024.0, "MiB",
                         "largest server VmHWM"),
        "error_ratio": (failed / attempted, "ratio",
                        f"{failed} of {attempted} not ok"),
        "setup_s": (statistics.median(setups), "s",
                    "median of " + ", ".join(f"{s:.3f}" for s in setups)),
    }


def _since_mark(trace: dict) -> dict:
    mark = trace["mark_totals"]
    out = {}
    for layer, (calls, busy, own) in trace["totals"].items():
        c0, b0, o0 = mark.get(layer, (0, 0.0, 0.0))
        out[layer] = (calls - c0, busy - b0, own - o0)
    return out


def per_layer(res: dict, probe: dict) -> tuple:
    """(metrics, table rows) of a traced run."""
    trace, stats = res["trace"], res["stats"]
    (open_p,), (closed_p,) = res["open"], res["closed"]
    reqs = open_p.attempted + closed_p.attempted
    tot = _since_mark(trace)
    whole = trace["totals"]
    spans = [s for s in trace["spans"] if s[1] >= trace["mark_s"]]

    def calls(layer):
        return tot.get(layer, (0, 0.0, 0.0))[0]

    def busy_s(layer):
        return tot.get(layer, (0, 0.0, 0.0))[1]

    def per_call(layer, scale, totals=tot):
        c, b, _ = totals.get(layer, (0, 0.0, 0.0))
        return b * scale / c if c else 0.0

    ticks = [s for s in spans if s[0] == "pump.tick"]
    tick_us = [s[2] * 1e6 for s in ticks]
    frames = [s[5] for s in spans if s[0] == "request.decode"]
    waits = [r.wait_ms for r in open_p.reqs if r.outcome == "ok"]
    art, mc, net = stats["artifacts"], stats["memcache"], stats["net"]
    art_n = art["hits"] + art["misses"]
    cpu_traced = cpu_ms_per_req([open_p])
    cpu_base = cpu_ms_per_req([res["base"]])
    tick_p50 = _pct(tick_us, 50)
    tick_p99, tick_note = _tail(tick_us, 99)
    late_p99, late_note = _tail(late_ms([open_p]), 99)
    per_req = f"per request, n={reqs}"
    m = {
        "request.decode_us": (per_call("request.decode", 1e6), "us",
                              "per decode_request call"),
        "request.encode_us": (per_call("request.encode", 1e6), "us",
                              "per encode_response call"),
        "request.frame_kib": (statistics.fmean(frames) / 1024 if frames
                              else 0.0, "KiB", "mean request frame"),
        "net.frames_in": (net["frames_in"], "count", "SocketServer.stats"),
        "net.frames_out": (net["frames_out"], "count", ""),
        "net.frame_errors": (net["frame_errors"], "count", ""),
        "net.undeliverable": (net["undeliverable"], "count", ""),
        "pump.ticks": (len(ticks), "count", "BatchPump.tick calls"),
        "pump.idle_ticks": (sum(1 for s in ticks if s[5] == 0), "count",
                            "ticks that routed no response"),
        "pump.tick_us_p50": (tick_p50, "us", f"n={len(tick_us)}"),
        "pump.tick_us_p99": (tick_p99, "us", tick_note),
        "pump.errors": (stats["pump"]["errors"], "count", ""),
        "batcher.batch_size_mean": (stats["batch_size_mean"], "requests",
                                    f"n={stats['batches']} batches"),
        "batcher.wait_ms_p50": (_pct(waits, 50), "ms",
                                f"dispatch - arrival, open loop, "
                                f"n={len(waits)}"),
        "batcher.form_us": (per_call("batcher.form", 1e6), "us",
                            "per form_batches call"),
        "admission.shed": (stats["shed"], "count", ""),
        "dispatcher.dispatch_ms": (per_call("dispatcher.dispatch", 1e3), "ms",
                                   "per BatchDispatcher.dispatch call"),
        "dispatcher.plan_us": (per_call("dispatcher.plan", 1e6), "us",
                               "per execute_plan call"),
        "dispatcher.raw_launches": (stats["dispatcher"]["raw_launches"],
                                    "count", ""),
        "dispatcher.submitted_launches": (
            stats["dispatcher"]["submitted_launches"], "count", ""),
        "dispatcher.requeued": (stats["dispatcher"]["requeued"], "count", ""),
        "runtime.run_stream_ms": (busy_s("runtime.run_stream") * 1e3 / reqs,
                                  "ms/req", per_req),
        "xesim.simulate_kernel_calls": (calls("xesim.simulate_kernel") / reqs,
                                        "calls/req", per_req),
        "xesim.simulate_kernel_us": (
            busy_s("xesim.simulate_kernel") * 1e6 / reqs, "us/req", per_req),
    }
    for op in layers.EVALUATOR_OPS:
        layer = f"evaluator.{op}"
        m[layer + "_us"] = (per_call(layer, 1e6), "us",
                            f"per call, n={calls(layer)}")
    m.update({
        "native.kernel_calls": (calls("native.kernel") / reqs, "calls/req",
                                per_req),
        "native.kernel_ms": (busy_s("native.kernel") * 1e3 / reqs, "ms/req",
                             per_req),
        "native.fallbacks": (stats["native_fallbacks"], "count",
                             "repro_native_fallback_total"),
        "artifacts.hit_ratio": (art["hits"] / art_n if art_n else 0.0,
                                "ratio", f"n={art_n}"),
        "memcache.hit_ratio": (mc["hits"] / mc["requests"] if mc["requests"]
                               else 0.0, "ratio", f"n={mc['requests']}"),
        "sessions.handshake_ms": (per_call("sessions.handshake", 1e3, whole),
                                  "ms", f"per handshake, "
                                  f"n={whole.get('sessions.handshake', [0])[0]}"),
        "metrics.snapshot_ms": (stats["metrics_snapshot_s"] * 1e3, "ms",
                                "one metrics_snapshot() at the end"),
        "metrics.records": (stats["metrics_records"], "count", ""),
        "server.retained_kib_per_req": (
            (res["rss1_kib"] - res["rss0_kib"]) / reqs, "KiB",
            "RSS growth over the phases"),
        "host.effective_cores": (probe["effective_cores"], "cores",
                                 "parallel-capacity probe"),
        "host.loop_ms": (probe["loop_ms"], "ms", "speed probe, lower is faster"),
        "gen.late_p99_ms": (late_p99, "ms", "send past due, " + late_note),
        "trace.overhead_pct": ((cpu_traced / cpu_base - 1.0) * 100.0
                               if cpu_base else 0.0, "%",
                               f"cpu_ms_per_req traced {cpu_traced:.3f} vs "
                               f"untraced {cpu_base:.3f}"),
    })

    cpu_s = open_p.cpu_s + closed_p.cpu_s
    rows = []
    for layer, (c, b, own) in sorted(tot.items(), key=lambda kv: -kv[1][2]):
        rows.append((layer, c / reqs, b * 1e6 / reqs, own * 1e6 / reqs,
                     100.0 * own / cpu_s if cpu_s else 0.0))
    unwrapped = cpu_s - sum(own for _, _, own in tot.values())
    rows.append(("(not wrapped)", 0.0, 0.0, unwrapped * 1e6 / reqs,
                 100.0 * unwrapped / cpu_s if cpu_s else 0.0))
    return m, rows


def self_us_per_req(rows, prefixes) -> float:
    return sum(r[3] for r in rows if r[0].startswith(prefixes))


def print_phases(phases) -> None:
    head = ["phase", "attempted"] + list(OUTCOMES) + ["stray"]
    print("  ".join(f"{h:>13}" for h in head))
    for p in phases:
        cells = [p.name, p.attempted] + [p.counts.get(o, 0) for o in OUTCOMES]
        print("  ".join(f"{c:>13}" for c in cells + [p.stray]))
        if p.note:
            print(f"    {p.name}: {p.note}")


def print_report(wl, args, res: dict, probe: dict) -> dict:
    """Print the run's report; returns the closing JSON object."""
    host = host_signature(res["info"])
    host.update(probe)
    print(f"workload {wl.name}: {wl.why}")
    print(f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"open loop {wl.rate_rps:g} req/s, closed window "
          f"{CONNECTIONS} x {CLOSED_WINDOW}")
    print("host " + json.dumps(host, sort_keys=True))
    measured = ([res["base"]] if args.trace else []) + res["open"] + res["closed"]
    print_phases(res["warm"] + measured)
    late_p99, late_note = _tail(late_ms(res["open"]), 99)
    print(f"gen.late_p99_ms {late_p99:.3f} ms (send past due, {late_note})")
    print()
    if args.trace:
        metrics, rows = per_layer(res, probe)
        print(f"{'layer':<24}{'calls/req':>11}{'busy us/req':>13}"
              f"{'self us/req':>13}{'% server CPU':>14}")
        for layer, c, b, own, share in rows:
            print(f"{layer:<24}{c:>11.2f}{b:>13.1f}{own:>13.1f}{share:>14.1f}")
        front = self_us_per_req(rows, ("request.", "pump."))
        back = self_us_per_req(rows, ("xesim.", "native."))
        print(f"self us/req: request.* + pump.* {front:.1f}, "
              f"xesim.* + native.* {back:.1f}")
        print()
        for name, (value, unit, note) in metrics.items():
            print(f"{name:<30}{value:>14.4f} {unit:<9} {note}")
        out = {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()}
    else:
        e2e = end_to_end(res)
        for name, (value, unit, note) in e2e.items():
            print(f"{name:<16}{value:>12.4f} {unit:<6} {note}")
        out = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in GATED}
    attempted = sum(p.attempted for p in measured)
    failed = sum(p.failures for p in measured)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": out}
