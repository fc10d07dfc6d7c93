"""A/B: memoized timed chains vs. a per-kernel reference timeline.

The dispatcher simulates each op's kernel chain once per pool device and
submits a request's chain as one lane step.  The reference below is the
serving timeline without either shortcut, kept test-only like
``core/reference.py``: every request's chain is rebuilt from the
profiler, every kernel renamed into its lane and submitted through
``Queue.submit`` (which simulates it).  Both run in the same interpreter
on identical frames, so every simulated float must match exactly.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.serialize import save_galois_keys, save_relin_key, to_bytes
from repro.faults import FaultPlan, FaultRule, use_plan
from repro.fusion import LaunchGroup, batch_chains, plan_profiles
from repro.gpu.profiles import GpuConfig
from repro.runtime import queue as runtime_queue
from repro.server import BatchPolicy, HEServer
from repro.server import dispatcher as dispatcher_mod
from repro.server.dispatcher import BatchDispatcher
from repro.server.request import ServeRequest, encode_request
from repro.server.traffic import mixed_square_multiply_traffic
from repro.xesim.devices import DEVICE1, DEVICE2

POOL = [(DEVICE1, 2), (DEVICE2, 1)]


class ReferenceDispatcher(BatchDispatcher):
    """Per-kernel lane recording: rebuild, rename and submit every kernel."""

    def _record_lanes(self, pipe, pool_idx, chains, lanes, results):
        session = self.session
        profiler = self._profilers[pool_idx]
        raw = [
            (req, session.op_profiles(
                *session.chain_key(req.op, req.cts[0].level, req.meta,
                                   client_id=req.client_id), profiler))
            for req, _chain in chains
        ]
        self.raw_launches += sum(p.launches for _, c in raw for p in c)
        if self.fusion_enabled:
            groups = [
                LaunchGroup(g.request_ids, plan_profiles(g.profiles).profiles)
                for g in batch_chains(
                    [(req.request_id, profs) for req, profs in raw])
            ]
            laned = list(enumerate(groups))
        else:
            laned = [
                (lanes[req.request_id],
                 LaunchGroup((req.request_id,), tuple(profs)))
                for req, profs in raw
            ]
        self.submitted_launches += sum(g.launches for _, g in laned)
        by_id = {req.request_id: req for req, _ in raw}
        for lane, group in laned:
            for rid in group.request_ids:
                pipe.add_upload(by_id[rid].wire_bytes, lane=lane,
                                name=f"req:{rid}:inputs")
            tag = (group.request_ids[0] if group.width == 1
                   else f"{group.request_ids[0]}x{group.width}")
            for p in group.profiles:
                pipe.add_op(replace(p, name=f"req:{tag}:{p.name}"), lane=lane)
            for rid in group.request_ids:
                pipe.add_download(results[rid].data.nbytes, lane=lane,
                                  name=f"req:{rid}:result")


@pytest.fixture(scope="module")
def frames(ckks):
    """Mixed square/multiply traffic plus dot, rotate and multiply_plain.

    ``w3`` and ``w4`` have different lengths but the same rotation tree,
    so their dot chains are distinct memo keys with equal shapes — the
    fusion batcher must still merge them.  ``late`` carries a deadline
    that passes while its device is busy (the expiry shed).
    """
    enc, encryptor = ckks["encoder"], ckks["encryptor"]
    rng = np.random.default_rng(41)
    items = [(wire, t) for _rid, wire, t, _exp in mixed_square_multiply_traffic(
        enc, encryptor, requests=12, rng=rng, mean_gap_us=20.0)]

    def frame(rid, op, n_cts=1, deadline_ms=None, **meta):
        cts = [encryptor.encrypt(enc.encode(rng.normal(size=enc.slots)))
               for _ in range(n_cts)]
        return encode_request(ServeRequest(rid, op, cts, meta=meta,
                                           deadline_ms=deadline_ms))

    t = items[-1][1]
    extra = [
        frame("d3", "dot_plain", weights="w3"),
        frame("rot", "rotate", steps=1),
        frame("d4", "dot_plain", weights="w4"),
        frame("mp", "multiply_plain", weights="w4"),
        frame("d4b", "dot_plain", weights="w4"),
        frame("late", "square", deadline_ms=0.01),
        frame("d3b", "dot_plain", weights="w3"),
        frame("add", "add", n_cts=2),
    ]
    items += [(wire, t + 15.0 * (i + 1)) for i, wire in enumerate(extra)]
    return items


def _server(ckks, *, fusion=False, workers=0, reference=False,
            devices=POOL, max_batch=4):
    server = HEServer(
        ckks["params"], devices=list(devices),
        policy=BatchPolicy(max_batch=max_batch, window_us=100.0),
        gpu_config=GpuConfig(ntt_variant="local-radix-8", asm=True,
                             kernel_fusion=fusion),
        workers=workers,
    )
    if reference:
        server.dispatcher.__class__ = ReferenceDispatcher
    server.install_relin_key(to_bytes(save_relin_key, ckks["relin"]))
    server.install_galois_keys(to_bytes(save_galois_keys, ckks["galois"]))
    server.install_weights("w3", [0.5, -1.0, 2.0])
    server.install_weights("w4", [1.0, 0.25, -0.5, 3.0])
    return server


def _serve(ckks, frames, **kw):
    """Serve ``frames`` with one injected device failure; return the server."""
    plan = FaultPlan([FaultRule("dispatcher.device", "device_failure",
                                hits=(2,), max_fires=1, match="Device1")],
                     seed=3)
    server = _server(ckks, **kw)
    try:
        with use_plan(plan):
            for wire, t in frames:
                server.submit(wire, arrival_us=t)
            server.drain()
    finally:
        server.close()
    return server


def _timeline(server):
    rows = sorted(
        (r.request_id, r.status, r.device, r.dispatch_us, r.complete_us,
         r.batch_size)
        for r in (server.response(rid)
                  for rid in (q.request_id for q in server.request_log)))
    d = server.dispatcher
    return (rows, d.raw_launches, d.submitted_launches, d.requeued,
            d.expired, dict(server._free_at_us), server._clock_us)


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("fusion", [False, True])
def test_timeline_matches_per_kernel_reference(ckks, frames, fusion, workers):
    got = _serve(ckks, frames, fusion=fusion, workers=workers)
    ref = _serve(ckks, frames, fusion=fusion, workers=workers, reference=True)
    assert _timeline(got) == _timeline(ref)
    # Every ServerMetrics field but the pool's wall-clock worker stats.
    assert (replace(got.metrics, worker_stats=[])
            == replace(ref.metrics, worker_stats=[]))
    statuses = {row[1] for row in _timeline(got)[0]}
    assert statuses == {"ok", "expired"}
    assert got.dispatcher.requeued > 0
    for q in got.request_log:
        a, b = got.response(q.request_id), ref.response(q.request_id)
        if a.ok:
            for x, y in zip(a.result.data, b.result.data):
                np.testing.assert_array_equal(x, y)


def test_simulate_kernel_runs_on_memo_misses_only(ckks, monkeypatch):
    calls = []
    real = runtime_queue.simulate_kernel

    def counting(*args, **kw):
        calls.append(args[0].name)
        return real(*args, **kw)

    monkeypatch.setattr(runtime_queue, "simulate_kernel", counting)
    server = _server(ckks, devices=[(DEVICE1, 2)])
    rng = np.random.default_rng(2)
    enc, encryptor = ckks["encoder"], ckks["encryptor"]
    for i in range(6):
        ct = encryptor.encrypt(enc.encode(rng.normal(size=enc.slots)))
        server.submit(encode_request(ServeRequest(
            f"d{i}", "dot_plain", [ct], meta={"weights": "w4"})),
            arrival_us=300.0 * i)
    server.drain()
    (chain,) = server.dispatcher._chains.values()
    assert len(calls) == len(chain.profiles)
    assert all(server.response(f"d{i}").ok for i in range(6))


def test_memo_cap_evicts_oldest(ckks, frames, monkeypatch):
    monkeypatch.setattr(dispatcher_mod, "CHAIN_MEMO_CAP", 2)
    sub = frames[:12] + [frames[-1]]  # square, multiply, add
    got = _serve(ckks, sub)
    ref = _serve(ckks, sub, reference=True)
    assert _timeline(got) == _timeline(ref)
    memo = got.dispatcher._chains
    assert len(memo) == 2
    assert {k[1] for k in memo} <= {"square", "multiply", "add"}
    assert list(memo)[-1][1] == "add"


def test_reinstalled_weights_of_another_dim_serve_the_new_chain(ckks):
    enc, encryptor = ckks["encoder"], ckks["encryptor"]
    servers = [_server(ckks, devices=[(DEVICE2, 1)], reference=ref)
               for ref in (False, True)]
    ct = encryptor.encrypt(enc.encode(np.linspace(-1.0, 1.0, enc.slots)))
    lvl = ct.level
    for i, weights in enumerate(([1.0, 2.0, 3.0, 4.0], [1.0, 2.0])):
        wire = encode_request(ServeRequest(f"d{i}", "dot_plain", [ct],
                                           meta={"weights": "w"}))
        for server in servers:
            server.install_weights("w", weights)
            server.submit(wire, arrival_us=1000.0 * i)
            server.drain()
    got, ref = servers
    assert _timeline(got) == _timeline(ref)
    assert set(got.dispatcher._chains) == {(0, "dot_plain", lvl, 4),
                                           (0, "dot_plain", lvl, 2)}
    short = got.dispatcher._chains[(0, "dot_plain", lvl, 2)]
    long = got.dispatcher._chains[(0, "dot_plain", lvl, 4)]
    assert len(short.profiles) < len(long.profiles)


def test_missing_weights_stay_a_typed_error(ckks):
    enc, encryptor = ckks["encoder"], ckks["encryptor"]
    server = _server(ckks, devices=[(DEVICE2, 1)])
    for i in range(2):
        ct = encryptor.encrypt(enc.encode(np.ones(enc.slots)))
        server.submit(encode_request(ServeRequest(
            f"x{i}", "dot_plain", [ct], meta={"weights": "nope"})),
            arrival_us=500.0 * i)
        server.drain()
        resp = server.response(f"x{i}")
        assert resp.status == "error" and not resp.ok
        assert "no weights 'nope' installed" in resp.error
    assert server.dispatcher._chains == {}
