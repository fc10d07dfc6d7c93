"""Load generator: inputs, the server process, connections and phases.

One generator process drives one server process over ``CONNECTIONS``
TCP connections with two threads: the calling thread sends, and a
:class:`Receiver` thread reads every connection through one selector.
All request frames of a phase are encoded before the phase starts.

Every response is checked after its phase: an ``ok`` result must be
bit-identical to the in-process ``Evaluator`` result on the same inputs
and keys, and the first ``ok`` result of each distinct input is also
decrypted and compared with the plaintext answer.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import select
import selectors
import socket
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.apps.inference import rotation_steps_needed
from repro.core import (
    CkksContext,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
)
from repro.core.serialize import (
    from_bytes,
    load_relin_key,
    save_galois_keys,
    save_relin_key,
    to_bytes,
)
from repro.server import (
    NetClient,
    ServeRequest,
    decode_response,
    demo_deployment,
    encode_request,
)

from workloads import (
    CLOSED_WINDOW,
    CONNECTIONS,
    DEPLOY_SEED,
    PUMP_MS,
    WARMUP_PER_CONN,
    WEIGHTS_DIM,
    WEIGHTS_NAME,
    Workload,
    server_weights,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Build outputs, server stderr and layer traces of every run.
OUT = ROOT / ".bench_build" / "perfbench"

_LEN = struct.Struct("<I")

#: Largest difference between a decrypted result and the plaintext answer.
TOLERANCE = 1e-2
#: How long a phase waits for responses past its last send, at most.
RESPONSE_GRACE_S = 20.0
#: Socket timeout for connects, handshakes and blocking sends.
SOCKET_TIMEOUT_S = 20.0
#: Servers started per untraced run; ``setup_s`` is the median of their
#: set-up times.
SETUPS = 3

#: Terminal outcomes a request can get in the accounting.  The typed
#: server statuses, plus ``wrong`` (an ``ok`` whose result failed the
#: check), ``transport`` (the frame could not be sent) and ``timeout``
#: (no response before the phase ended).
OUTCOMES = ("ok", "error", "overloaded", "expired", "device_failed",
            "wrong", "transport", "timeout")


class SetupError(RuntimeError):
    """The server could not be started, connected to or warmed up."""


class Deadline:
    """A fixed end time every wait in a run is capped by."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self, cap: Optional[float] = None) -> float:
        left = max(0.0, self.end - time.perf_counter())
        return left if cap is None else min(cap, left)


# -- inputs ------------------------------------------------------------------


@dataclass
class Entry:
    """One distinct input: its ciphertexts, reference result and answer."""

    cts: list
    ref: object
    expected: np.ndarray
    checked: bool = False


@dataclass
class Client:
    """What one connection sends as: session id, keys, inputs."""

    client_id: str
    hello: Optional[dict]
    pool: List[Entry]
    encoder: object
    decryptor: object


def _entry(op: str, encoder, encryptor, ev: Evaluator, rlk, gk,
           rng: np.random.Generator) -> Entry:
    slots = encoder.slots
    if op == "dot_plain":
        x = rng.uniform(-1.0, 1.0, size=slots)
        ct = encryptor.encrypt(encoder.encode(x))
        w = server_weights()
        padded = np.zeros(slots)
        padded[:WEIGHTS_DIM] = w
        acc = ev.multiply_plain(ct, encoder.encode(padded, level=ct.level))
        for step in rotation_steps_needed(WEIGHTS_DIM):
            acc = ev.add(acc, ev.rotate(acc, step, gk))
        return Entry([ct], acc, np.array([float(np.dot(x[:WEIGHTS_DIM], w))]))
    a = rng.uniform(-1.0, 1.0, size=slots)
    b = rng.uniform(-1.0, 1.0, size=slots)
    cts = [encryptor.encrypt(encoder.encode(a)),
           encryptor.encrypt(encoder.encode(b))]
    if op == "add":
        return Entry(cts, ev.add(*cts), a + b)
    if op == "multiply":
        ref = ev.rescale(ev.relinearize(ev.multiply(*cts), rlk))
        return Entry(cts, ref, a * b)
    raise ValueError(f"no input recipe for op {op!r}")


def make_clients(wl: Workload, rng: np.random.Generator) -> List[Client]:
    """Per-connection clients and their encrypted inputs, all from ``rng``.

    Anonymous clients encrypt under the deployment's key, whose
    relinearization key the server holds.  Session clients generate
    their own keys and send them in their hello.
    """
    params, encoder, encryptor, decryptor, relin_wire = demo_deployment(
        degree=wl.degree, seed=DEPLOY_SEED)
    ctx = CkksContext(params)
    ev = Evaluator(ctx)
    clients = []
    for c in range(CONNECTIONS):
        if wl.sessions:
            keygen = KeyGenerator(ctx, seed=int(rng.integers(1 << 30)))
            enc = Encryptor(ctx, keygen.public_key(),
                            seed=int(rng.integers(1 << 30)))
            dec = Decryptor(ctx, keygen.secret_key())
            rlk = keygen.relin_key()
            gk = keygen.galois_keys(rotation_steps_needed(WEIGHTS_DIM))
            hello = {"relin_wire": to_bytes(save_relin_key, rlk),
                     "galois_wire": to_bytes(save_galois_keys, gk)}
            cid = f"client{c}"
        else:
            enc, dec, gk, hello, cid = encryptor, decryptor, None, None, ""
            rlk = from_bytes(load_relin_key, relin_wire)
        pool = [_entry(wl.op, encoder, enc, ev, rlk, gk, rng)
                for _ in range(wl.pool)]
        clients.append(Client(cid, hello, pool, encoder, dec))
    return clients


@dataclass
class Req:
    """One request of a phase and what happened to it."""

    rid: str
    conn: int
    entry: int
    frame: Optional[bytes]
    due: float = 0.0
    sent: float = 0.0
    recv: float = 0.0
    outcome: str = ""
    wait_ms: float = 0.0


def make_requests(wl: Workload, clients: List[Client], prefix: str, n: int,
                  rng: np.random.Generator) -> List[Req]:
    """``n`` encoded request frames, alternating connections."""
    meta = {"weights": WEIGHTS_NAME} if wl.op == "dot_plain" else {}
    reqs = []
    for i in range(n):
        c = i % CONNECTIONS
        client = clients[c]
        k = int(rng.integers(len(client.pool)))
        rid = f"{prefix}{i}"
        frame = encode_request(ServeRequest(
            rid, wl.op, client.pool[k].cts, meta=meta,
            client_id=client.client_id))
        reqs.append(Req(rid, c, k, _LEN.pack(len(frame)) + frame))
    return reqs


# -- the server process ------------------------------------------------------


class ServerProcess:
    """``server.py`` as a child process, commanded over its stdin/stdout."""

    def __init__(self, workload: str, stderr_path: Path, trace_out: str = ""):
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        cmd = [sys.executable, str(HERE / "server.py"), "--workload", workload]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        self.stderr_path = stderr_path
        self._stderr = open(stderr_path, "wb")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, cwd=str(ROOT), env=env)
        self.pid = self.proc.pid
        self.info: dict = {}
        self._cpu_s = 0.0

    def _reply(self, timeout_s: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        if not ready:
            raise SetupError(f"server sent no reply within {timeout_s:.0f} s")
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError("server exited: " + self.stderr_tail())
        return json.loads(line)

    def ready(self, timeout_s: float) -> dict:
        self.info = self._reply(timeout_s)
        return self.info

    def command(self, cmd: str, timeout_s: float) -> dict:
        try:
            self.proc.stdin.write(cmd.encode() + b"\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise SetupError(f"server gone: {exc}") from exc
        return self._reply(timeout_s)

    def alive(self) -> bool:
        return self.proc.poll() is None

    def cpu_s(self) -> float:
        """User + system CPU seconds of the server so far (``/proc/<pid>/stat``).

        Once the process is gone, the last value read.
        """
        try:
            with open(f"/proc/{self.pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:
            return self._cpu_s
        self._cpu_s = ((int(fields[11]) + int(fields[12]))
                       / os.sysconf("SC_CLK_TCK"))
        return self._cpu_s

    def status_kib(self, key: str) -> int:
        """One ``kB`` field of ``/proc/<pid>/status`` (``VmHWM``, ``VmRSS``);
        0 once the process is gone."""
        try:
            with open(f"/proc/{self.pid}/status") as fh:
                for line in fh:
                    if line.startswith(key + ":"):
                        return int(line.split()[1])
        except FileNotFoundError:
            pass
        return 0

    def stop(self, timeout_s: float = 30.0) -> Optional[int]:
        """Ask the server to quit; kill it if it does not; always reap it."""
        try:
            if self.proc.poll() is None:
                try:
                    self.proc.stdin.write(b"quit\n")
                    self.proc.stdin.close()
                except OSError:
                    pass
                try:
                    self.proc.wait(timeout_s)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(10.0)
        finally:
            self.proc.stdout.close()
            if not self.proc.stdin.closed:
                try:
                    self.proc.stdin.close()
                except OSError:
                    pass
            self._stderr.close()
        return self.proc.returncode

    def stderr_tail(self, limit: int = 2000) -> str:
        text = self.stderr_path.read_bytes()[-limit:].decode(errors="replace")
        return text.strip() or "(no stderr)"


# -- connections and phases --------------------------------------------------


class Receiver(threading.Thread):
    """Reads length-prefixed messages from every connection.

    Each message is kept with its connection and arrival time; decoding
    waits until the phase is over.  ``on_message(conn)`` runs on this
    thread after each message (the closed loop sends from it).
    """

    def __init__(self, socks: List[socket.socket], expected: Callable[[], int],
                 on_message: Optional[Callable[[int], None]] = None):
        super().__init__(name="perfbench-recv", daemon=True)
        self.socks = socks
        self.expected = expected
        self.on_message = on_message
        self.messages: List[tuple] = []
        self.closed = [False] * len(socks)
        self.error = ""
        #: Set once ``expected()`` messages arrived or reading ended.
        self.done = threading.Event()
        self._stop_evt = threading.Event()

    def run(self) -> None:
        sel = selectors.DefaultSelector()
        bufs = [bytearray() for _ in self.socks]
        try:
            for i, sock in enumerate(self.socks):
                sel.register(sock, selectors.EVENT_READ, i)
            while not self._stop_evt.is_set() and sel.get_map():
                if len(self.messages) >= self.expected():
                    self.done.set()
                for key, _ in sel.select(0.05):
                    i = key.data
                    try:
                        chunk = self.socks[i].recv(1 << 20)
                    except (BlockingIOError, socket.timeout):
                        continue
                    except OSError:
                        chunk = b""
                    if not chunk:
                        sel.unregister(self.socks[i])
                        self.closed[i] = True
                        continue
                    now = time.perf_counter()
                    buf = bufs[i]
                    buf += chunk
                    while len(buf) >= _LEN.size:
                        (size,) = _LEN.unpack_from(buf)
                        end = _LEN.size + size
                        if len(buf) < end:
                            break
                        self.messages.append((i, now, bytes(buf[_LEN.size:end])))
                        del buf[:end]
                        if self.on_message is not None:
                            self.on_message(i)
        except Exception as exc:  # reported by the phase, never swallowed
            self.error = f"{type(exc).__name__}: {exc}"
        finally:
            sel.close()
            self.done.set()

    def stop(self) -> None:
        self._stop_evt.set()
        self.join(5.0)


@dataclass
class Phase:
    """One phase's requests, raw responses and timing."""

    name: str
    reqs: List[Req]
    messages: List[tuple] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    cpu_s: float = 0.0
    note: str = ""
    counts: Dict[str, int] = field(default_factory=dict)
    stray: int = 0

    @property
    def attempted(self) -> int:
        return len(self.reqs)

    @property
    def failures(self) -> int:
        return self.attempted - self.counts.get("ok", 0)

    def answered(self) -> List[Req]:
        return [r for r in self.reqs if r.recv]


class Served:
    """A started server with its connections, sessions and warm-up done."""

    def __init__(self, server: ServerProcess, links: List[NetClient]):
        self.server = server
        self.links = links
        #: Launch to warm-up answered, in seconds.
        self.setup_s = 0.0

    @property
    def socks(self) -> List[socket.socket]:
        return [link.sock for link in self.links]

    def close(self) -> Optional[int]:
        for link in self.links:
            link.close()
        return self.server.stop()


def _send(sock: socket.socket, req: Req) -> None:
    req.sent = time.perf_counter()
    try:
        sock.sendall(req.frame)
    except OSError:
        req.outcome = "transport"
    req.frame = None


def _wait(phase: Phase, recv: Receiver, served: Served, deadline: Deadline,
          budget_s: float) -> None:
    """Block until every sent request has an answer, or give up."""
    end = time.perf_counter() + deadline.left(budget_s)
    while not recv.done.wait(0.1):
        if time.perf_counter() >= end:
            phase.note = "stopped waiting: responses missing at the deadline"
            break
        if not served.server.alive():
            phase.note = "server process exited"
            break
    if all(recv.closed):
        phase.note = "server closed every connection"
    recv.stop()
    if recv.error:
        phase.note = f"receiver failed: {recv.error}"
    phase.messages = recv.messages


def _gc_paused(fn: Callable) -> Callable:
    """Keep the generator's own garbage collector out of a timed phase."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        gc.collect()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


@_gc_paused
def open_loop(served: Served, phase: Phase, offsets_s,
              deadline: Deadline) -> Phase:
    """Send request ``i`` at ``offsets_s[i]`` from the start, whatever the
    server does; time each request from when it was due."""
    socks = served.socks
    in_flight = len(phase.reqs)
    recv = Receiver(socks, lambda: in_flight)
    recv.start()
    phase.cpu_s = served.server.cpu_s()
    t0 = phase.start = time.perf_counter() + 0.01
    for i, req in enumerate(phase.reqs):
        req.due = t0 + offsets_s[i]
        delay = req.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if deadline.left() <= RESPONSE_GRACE_S:
            # Out of run time: leave enough to collect, account and report.
            for unsent in phase.reqs[i:]:
                unsent.frame = None
                unsent.outcome = "timeout"
            in_flight -= len(phase.reqs) - i
            break
        _send(socks[req.conn], req)
        in_flight -= req.outcome == "transport"
    _wait(phase, recv, served, deadline, RESPONSE_GRACE_S)
    phase.end = max([phase.start] + [t for _, t, _ in phase.messages])
    phase.cpu_s = served.server.cpu_s() - phase.cpu_s
    return phase


@_gc_paused
def closed_loop(served: Served, phase: Phase, window: int,
                deadline: Deadline, budget_s: float) -> Phase:
    """Keep ``window`` requests in flight on every connection."""
    socks = served.socks
    queues = [[r for r in phase.reqs if r.conn == c] for c in range(len(socks))]
    queues = [list(reversed(q)) for q in queues]
    failed = [0]

    def send_next(conn: int) -> None:
        while queues[conn]:
            req = queues[conn].pop()
            _send(socks[conn], req)
            if req.outcome != "transport":
                return
            failed[0] += 1

    recv = Receiver(socks, lambda: len(phase.reqs) - failed[0],
                    on_message=send_next)
    phase.cpu_s = served.server.cpu_s()
    phase.start = time.perf_counter()
    for conn in range(len(socks)):
        for _ in range(window):
            send_next(conn)
    recv.start()
    _wait(phase, recv, served, deadline, budget_s)
    for q in queues:
        for req in q:
            req.frame = None
            req.outcome = "timeout"
    phase.end = max([phase.start] + [t for _, t, _ in phase.messages])
    phase.cpu_s = served.server.cpu_s() - phase.cpu_s
    return phase


def _same(a, b) -> bool:
    return (a.scale == b.scale and a.is_ntt == b.is_ntt
            and a.data.shape == b.data.shape and np.array_equal(a.data, b.data))


def _decrypts_right(client: Client, entry: Entry, result) -> bool:
    values = np.real(client.encoder.decode(client.decryptor.decrypt(result)))
    got = values[:len(entry.expected)]
    return bool(np.all(np.abs(got - entry.expected) <= TOLERANCE))


def account(phase: Phase, clients: List[Client]) -> Phase:
    """Decode and check every response; give every request one outcome."""
    by_rid = {r.rid: r for r in phase.reqs}
    for _conn, t_recv, msg in phase.messages:
        try:
            resp = decode_response(msg)
        except ValueError:  # FrameError, or a status the codec rejects
            phase.stray += 1
            continue
        req = by_rid.get(resp.request_id)
        if req is None or req.recv:
            phase.stray += 1
            continue
        req.recv = t_recv
        if resp.status != "ok":
            req.outcome = resp.status
            continue
        client = clients[req.conn]
        entry = client.pool[req.entry]
        ok = resp.result is not None and _same(resp.result, entry.ref)
        if ok and not entry.checked:
            ok = entry.checked = _decrypts_right(client, entry, resp.result)
        req.outcome = "ok" if ok else "wrong"
        req.wait_ms = (resp.dispatch_us - resp.arrival_us) * 1e-3
    phase.messages = []
    for req in phase.reqs:
        if not req.outcome:
            req.outcome = "timeout"
    phase.counts = {o: 0 for o in OUTCOMES}
    for req in phase.reqs:
        phase.counts[req.outcome] += 1
    return phase


# -- one run -----------------------------------------------------------------


class Run:
    """Inputs, servers and phases of one benchmark invocation."""

    def __init__(self, wl: Workload, seed: int, seconds: float,
                 deadline: Deadline):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.deadline = deadline
        self.rng = np.random.default_rng(seed)
        self.clients = make_clients(wl, self.rng)
        self.servers = 0

    def requests(self, prefix: str, n: int):
        return make_requests(self.wl, self.clients, prefix, n, self.rng)

    def launch(self, trace_out: str = ""):
        """Start a server; connect, hand-shake and warm up; time all of it."""
        self.servers += 1
        warm = Phase("warm-up", self.requests(
            f"w{self.servers}-", WARMUP_PER_CONN * CONNECTIONS))
        t0 = time.perf_counter()
        server = ServerProcess(
            self.wl.name, OUT / f"server-{self.wl.name}-{self.servers}.stderr",
            trace_out)
        links = []
        try:
            info = server.ready(self.deadline.left(60.0))
            for client in self.clients:
                link = NetClient("127.0.0.1", info["port"],
                                 client_id=client.client_id,
                                 timeout_s=SOCKET_TIMEOUT_S)
                links.append(link.connect())
                if client.hello is not None:
                    ack = link.hello(**client.hello)
                    if not ack.ok:
                        raise SetupError(f"hello refused: {ack.error}")
            served = Served(server, links)
            closed_loop(served, warm, WARMUP_PER_CONN, self.deadline, 60.0)
            served.setup_s = time.perf_counter() - t0
            account(warm, self.clients)
            if warm.failures:
                raise SetupError(
                    f"warm-up failed: {warm.counts} {warm.note} "
                    f"server stderr: {server.stderr_tail()}")
        except BaseException:
            for link in links:
                link.close()
            server.stop()
            raise
        return served, warm

    def open_phase(self, served: Served, n: int, tag: str) -> Phase:
        phase = Phase("open" + tag, self.requests(f"o{tag}-", n))
        # Request i is due at i/rate plus a uniform offset of up to one
        # pump period.  Without the offset every request would meet the
        # pump's cadence at one phase, a different one in every run;
        # Poisson arrivals would add bursts whose p99 varies run to run.
        offsets = (np.arange(n) / self.wl.rate_rps
                   + self.rng.random(n) * PUMP_MS * 1e-3)
        open_loop(served, phase, offsets, self.deadline)
        return account(phase, self.clients)

    def closed_phase(self, served: Served, n: int, tag: str) -> Phase:
        phase = Phase("closed" + tag, self.requests(f"c{tag}-", n))
        budget = RESPONSE_GRACE_S + 3.0 * n / self.wl.capacity_rps
        closed_loop(served, phase, CLOSED_WINDOW, self.deadline, budget)
        return account(phase, self.clients)

    def close(self, served) -> None:
        code = served.close()
        if code not in (0, None):
            print(f"server exited with code {code}: "
                  f"{served.server.stderr_tail()}", file=sys.stderr)


def untraced(run: Run) -> dict:
    """``SETUPS`` servers, each set up, then serving its share of both phases.

    Spreading the phases over several server processes averages out what
    differs from one process to the next (memory layout, thread placement).
    """
    n_open = run.wl.open_requests(run.seconds)
    n_closed = run.wl.closed_requests(run.seconds)
    res = {"setups": [], "warm": [], "open": [], "closed": [], "hwm_kib": 0}
    for k in range(SETUPS):
        served, warm = run.launch()
        res["setups"].append(served.setup_s)
        res["warm"].append(warm)
        res["info"] = served.server.info
        tag = f"-{k + 1}"
        try:
            res["open"].append(
                run.open_phase(served, _share(n_open, k), tag))
            res["closed"].append(
                run.closed_phase(served, _share(n_closed, k), tag))
            res["hwm_kib"] = max(res["hwm_kib"],
                                 served.server.status_kib("VmHWM"))
        finally:
            run.close(served)
    return res


def _share(n: int, k: int) -> int:
    """Server ``k``'s part of ``n`` requests split over ``SETUPS`` servers."""
    return n // SETUPS + (k < n % SETUPS)


def traced(run: Run) -> dict:
    """The open loop on an untraced server, then both phases traced."""
    n_open = run.wl.open_requests(run.seconds)
    n_closed = run.wl.closed_requests(run.seconds)
    served, _warm = run.launch()
    try:
        base = run.open_phase(served, n_open, "-untraced")
    finally:
        run.close(served)
    trace_path = OUT / f"trace-{run.wl.name}-{run.seed}.json"
    served, warm = run.launch(str(trace_path))
    try:
        info = served.server.info
        served.server.command("mark", 10.0)
        rss0 = served.server.status_kib("VmRSS")
        open_p = run.open_phase(served, n_open, "")
        closed_p = run.closed_phase(served, n_closed, "")
        rss1 = served.server.status_kib("VmRSS")
        hwm_kib = served.server.status_kib("VmHWM")
        stats = served.server.command("stats", 60.0)
    finally:
        run.close(served)
    trace = json.loads(trace_path.read_text())
    return {"info": info, "base": base, "warm": [warm], "open": [open_p],
            "closed": [closed_p], "hwm_kib": hwm_kib, "rss0_kib": rss0,
            "rss1_kib": rss1, "stats": stats, "trace": trace}
