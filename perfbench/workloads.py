"""Workload definitions shared by the load generator and the server harness.

Each workload is one traffic mix against one server process.  The
server's deployment (CKKS parameters, shared relinearization key, the
dot-product weights) is fixed by ``DEPLOY_SEED``; everything the
generator sends -- plaintext inputs, session-client keys, request
order -- comes from the workload seed given on the command line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Seed of ``demo_deployment`` on both sides: the server installs the
#: shared relinearization key it yields, and the generator encrypts under
#: the matching public key.
DEPLOY_SEED = 2022

#: Serving configuration of the socket soak: one DEVICE1 with two tiles,
#: batches of up to 8 within a 500 us window, a 2 ms pump, inline
#: evaluation (no worker pool).
MAX_BATCH = 8
WINDOW_US = 500.0
PUMP_MS = 2.0

#: Name and width of the plaintext weight vector ``dot_plain`` uses.
WEIGHTS_NAME = "w16"
WEIGHTS_DIM = 16

#: Requests each connection keeps in flight in the closed-loop phase:
#: two full batches, so a full batch is always queued and the phase
#: measures capacity rather than how batches happen to form.
CLOSED_WINDOW = 2 * MAX_BATCH
#: Requests per connection sent closed-loop before timing starts.
WARMUP_PER_CONN = 8
#: The generator drives the server over this many TCP connections.
CONNECTIONS = 2


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    ``rate_rps`` is the open-loop arrival rate.  The open-loop phase sends
    ``rate_rps * open_share * seconds`` requests and the closed-loop phase
    ``capacity_rps * closed_share * seconds``, so both phases are a fixed
    number of requests for a given run length.  ``capacity_rps`` is the
    closed-loop throughput measured when the workload was defined; it
    sizes the phase, nothing more.
    """

    name: str
    why: str
    degree: int
    op: str
    rate_rps: float
    capacity_rps: float
    open_share: float
    closed_share: float
    #: Distinct encrypted inputs per connection; requests cycle through them.
    pool: int
    #: Session clients (each with its own keys) instead of anonymous ones.
    sessions: bool = False

    def open_requests(self, seconds: float) -> int:
        return max(1, int(round(self.rate_rps * self.open_share * seconds)))

    def closed_requests(self, seconds: float) -> int:
        return max(CONNECTIONS * CLOSED_WINDOW,
                   int(round(self.capacity_rps * self.closed_share * seconds)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="add-n1024",
            why=("N=1024 add at 100 req/s: HE math is a small share of "
                 "server CPU, so codec, transport, pump and batch wait "
                 "dominate"),
            degree=1024, op="add", rate_rps=100.0, capacity_rps=650.0,
            open_share=0.6, closed_share=0.1, pool=16,
        ),
        Workload(
            name="mul-n4096",
            why=("N=4096 multiply-relinearize-rescale at 40 req/s, about "
                 "half capacity: native kernels, simulator bookkeeping "
                 "and codec each take a share"),
            degree=4096, op="multiply", rate_rps=40.0, capacity_rps=80.0,
            open_share=0.75, closed_share=0.25, pool=8,
        ),
        Workload(
            name="dot-n4096",
            why=("N=4096 dot_plain from two session clients with their own "
                 "keys: Galois key switching, artifact cache, sessions and "
                 "about 780 simulated kernels per request"),
            degree=4096, op="dot_plain", rate_rps=10.0, capacity_rps=34.0,
            open_share=0.7, closed_share=0.25, pool=8, sessions=True,
        ),
    )
}


def server_weights() -> np.ndarray:
    """The 16-wide weight vector the server installs for ``dot_plain``."""
    return np.random.default_rng(DEPLOY_SEED).uniform(-1.0, 1.0,
                                                      size=WEIGHTS_DIM)
