"""In-order device queues with asynchronous (non-blocking) submission.

Mirrors the paper's execution scheme (Fig. 2): the host submits kernels
and data transfers without blocking; the device drains them in order; the
host blocks only when it waits on an event (typically the final download
before decryption).

Submissions execute their Python payload immediately (the data is really
computed) while the *simulated* clocks advance per the xesim timing model:

* host clock += submission overhead (tiny);
* device clock += simulated kernel/copy duration, serialized in order.

:meth:`Queue.submit_chain` replays a whole pre-timed kernel chain (the
serving dispatcher's memoized per-kernel durations) in one call, with
the same per-kernel clock arithmetic as ``submit`` + ``host_sleep``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..xesim.device import DeviceSpec
from ..xesim.executor import simulate_kernel
from ..xesim.kernel import KernelProfile
from .event import Event, HostClock

__all__ = ["Queue"]

#: Host-side cost of enqueueing one command (non-blocking submission).
SUBMIT_OVERHEAD_US = 0.5
#: Host-side bookkeeping per operation (argument marshalling, graph walk).
HOST_WORK_PER_OP_US = 3.0


@dataclass
class Queue:
    """An in-order SYCL-like queue bound to (device, tile set)."""

    device: DeviceSpec
    tiles: int = 1
    clock: HostClock = field(default_factory=HostClock)
    device_time: float = 0.0
    events: List[Event] = field(default_factory=list)
    #: Total simulated device-busy seconds on this queue (running sum of
    #: kernel and copy durations).
    busy_time: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        if not 1 <= self.tiles <= self.device.tiles:
            raise ValueError(
                f"queue tiles must be in [1, {self.device.tiles}], got {self.tiles}"
            )

    # -- submission ---------------------------------------------------------------

    def submit(
        self,
        profile: KernelProfile,
        fn: Optional[Callable[[], None]] = None,
    ) -> Event:
        """Enqueue a kernel: run its payload now, advance simulated clocks."""
        if fn is not None:
            fn()
        self.clock.advance(SUBMIT_OVERHEAD_US * 1e-6)
        timing = simulate_kernel(profile, self.device, tiles=self.tiles)
        start = max(self.device_time, self.clock.now)
        end = start + timing.time_s
        self.device_time = end
        self.busy_time += timing.time_s
        ev = Event(
            name=profile.name,
            submit_host_time=self.clock.now,
            device_start=start,
            device_end=end,
            _clock=self.clock,
        )
        self.events.append(ev)
        return ev

    def submit_chain(self, name: str, durations: Sequence[float]) -> Event:
        """Enqueue a pre-timed in-order kernel chain as one event.

        Per kernel, in order, exactly the steps of ``submit`` followed by
        ``host_sleep(HOST_WORK_PER_OP_US * 1e-6)``: submission overhead,
        start at ``max(device_time, host now)``, run for its duration,
        host bookkeeping.  The clocks therefore end bit-identical to the
        per-kernel submissions; the returned event spans the chain (first
        kernel's submit and start, last kernel's end).
        """
        if not durations:
            raise ValueError("a kernel chain needs at least one kernel")
        submit_s = SUBMIT_OVERHEAD_US * 1e-6
        host_s = HOST_WORK_PER_OP_US * 1e-6
        now = self.clock.now
        device_time = self.device_time
        busy = self.busy_time
        first_submit = now + submit_s
        first_start = max(device_time, first_submit)
        for t in durations:
            now += submit_s
            start = device_time if device_time > now else now
            device_time = start + t
            busy += t
            now += host_s
        self.clock.now = now
        self.device_time = device_time
        self.busy_time = busy
        ev = Event(
            name=name,
            submit_host_time=first_submit,
            device_start=first_start,
            device_end=device_time,
            _clock=self.clock,
        )
        self.events.append(ev)
        return ev

    def memcpy(self, name: str, bytes_: int, fn: Optional[Callable[[], None]] = None,
               *, to_device: bool) -> Event:
        """Enqueue a host<->device copy over the (PCIe/fabric) link."""
        if fn is not None:
            fn()
        self.clock.advance(SUBMIT_OVERHEAD_US * 1e-6)
        link_gbs = 32.0  # PCIe-4 x16 class host link
        start = max(self.device_time, self.clock.now)
        duration = bytes_ / (link_gbs * 1e9)
        end = start + duration
        self.device_time = end
        self.busy_time += duration
        ev = Event(
            name=f"{'h2d' if to_device else 'd2h'}:{name}",
            submit_host_time=self.clock.now,
            device_start=start,
            device_end=end,
            _clock=self.clock,
        )
        self.events.append(ev)
        return ev

    def host_sleep(self, seconds: float) -> None:
        """Advance only the host clock (CPU-side work between submits)."""
        self.clock.advance(seconds)

    # -- synchronization --------------------------------------------------------------

    def wait(self) -> float:
        """Block until the queue drains; returns the host time."""
        for ev in self.events:
            ev.status = ev.status.__class__.COMPLETE
        self.clock.advance_to(self.device_time)
        return self.clock.now
