"""Session clocks: who owns time during a ``wait``.

* :class:`VirtualClock` — the *client* owns time.  After the server
  grants a wait deadline, it simply awaits the client's next frame
  (``output`` or ``quiet``), whose ``delay`` field is taken at face
  value (and validated against the deadline by the session).  Logical
  time runs as fast as the wire: deterministic, and what the parity
  tests and perfbench's ``serve`` workload use.

* :class:`RealTimeClock` — the *server* owns time.  A wait deadline of
  ``d`` time units is armed as a wall-clock timer of ``d * timescale``
  seconds; if the client's ``output`` frame arrives first, its delay is
  *stamped by the server* from the measured wall time (quantized to
  ``resolution`` time units, capped at the deadline — client-supplied
  delays are ignored), and an expired timer synthesizes the ``quiet``
  frame.  This is the UPPAAL-TRON deployment mode against live
  implementations.

Both expose one coroutine::

    frame = await clock.observe(recv, deadline)

where ``recv`` awaits the next client frame and ``deadline`` is the
granted wait in model time units.
"""

from __future__ import annotations

import asyncio
from fractions import Fraction
from typing import Awaitable, Callable, Optional

from .protocol import ProtocolError, encode_delay

__all__ = ["RealTimeClock", "VirtualClock", "make_clock"]

Recv = Callable[[], Awaitable[dict]]


class VirtualClock:
    """Client-owned logical time (deterministic; the default)."""

    mode = "virtual"

    def __init__(self, observe_timeout: Optional[float] = None):
        #: Wall-clock guard against a peer that never answers a wait;
        #: None trusts the transport (tests, loopback).
        self.observe_timeout = observe_timeout

    async def observe(self, recv: Recv, deadline: Fraction) -> dict:
        if self.observe_timeout is None:
            return await recv()
        try:
            return await asyncio.wait_for(recv(), timeout=self.observe_timeout)
        except asyncio.TimeoutError:
            raise ProtocolError(
                f"peer answered no wait frame within {self.observe_timeout}s"
            ) from None


class RealTimeClock:
    """Server-owned wall-clock time (online testing against live IUTs)."""

    mode = "realtime"

    def __init__(
        self,
        timescale: float = 1.0,
        resolution: Fraction = Fraction(1, 100),
    ):
        if timescale <= 0:
            raise ValueError("timescale must be positive")
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        #: Wall seconds per model time unit.
        self.timescale = timescale
        #: Grid (in model time units) observed delays are quantized to;
        #: exact rationals keep the monitors' DBM arithmetic sound.
        self.resolution = resolution

    def _quantize(self, seconds: float, deadline: Fraction) -> Fraction:
        units = Fraction(seconds) / Fraction(self.timescale)
        snapped = round(units / self.resolution) * self.resolution
        if snapped < 0:
            return Fraction(0)
        return min(snapped, deadline)

    async def observe(self, recv: Recv, deadline: Fraction) -> dict:
        loop = asyncio.get_running_loop()
        start = loop.time()
        try:
            frame = await asyncio.wait_for(
                recv(), timeout=float(deadline) * self.timescale
            )
        except asyncio.TimeoutError:
            return {"type": "quiet", "delay": encode_delay(deadline)}
        stamped = self._quantize(loop.time() - start, deadline)
        if frame.get("type") in ("output", "quiet"):
            frame = dict(frame)
            frame["delay"] = encode_delay(stamped)
        return frame


def make_clock(
    mode: str,
    *,
    timescale: float = 1.0,
    resolution: Fraction = Fraction(1, 100),
    observe_timeout: Optional[float] = None,
):
    """A clock from its CLI/hello name (``virtual`` | ``realtime``)."""
    if mode == "virtual":
        return VirtualClock(observe_timeout=observe_timeout)
    if mode == "realtime":
        return RealTimeClock(timescale=timescale, resolution=resolution)
    raise ValueError(f"unknown clock mode {mode!r} (virtual | realtime)")
