"""Client-side driver: a :class:`SimulatedImplementation` on the wire.

The mirror image of the in-process executor loop: where
:class:`~repro.testing.executor.TestExecutor` answers session actions
with direct method calls, :class:`IUTClient` answers the server's
``input``/``wait`` frames on behalf of a simulated implementation —
byte-for-byte the same event stream, so the verdict parity tests compare
a loopback run against ``TestExecutor.run()`` at a fixed seed.

Also the reference for wiring a *real* implementation: anything that can
answer ``input`` frames with ``input-result`` and ``wait`` frames with
``output``/``quiet`` is a valid peer.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Tuple, Union

from ..testing.implementation import SimulatedImplementation
from ..testing.session import SessionConfig
from ..testing.trace import FAIL, INCONCLUSIVE, PASS
from ..util import counters
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_delay,
    encode_frame,
    frame_field,
    parse_delay,
    updates_from_wire,
)

__all__ = ["IUTClient", "run_remote_test", "session_config_payload"]

#: The synthetic terminal frame for a connection that died without a
#: verdict — the one outcome :func:`run_remote_test` retries.
_CONN_LOST = "connection closed without a verdict"

#: The field names and enumerated values of terminal frames.  Callers
#: keep the frame :meth:`IUTClient.run_session` returns (a load generator
#: keeps one per session), so it is rebuilt on these strings instead of
#: holding its own decoded copies.  The table is fixed: reasons, traces,
#: unknown keys and any other text the peer chooses stay as decoded.
_TERMINAL_WORDS = {
    word: word
    for word in (
        "type",
        "session",
        "verdict",
        "reason",
        "iterations",
        "trace",
        "evicted",
        "stalled",
        "profile",
        "error",
        "message",
        PASS,
        FAIL,
        INCONCLUSIVE,
    )
}


def _terminal(frame: dict) -> dict:
    """``frame`` with its known words replaced by :data:`_TERMINAL_WORDS`."""
    word = _TERMINAL_WORDS.get
    return {
        word(key, key): word(value, value) if type(value) is str else value
        for key, value in frame.items()
    }


def session_config_payload(
    config: Union[SessionConfig, dict, None], *, profile: bool = False
) -> Optional[dict]:
    """The ``hello.config`` wire payload for a session config."""
    if isinstance(config, dict):
        payload = dict(config)
    elif isinstance(config, SessionConfig):
        payload = {
            "max_iterations": config.max_iterations,
            "max_states": config.max_states,
            "relativized": config.relativized,
        }
    elif config is None:
        payload = {}
    else:
        raise TypeError(f"config must be SessionConfig or dict: {config!r}")
    if profile:
        payload["profile"] = True
    return payload or None


class IUTClient:
    """One connection to a test server; sessions run sequentially."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "IUTClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    @classmethod
    async def connect_unix(cls, path: str) -> "IUTClient":
        reader, writer = await asyncio.open_unix_connection(path)
        return cls(reader, writer)

    @classmethod
    async def connect_retry(
        cls,
        host: str,
        port: int,
        *,
        attempts: int = 5,
        base_delay: float = 0.05,
    ) -> "IUTClient":
        """Connect with exponential backoff — rides out a server that
        is still starting, restarting, or finishing a drain."""
        delay = base_delay
        last: Optional[Exception] = None
        for attempt in range(max(1, attempts)):
            try:
                return await cls.connect(host, port)
            except (ConnectionError, OSError) as err:
                last = err
                counters.inc("client.connect_retries")
                if attempt + 1 < attempts:
                    await asyncio.sleep(delay)
                    delay *= 2
        raise ConnectionError(
            f"could not connect to {host}:{port}"
            f" after {attempts} attempts: {last}"
        )

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "IUTClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------

    async def _send(self, frame: dict) -> None:
        self.writer.write(encode_frame(frame))
        await self.writer.drain()

    async def _read(self) -> Optional[dict]:
        line = await self.reader.readline()
        if not line:
            return None  # server closed (eviction lands as a verdict first)
        return decode_frame(line.rstrip(b"\r\n"))

    async def ping(self) -> dict:
        """Heartbeat: send ``ping``, wait for the ``pong``.  Resets the
        server's idle deadline; use between sessions (mid-session the
        :meth:`run_session` loop absorbs stray pongs)."""
        await self._send({"type": "ping"})
        frame = await self._read()
        if frame is None:
            raise ConnectionError("connection closed during ping")
        if frame.get("type") != "pong":
            raise ProtocolError(f"expected pong, got {frame.get('type')!r}")
        return frame

    async def run_session(
        self,
        implementation: SimulatedImplementation,
        spec: dict,
        *,
        config: Union[SessionConfig, dict, None] = None,
        profile: bool = False,
    ) -> dict:
        """Drive one full session; returns the terminal frame.

        The terminal frame is a ``verdict`` (possibly with
        ``"evicted": true``) or an ``error``; a connection that dies
        without one is reported as a synthetic ``error`` frame.
        """
        imp = implementation
        imp.reset()
        hello = {
            "type": "hello",
            "protocol": PROTOCOL_VERSION,
            "spec": spec,
        }
        payload = session_config_payload(config, profile=profile)
        if payload:
            hello["config"] = payload
        await self._send(hello)
        while True:
            frame = await self._read()
            if frame is None:
                return {"type": "error", "message": _CONN_LOST}
            kind = frame["type"]
            if kind in ("ready", "pong"):
                continue
            if kind in ("verdict", "error"):
                return _terminal(frame)
            if kind == "input":
                label = frame_field(frame, "label", str)
                updates = updates_from_wire(frame.get("updates"))
                accepted = imp.give_input(label, updates)
                await self._send(
                    {"type": "input-result", "accepted": accepted}
                )
            elif kind == "wait":
                deadline = parse_delay(
                    frame.get("deadline"), field="deadline"
                )
                pending = imp.next_output()
                if pending is not None and pending.delay <= deadline:
                    # The implementation acts first (or simultaneously);
                    # an internal move is a partial quiet elapse.
                    d = pending.delay
                    out = imp.advance(d)
                    if out is None:
                        await self._send(
                            {"type": "quiet", "delay": encode_delay(d)}
                        )
                    else:
                        await self._send(
                            {
                                "type": "output",
                                "delay": encode_delay(d),
                                "label": out,
                            }
                        )
                else:
                    imp.advance(deadline)
                    await self._send(
                        {"type": "quiet", "delay": encode_delay(deadline)}
                    )
            else:
                raise ProtocolError(f"unexpected server frame {kind!r}")


def run_remote_test(
    address: Union[Tuple[str, int], str],
    implementation: SimulatedImplementation,
    spec: dict,
    *,
    config: Union[SessionConfig, dict, None] = None,
    profile: bool = False,
    retries: int = 0,
    backoff: float = 0.05,
) -> dict:
    """Synchronous one-shot: connect, run one session, disconnect.

    ``address`` is ``(host, port)`` for TCP or a path string for a UNIX
    socket.  Returns the terminal frame.

    With ``retries`` > 0, a connection that dies *without a verdict*
    (refused connect, mid-session drop) is retried up to that many
    times with exponential ``backoff``, reconnecting from scratch —
    fail-sound, because the session restarts from ``hello`` with the
    implementation reset, never resuming a half-run.  Server ``error``
    frames and real verdicts are final, never retried.
    """

    async def connect() -> IUTClient:
        if isinstance(address, str):
            return await IUTClient.connect_unix(address)
        return await IUTClient.connect(*address)

    async def go() -> dict:
        frame = {"type": "error", "message": _CONN_LOST}
        for attempt in range(max(1, retries + 1)):
            if attempt:
                counters.inc("client.reconnects")
                await asyncio.sleep(backoff * (2 ** (attempt - 1)))
            try:
                client = await connect()
            except (ConnectionError, OSError) as err:
                frame = {
                    "type": "error",
                    "message": f"{_CONN_LOST}: connect failed: {err}",
                }
                continue
            try:
                async with client:
                    frame = await client.run_session(
                        implementation, spec, config=config, profile=profile
                    )
            except (
                ConnectionError,
                OSError,
                asyncio.IncompleteReadError,
            ) as err:
                frame = {
                    "type": "error",
                    "message": f"{_CONN_LOST}: {err}",
                }
                continue
            if frame.get("type") == "error" and str(
                frame.get("message", "")
            ).startswith(_CONN_LOST):
                continue  # transient: the connection died verdict-less
            return frame
        return frame

    return asyncio.run(go())
