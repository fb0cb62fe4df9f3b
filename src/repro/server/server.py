"""The asyncio test server: many sessions, one event loop.

One :class:`TestServer` multiplexes any number of concurrent
implementations-under-test, each on its own TCP or UNIX-socket
connection speaking the newline-JSON protocol of
:mod:`repro.server.protocol`.  Per connection the handler runs sessions
*sequentially* (hello → frames → verdict, repeat until EOF); across
connections everything interleaves on the loop.

Division of labour:

* the sans-IO :class:`~repro.testing.session.TestSession` makes every
  testing decision — the handler only moves frames, so verdicts are
  identical to the in-process :class:`~repro.testing.executor.TestExecutor`
  by construction;
* :class:`~repro.server.registry.SpecResolver` shares compiled systems
  and synthesized strategies across sessions (synthesis runs in a worker
  thread so the loop keeps serving);
* :class:`~repro.server.registry.SessionRegistry` enforces the global
  tracked-state budget, fed live through each session monitor's
  :class:`~repro.semantics.compose.StateEstimate` growth hook;
* a :mod:`clock <repro.server.clocks>` decides who owns time during
  waits (client-owned virtual time or server-stamped wall time).

Error containment: any protocol violation costs *that session* an
``error`` frame and its connection — the server and every other session
keep running.

Degradation under faults (network or injected, see :mod:`repro.faults`):

* a peer that goes silent past ``idle_timeout`` costs its session a
  fail-sound INCONCLUSIVE verdict (reason: idle deadline), never a
  parked handler task — clients keep a long wait alive with ``ping``
  frames, answered ``pong`` at any read point;
* a peer that vanishes mid-frame releases its registry seat on the spot
  (``server.disconnects`` counter + registry ``disconnected`` stat), so
  a flapping client can never leak sessions or tracked-state budget;
* :meth:`TestServer.drain` is the SIGTERM path: stop accepting, give
  in-flight sessions ``drain_grace`` seconds to finish on their own,
  then evict the stragglers to INCONCLUSIVE — no verdict is ever
  invented, no connection is left ambiguous.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Set, Tuple

from .. import faults

from ..testing.session import (
    Finish,
    SendInput,
    SessionConfig,
    SessionProtocolError,
    TestSession,
    Wait,
)
from ..testing.trace import INCONCLUSIVE
from ..util import counters
from .clocks import make_clock
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_delay,
    encode_frame,
    frame_field,
    parse_delay,
    updates_to_wire,
)
from .registry import SessionRegistry, SpecResolver

__all__ = ["ServerConfig", "TestServer"]

#: StreamReader line limit: above the protocol cap so oversized frames
#: reach :func:`decode_frame` (clean error) instead of a raw ValueError.
_READ_LIMIT = MAX_FRAME_BYTES + 4096

#: ``hello.config`` keys mapped straight onto :class:`SessionConfig`.
_CONFIG_FIELDS = {
    "max_iterations": int,
    "max_states": int,
    "relativized": bool,
}


class _Closed(Exception):
    """Peer closed the connection (EOF on the reader)."""


class _Stalled(Exception):
    """Peer went silent past the idle deadline (no frame, no ping)."""


@dataclass
class ServerConfig:
    """Everything ``python -m repro.server`` can tune."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port off the server
    unix_path: Optional[str] = None  # set → UNIX socket instead of TCP
    clock: str = "virtual"
    timescale: float = 1.0  # realtime: wall seconds per model time unit
    resolution: Fraction = Fraction(1, 100)
    observe_timeout: Optional[float] = None  # virtual-clock wall guard
    max_sessions: int = 1024
    state_budget: int = 100_000  # global tracked-states budget
    session: SessionConfig = field(default_factory=SessionConfig)
    time_limit: Optional[float] = None  # strategy-synthesis budget
    allow_cooperative: bool = True
    warm_cache: Optional[str] = None  # win-set solve cache directory
    #: Seconds a connection may sit frame-less before its session is
    #: closed with a fail-sound INCONCLUSIVE verdict.  ``ping`` frames
    #: (answered ``pong``) reset the deadline, so a slow client stays
    #: alive by heartbeating.  None = wait forever (the seed behaviour).
    idle_timeout: Optional[float] = None
    #: Seconds :meth:`TestServer.drain` lets in-flight sessions finish
    #: before evicting them to INCONCLUSIVE.
    drain_grace: float = 5.0


class TestServer:
    """Accept connections and run test sessions until closed."""

    __test__ = False  # not a pytest test class, despite the name

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.resolver = SpecResolver(
            time_limit=self.config.time_limit,
            allow_cooperative=self.config.allow_cooperative,
            warm_cache=self.config.warm_cache,
        )
        self.registry = SessionRegistry(
            max_sessions=self.config.max_sessions,
            max_total_states=self.config.state_budget,
        )
        self.clock = make_clock(
            self.config.clock,
            timescale=self.config.timescale,
            resolution=self.config.resolution,
            observe_timeout=self.config.observe_timeout,
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: Set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise RuntimeError("server already started")
        if self.config.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_connection,
                path=self.config.unix_path,
                limit=_READ_LIMIT,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port,
                limit=_READ_LIMIT,
            )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (TCP) or ``(path, 0)`` (UNIX)."""
        if self._server is None:
            raise RuntimeError("server not started")
        if self.config.unix_path is not None:
            return (self.config.unix_path, 0)
        host, port = self._server.sockets[0].getsockname()[:2]
        return (host, port)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def drain(self, grace: Optional[float] = None) -> dict:
        """Graceful shutdown (the SIGTERM path): stop accepting, give
        in-flight sessions ``grace`` seconds (default
        ``config.drain_grace``) to finish on their own, then evict the
        stragglers to fail-sound INCONCLUSIVE verdicts.  Returns the
        post-drain :meth:`stats` snapshot."""
        if grace is None:
            grace = self.config.drain_grace
        counters.inc("server.drains")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        pending = {task for task in self._conn_tasks if not task.done()}
        if pending:
            _, pending = await asyncio.wait(pending, timeout=grace)
        if pending:
            # Grace expired: cut every live session the fail-sound way
            # (verdict frame queued, transport closed) and reap idle
            # connections that have no session to evict.
            self.registry.evict_all("server draining: grace period expired")
            _, pending = await asyncio.wait(pending, timeout=1.0)
            for task in pending:
                task.cancel()
        return self.stats()

    async def __aenter__(self) -> "TestServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def stats(self) -> dict:
        """Registry + resolver stats (JSON-friendly)."""
        out = self.registry.stats.to_dict()
        out["live_sessions"] = len(self.registry)
        out["total_states"] = self.registry.total_states
        out["bundles"] = len(self.resolver)
        return out

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        counters.inc("server.connections")
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    frame = await self._read_frame(reader, writer)
                    again = await self._run_session(frame, reader, writer)
                except ProtocolError as err:
                    await self._send_error(writer, str(err))
                    return
                except _Closed:
                    return
                except _Stalled:
                    # Idle between sessions: nothing to verdict, just
                    # reclaim the connection.
                    await self._send_error(writer, "idle deadline exceeded")
                    return
                if not again:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            return  # peer vanished; its session was released in _run_session
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            # close() flushes buffered frames at the transport layer; not
            # awaiting wait_closed keeps loop shutdown from surfacing a
            # CancelledError out of every parked handler task.
            writer.close()

    async def _read_line(self, reader: asyncio.StreamReader) -> bytes:
        stall = faults.should_fire("server.conn.stall")

        async def attempt() -> bytes:
            if stall:
                # Injected silent peer: sit on the wire without a frame
                # so the idle deadline (when armed) does its job.
                await asyncio.sleep(faults.hang_seconds())
            return await reader.readline()

        timeout = self.config.idle_timeout
        if timeout is None:
            return await attempt()
        try:
            return await asyncio.wait_for(attempt(), timeout)
        except asyncio.TimeoutError:
            counters.inc("server.idle_timeouts")
            raise _Stalled() from None

    async def _read_frame(
        self,
        reader: asyncio.StreamReader,
        writer: Optional[asyncio.StreamWriter] = None,
    ) -> dict:
        while True:
            if faults.should_fire("server.conn.drop"):
                # Injected mid-frame disconnect: kill the transport so
                # the peer sees a dead connection, then unwind exactly
                # like a real peer close.
                if writer is not None:
                    writer.close()
                raise _Closed()
            try:
                line = await self._read_line(reader)
            except ValueError as err:
                # StreamReader overran its line limit: oversized frame.
                raise ProtocolError(
                    f"frame exceeds {MAX_FRAME_BYTES} bytes: {err}"
                )
            except (ConnectionError, asyncio.IncompleteReadError):
                raise _Closed() from None
            if not line:
                raise _Closed()
            frame = decode_frame(line.rstrip(b"\r\n"))
            if frame.get("type") == "ping" and writer is not None:
                # Heartbeat: answer and keep reading — the next
                # _read_line restarts the idle deadline.
                counters.inc("server.pings")
                await self._send(writer, {"type": "pong"})
                continue
            return frame

    async def _send(self, writer: asyncio.StreamWriter, frame: dict) -> None:
        writer.write(encode_frame(frame))
        try:
            await writer.drain()
        except ConnectionError:
            raise _Closed() from None

    async def _send_error(
        self, writer: asyncio.StreamWriter, message: str
    ) -> None:
        counters.inc("server.protocol_errors")
        try:
            await self._send(writer, {"type": "error", "message": message})
        except _Closed:
            pass

    # ------------------------------------------------------------------
    # One session
    # ------------------------------------------------------------------

    def _parse_hello(
        self, frame: dict
    ) -> Tuple[dict, SessionConfig, bool]:
        if frame["type"] != "hello":
            raise ProtocolError(
                f"expected a hello frame, got {frame['type']!r}"
            )
        version = frame_field(frame, "protocol", int, required=False)
        if version is not None and version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version {version} unsupported"
                f" (server speaks {PROTOCOL_VERSION})"
            )
        spec = frame_field(frame, "spec", dict)
        payload = frame_field(frame, "config", dict, required=False)
        config = self.config.session
        profile = False
        if payload:
            overrides = {}
            for name, value in payload.items():
                if name == "profile":
                    if not isinstance(value, bool):
                        raise ProtocolError("config.profile must be a bool")
                    profile = value
                    continue
                kind = _CONFIG_FIELDS.get(name)
                if kind is None:
                    raise ProtocolError(f"unknown config field {name!r}")
                if not isinstance(value, kind) or (
                    kind is int and isinstance(value, bool)
                ):
                    raise ProtocolError(
                        f"config.{name} must be {kind.__name__}"
                    )
                overrides[name] = value
            if overrides:
                config = config.replace(**overrides)
        return spec, config, profile

    def _make_evictor(self, writer: asyncio.StreamWriter, sid: int):
        def evict(reason: str) -> None:
            # Runs synchronously inside a registry call (possibly from
            # another session's step): queue the closing frame and close;
            # the victim's pending read then sees EOF.
            try:
                writer.write(
                    encode_frame(
                        {
                            "type": "verdict",
                            "session": sid,
                            "verdict": INCONCLUSIVE,
                            "reason": reason,
                            "iterations": 0,
                            "evicted": True,
                        }
                    )
                )
                writer.close()
            except (ConnectionError, OSError, RuntimeError):
                pass

        return evict

    async def _run_session(
        self,
        hello: dict,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Serve one session; True to keep the connection for another."""
        spec, config, profile = self._parse_hello(hello)
        bundle = await asyncio.to_thread(self.resolver.resolve, spec)
        session = TestSession(bundle.strategy, bundle.plant, config)
        handle = self.registry.admit(self._make_evictor(writer, 0))
        handle.evict = self._make_evictor(writer, handle.sid)
        ops: Dict[str, int] = {}
        counters.inc("server.sessions")

        def on_growth(n: int) -> None:
            # Estimate grew *mid-step*: charge the budget immediately so
            # one exploding session backpressures before the step ends.
            self.registry.touch(handle, max(1, n))

        def step(fn, *args):
            # Every synchronous session step; optional per-session op
            # profile via counter capture (sync block: no awaits inside).
            if profile:
                with counters.capture(ops):
                    action = fn(*args)
            else:
                action = fn(*args)
            self._install_growth_hook(session, on_growth)
            self.registry.touch(handle, max(1, session.tracked_states))
            return action

        try:
            action = step(session.start)
            await self._send(
                writer,
                {
                    "type": "ready",
                    "session": handle.sid,
                    "protocol": PROTOCOL_VERSION,
                    "winning": bundle.winning,
                },
            )
            while True:
                if handle.evicted is not None:
                    return False  # closing frame already queued by evict()
                if isinstance(action, Finish):
                    run = action.run
                    verdict = {
                        "type": "verdict",
                        "session": handle.sid,
                        "verdict": run.verdict,
                        "reason": run.reason,
                        "iterations": run.iterations,
                        "trace": str(run.trace),
                    }
                    if profile:
                        verdict["profile"] = ops
                    await self._send(writer, verdict)
                    counters.inc("server.verdicts")
                    return True
                if isinstance(action, SendInput):
                    await self._send(
                        writer,
                        {
                            "type": "input",
                            "session": handle.sid,
                            "label": action.label,
                            "updates": updates_to_wire(action.updates),
                        },
                    )
                    frame = await self._read_frame(reader, writer)
                    if frame["type"] != "input-result":
                        raise ProtocolError(
                            f"expected input-result, got {frame['type']!r}"
                        )
                    accepted = frame_field(frame, "accepted", bool)
                    action = step(session.on_input_result, accepted)
                elif isinstance(action, Wait):
                    await self._send(
                        writer,
                        {
                            "type": "wait",
                            "session": handle.sid,
                            "deadline": encode_delay(action.deadline),
                        },
                    )
                    frame = await self.clock.observe(
                        lambda: self._read_frame(reader, writer),
                        action.deadline,
                    )
                    if frame["type"] == "output":
                        delay = parse_delay(frame.get("delay"))
                        label = frame_field(frame, "label", str)
                        action = step(session.on_output, delay, label)
                    elif frame["type"] == "quiet":
                        delay = parse_delay(frame.get("delay"))
                        action = step(session.on_elapsed, delay)
                    else:
                        raise ProtocolError(
                            f"expected output or quiet, got {frame['type']!r}"
                        )
                else:  # pragma: no cover - exhaustive over SessionAction
                    raise ProtocolError(
                        f"unknown session action {type(action).__name__}"
                    )
        except SessionProtocolError as err:
            # The peer broke the *session* protocol (bad delay, wrong
            # event order): error out this session, keep the server.
            raise ProtocolError(str(err)) from err
        except _Stalled:
            if handle.evicted is not None:
                return False
            # Fail-sound: the peer went silent, so no verdict can be
            # trusted — end the session INCONCLUSIVE and free its seat.
            counters.inc("server.stalled_sessions")
            try:
                await self._send(
                    writer,
                    {
                        "type": "verdict",
                        "session": handle.sid,
                        "verdict": INCONCLUSIVE,
                        "reason": "idle deadline exceeded"
                        f" ({self.config.idle_timeout}s without a frame)",
                        "iterations": 0,
                        "stalled": True,
                    },
                )
            except _Closed:
                pass
            return False
        except _Closed:
            if handle.evicted is not None:
                return False
            # Mid-frame disconnect: the finally below frees the
            # registry seat; record it so leaks are observable.
            counters.inc("server.disconnects")
            self.registry.stats.disconnected += 1
            raise
        finally:
            self.registry.release(handle)

    @staticmethod
    def _install_growth_hook(session: TestSession, on_growth) -> None:
        """Wire the session monitor's :class:`StateEstimate` growth hook
        to the registry.  The monitor only exists after ``start()`` (and
        only estimated monitors carry an estimate), so this runs after
        every step and installs idempotently."""
        monitor = getattr(session, "_monitor", None)
        estimate = getattr(monitor, "estimate", None)
        if estimate is not None and estimate.on_growth is not on_growth:
            estimate.on_growth = on_growth
