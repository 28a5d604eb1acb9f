"""Asyncio HTTP front end for :class:`~repro.service.RemosService`.

The one front door (``repro serve``): a single-threaded
``asyncio.start_server`` event loop multiplexes every connection —
keep-alive HTTP/1.1, no thread or stack per idle socket — and hands each
parsed request to the shared application layer
(:func:`repro.service.app.handle_request`) on the service's own query
thread pool (:meth:`~repro.service.core.QueryFrontEnd.submit`, sized by
``repro serve --threads``).  One request is handled start-to-finish on
one pool thread, which is what makes the thread-local
:class:`~repro.obs.context.TraceContext` binding, the SLO settlement and
the slow-query forensics correct.  A request that arrives after the
service stopped gets a **503**.

Why an event loop under the GIL: the service's coalescing queue (see
``docs/CONCURRENCY.md``) answers concurrent ``flow_info`` requests in
shared batches, so the front end's job is to *admit* many sockets
cheaply and keep the pool fed — exactly what an event loop does.  The
``--workers N`` multi-process mode (:mod:`repro.service.workers`) stacks
N of these servers on one shared listening socket.

Two entry points:

* :func:`serve_aio` — run the event loop on a background thread; returns
  an :class:`AioServer` handle with ``address`` and ``stop()`` (tests,
  benchmarks, ``repro serve``).
* :class:`AsyncHTTPServer` — the awaitable pieces, for callers that
  already own a loop (the worker processes do).
"""

from __future__ import annotations

import asyncio
import socket
import threading

from repro import obs
from repro.service.app import Request, Response, handle_request

_log = obs.get_logger("repro.service.aio")

#: Maximum request-body size accepted (matches typical proxy defaults).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Per-header-line cap (asyncio's readline raises beyond its limit).
MAX_HEADER_BYTES = 64 * 1024


class AsyncHTTPServer:
    """One asyncio server over one service, optionally on a shared socket."""

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 8080,
        sock: socket.socket | None = None,
    ):
        self._service = service
        self._host = host
        self._port = port
        self._sock = sock
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> "AsyncHTTPServer":
        if self._sock is not None:
            self._server = await asyncio.start_server(
                self._client, sock=self._sock, limit=MAX_HEADER_BYTES
            )
        else:
            self._server = await asyncio.start_server(
                self._client, self._host, self._port, limit=MAX_HEADER_BYTES
            )
        return self

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None, "call start() first"
        return self._server.sockets[0].getsockname()[:2]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling ----------------------------------------------------

    async def _client(self, reader, writer) -> None:
        peer = writer.get_extra_info("peername")
        client = peer[0] if peer else ""
        try:
            while True:
                request = await self._read_request(reader, client)
                if request is None:
                    break
                response = await self._answer(request)
                close = (request.header("connection") or "").lower() == "close"
                await self._write_response(writer, response, close)
                if close:
                    break
        except _BadRequest as error:
            await self._write_response(
                writer, Response.json(400, {"error": str(error)}), True
            )
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - racy teardown
                pass

    async def _answer(self, request: Request) -> Response:
        """Run the app layer on the service's query pool.

        The app layer blocks (service queries, profile sleeps), so the
        loop only waits on it and keeps admitting other connections.
        Thread-local trace binding happens inside handle_request, on the
        pool thread.
        """
        try:
            future = self._service.submit(handle_request, self._service, request)
        except RuntimeError:  # the service stopped: its pool is gone
            return Response.json(503, {"error": "service is stopped"})
        return await asyncio.wrap_future(future)

    @staticmethod
    async def _read_request(reader, client: str) -> Request | None:
        """Parse one request off the wire; None on clean connection end."""
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest(f"malformed request line: {line!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                return None  # connection closed mid-headers
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest(f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        length_raw = headers.get("content-length", "0")
        try:
            length = int(length_raw)
        except ValueError:
            raise _BadRequest(f"bad Content-Length: {length_raw!r}") from None
        if not 0 <= length <= MAX_BODY_BYTES:
            raise _BadRequest(f"Content-Length out of range: {length}")
        body = await reader.readexactly(length) if length else b""
        return Request(
            method=method, target=target, headers=headers, body=body, client=client
        )

    @staticmethod
    async def _write_response(writer, response: Response, close: bool) -> None:
        head = [
            f"HTTP/1.1 {response.status} {response.reason}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        if response.traceparent is not None:
            head.append(f"traceparent: {response.traceparent}")
        for name, value in response.headers.items():
            head.append(f"{name}: {value}")
        writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + response.body)
        await writer.drain()


class _BadRequest(Exception):
    """A request the HTTP parser refused (answered 400, connection closed)."""


class AioServer:
    """A running asyncio front end on a background thread.

    For callers that manage the server from synchronous code: construct
    via :func:`serve_aio`, read :attr:`address`, call :meth:`stop`.
    """

    def __init__(self, server_factory):
        self._factory = server_factory
        self._started = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._failure: BaseException | None = None
        self.address: tuple[str, int] | None = None
        self._thread = threading.Thread(
            target=self._run, name="remos-aio", daemon=True
        )

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - loop teardown races
            if not self._started.is_set():
                self._failure = exc
                self._started.set()

    async def _main(self) -> None:
        server = self._factory()
        try:
            await server.start()
        except BaseException as exc:
            self._failure = exc
            self._started.set()
            return
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.address = server.address
        self._started.set()
        _log.info("aio_server_started", host=self.address[0], port=self.address[1])
        try:
            await self._stop.wait()
        finally:
            await server.close()

    def start(self) -> "AioServer":
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._failure is not None:
            raise self._failure
        if self.address is None:
            raise RuntimeError("asyncio server failed to start within 30s")
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the loop and join its thread (idempotent)."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        self._thread.join(timeout=timeout)


def serve_aio(
    service,
    host: str = "127.0.0.1",
    port: int = 8080,
    sock: socket.socket | None = None,
) -> AioServer:
    """Start the asyncio front end on a background thread (port 0 = any).

    Returns a running :class:`AioServer`; ``handle.address`` is the bound
    ``(host, port)`` and ``handle.stop()`` shuts it down.
    """
    return AioServer(
        lambda: AsyncHTTPServer(service, host=host, port=port, sock=sock)
    ).start()
