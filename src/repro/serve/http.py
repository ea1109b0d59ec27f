"""The asyncio HTTP daemon: ``python -m repro serve``.

A deliberately small stdlib-only HTTP/1.1 server (``asyncio``'s stream
API, no third-party web framework) mounting the v1 endpoints over
:class:`~repro.serve.service.EvaluationService`:

========  ========================  =====================================
method    path                      body / response
========  ========================  =====================================
POST      ``/v1/check``             :class:`CheckRequest` -> check verdict
POST      ``/v1/lint``              :class:`LintRequest` -> static lint
                                    findings (memoized in the
                                    ``lint-reports`` store namespace)
POST      ``/v1/scenario``          :class:`ScenarioRequest` -> row +
                                    ``served_from`` provenance
POST      ``/v1/sweep``             :class:`SweepRequest` -> 202 + job id
GET       ``/v1/jobs/{id}``         job state, progress, final report
GET       ``/v1/jobs/{id}/rows``    the job's JSONL row stream so far
GET       ``/v1/stats``             latency percentiles + store counters
GET       ``/v1/healthz``           liveness probe
========  ========================  =====================================

Error contract: a :class:`~repro.serve.schema.RequestError` -- the same
validation the CLI runs -- answers **400** with the structured
``{"error": {"schema", "message", "field"?}}`` body; unknown routes
404, wrong methods 405, anything else 500 with ``{"error": {"type",
"message"}}`` (never a traceback on the wire).  A request that cannot
be framed -- a malformed request line, a bad Content-Length, a line
longer than the stream reader's limit, more than :data:`MAX_HEADERS`
header lines -- answers a structured 400 (431 for an over-long header
line or too many headers) with ``connection: close``.  The server then
half-closes and reads what the client still sends, up to
:data:`DRAIN_BYTES` or :data:`DRAIN_SECONDS`, before it closes: closing
with unread bytes would reset the connection before the client reads
its answer.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import re

from .schema import SCHEMA_VERSION, RequestError
from .service import EvaluationService

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error"}

_JOB_PATH = re.compile(r"^/v1/jobs/(?P<job_id>[0-9a-f]+)"
                       r"(?P<rows>/rows)?$")

#: request bodies past this size are rejected up front (64 MiB)
MAX_BODY_BYTES = 64 * 1024 * 1024

#: header lines past this count are rejected with 431
MAX_HEADERS = 100

#: a rejected connection is drained of at most this many bytes ...
DRAIN_BYTES = MAX_BODY_BYTES

#: ... for at most this many seconds before the server closes it
DRAIN_SECONDS = 1.0


class _TooManyHeaders(Exception):
    """The request carries more than :data:`MAX_HEADERS` header lines."""


def _json_body(body: bytes) -> dict:
    if not body:
        return {}
    try:
        return json.loads(body)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RequestError(f"request body must be JSON: {exc}") from exc


class ReproServer:
    """One bound server around one :class:`EvaluationService`."""

    def __init__(self, service: EvaluationService,
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        #: connection handlers still running
        self._handlers: set[asyncio.Task] = set()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._handlers:
            # a rejected connection stays open until its client is done
            await asyncio.wait(self._handlers, timeout=DRAIN_SECONDS)
        await self.service.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- wire protocol ------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        handler = asyncio.current_task()
        assert handler is not None
        self._handlers.add(handler)
        try:
            while True:
                # readline() raises ValueError past the reader's limit
                try:
                    request_line = await reader.readline()
                except ValueError:
                    await self._reject(reader, writer, "request line too long")
                    break
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                try:
                    method, target, _version = \
                        request_line.decode("ascii").split()
                except (UnicodeDecodeError, ValueError):
                    await self._reject(reader, writer,
                                       "malformed request line")
                    break
                try:
                    headers = await self._read_headers(reader)
                except ValueError:
                    await self._reject(reader, writer,
                                       "request header too long", 431)
                    break
                except _TooManyHeaders:
                    await self._reject(reader, writer,
                                       "too many request headers", 431)
                    break
                if headers is None:
                    break
                length_text = headers.get("content-length", "0") or "0"
                # digits only: int() would also take "-1", "+1" and "1_0"
                if not (length_text.isascii() and length_text.isdigit()):
                    await self._reject(reader, writer,
                                       "invalid content-length")
                    break
                length = int(length_text)
                if length > MAX_BODY_BYTES:
                    await self._reject(reader, writer,
                                       "request body too large")
                    break
                body = await reader.readexactly(length) if length else b""
                status, blob, content_type = await self.dispatch(
                    method, target.split("?", 1)[0], body)
                closing = headers.get("connection", "").lower() == "close"
                self._write(writer, status, blob, content_type,
                            close=closing)
                await writer.drain()
                if closing:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()  # pragma: no cover
            self._handlers.discard(handler)

    @staticmethod
    async def _read_headers(reader) -> dict | None:
        headers: dict[str, str] = {}
        # one read past the cap: the blank line ending MAX_HEADERS lines
        for _ in range(MAX_HEADERS + 1):
            line = await reader.readline()
            if not line:
                return None
            if line in (b"\r\n", b"\n"):
                return headers
            try:
                name, _, value = line.decode("latin-1").partition(":")
            except UnicodeDecodeError:  # pragma: no cover
                continue
            headers[name.strip().lower()] = value.strip()
        raise _TooManyHeaders

    @classmethod
    async def _reject(cls, reader, writer, message: str,
                      status: int = 400) -> None:
        """Answer a request that cannot be framed with its structured
        error, then half-close and drain (bounded); the caller closes
        the connection."""
        cls._write(writer, status, json.dumps(cls._error(message)).encode(),
                   close=True)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + DRAIN_SECONDS
        left = DRAIN_BYTES
        with contextlib.suppress(ConnectionError, OSError,
                                 asyncio.TimeoutError):
            await writer.drain()
            if writer.can_write_eof():
                writer.write_eof()
            while left > 0:
                chunk = await asyncio.wait_for(
                    reader.read(min(left, 1 << 16)),
                    max(0.0, deadline - loop.time()))
                if not chunk:
                    break
                left -= len(chunk)

    @staticmethod
    def _write(writer, status: int, blob: bytes,
               content_type: str = "application/json",
               close: bool = False) -> None:
        head = (f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
                f"content-type: {content_type}\r\n"
                f"content-length: {len(blob)}\r\n"
                f"connection: {'close' if close else 'keep-alive'}"
                "\r\n\r\n")
        writer.write(head.encode("ascii") + blob)

    # -- routing ------------------------------------------------------------

    async def dispatch(self, method: str, path: str,
                       body: bytes) -> tuple[int, bytes, str]:
        """Route one request; always returns a (status, body, type)."""
        try:
            status, payload = await self._route(method, path, body)
        except RequestError as exc:
            status, payload = 400, exc.payload()
        except Exception as exc:  # no tracebacks on the wire
            status, payload = 500, {"error": {"schema": SCHEMA_VERSION,
                                              "type": type(exc).__name__,
                                              "message": str(exc)}}
        if isinstance(payload, bytes):
            return status, payload, "application/x-ndjson"
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return status, blob, "application/json"

    async def _route(self, method: str, path: str, body: bytes):
        from .schema import (CheckRequest, LintRequest, ScenarioRequest,
                             SweepRequest)

        post_routes = {
            "/v1/check": (CheckRequest, self.service.check, 200),
            "/v1/lint": (LintRequest, self.service.lint, 200),
            "/v1/scenario": (ScenarioRequest, self.service.scenario,
                             200),
        }
        if path in post_routes:
            request_cls, handler, status = post_routes[path]
            if method != "POST":
                return 405, self._error(f"{path} requires POST")
            response = await handler(request_cls.from_dict(
                _json_body(body)))
            return status, response.to_dict()
        if path == "/v1/sweep":
            if method != "POST":
                return 405, self._error("/v1/sweep requires POST")
            return 202, await self.service.submit_sweep(
                SweepRequest.from_dict(_json_body(body)))
        job = _JOB_PATH.match(path)
        if job is not None:
            if method != "GET":
                return 405, self._error(f"{path} requires GET")
            job_id = job.group("job_id")
            if job.group("rows"):
                rows = self.service.job_rows(job_id)
                if rows is None:
                    return 404, self._error(f"unknown job {job_id!r}")
                return 200, rows.encode("utf-8")
            payload = self.service.job_payload(job_id)
            if payload is None:
                return 404, self._error(f"unknown job {job_id!r}")
            return 200, payload
        if path == "/v1/stats":
            if method != "GET":
                return 405, self._error("/v1/stats requires GET")
            return 200, self.service.stats_payload()
        if path == "/v1/healthz":
            if method != "GET":
                return 405, self._error("/v1/healthz requires GET")
            return 200, {"schema": SCHEMA_VERSION, "ok": True}
        return 404, self._error(f"no route for {method} {path}")

    @staticmethod
    def _error(message: str) -> dict:
        return {"error": {"schema": SCHEMA_VERSION, "message": message}}


async def serve(host: str = "127.0.0.1", port: int = 8321,
                workers: int | None = None,
                spool_dir: str | None = None,
                announce=print) -> None:
    """Run the daemon until cancelled (the ``repro serve`` entry point).

    ``port=0`` binds an ephemeral port; the announced URL (printed and
    flushed before serving) is the machine-readable hand-off the smoke
    harness and scripts parse.
    """
    service = EvaluationService(workers=workers, spool_dir=spool_dir)
    server = ReproServer(service, host=host, port=port)
    await server.start()
    announce(f"repro serve listening on http://{host}:{server.port} "
             f"(schema {SCHEMA_VERSION}, {service.workers} workers)",
             flush=True)
    try:
        await server.serve_forever()
    finally:
        await server.close()


__all__ = ["DRAIN_BYTES", "DRAIN_SECONDS", "MAX_BODY_BYTES", "MAX_HEADERS",
           "ReproServer", "serve"]
