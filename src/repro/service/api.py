"""Async HTTP API over the job queue and scheduler.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
framework, no new dependencies, every response ``Connection: close``.
The event loop runs in its own daemon thread so the service embeds in
tests and the CLI alike; campaign execution never touches the loop
(the scheduler owns its thread pool), and the one blocking endpoint
(report generation) is pushed to an executor.

Routes::

    GET    /healthz                  dispatcher liveness + queue state counts
    POST   /campaigns                submit (201 created / 200 duplicate)
    GET    /campaigns                list jobs
    GET    /campaigns/{id}           job record + live progress
    GET    /campaigns/{id}/events    NDJSON event stream (?offset=&follow=)
    GET    /campaigns/{id}/report    self-contained HTML run report
    DELETE /campaigns/{id}           cancel (idempotent)

The events endpoint relays the monitor's ``events.jsonl`` *bytes*
verbatim from a client-supplied offset, so what a client assembles —
across any number of disconnect/reconnect cycles — is byte-identical
to the file on disk.

Errors are JSON, ``{"error": "<message>"}``, with conventional status
codes: 400 malformed JSON or spec, 404 unknown job or route, 405
wrong method.  ``/healthz`` answers 503 with ``"ok": false`` when the
dispatcher thread is gone (nothing would ever be claimed again), and
otherwise carries the last dispatch round's error, if any, as
``dispatch_error``.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.obs.monitor import read_events_chunk
from repro.obs.report import build_report
from repro.service.queue import JobQueue, QueueError, TERMINAL_STATES
from repro.service.scheduler import CampaignScheduler

__all__ = ["CampaignService"]

_MAX_BODY = 8 * 1024 * 1024
_MAX_HEAD = 64 * 1024
_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}
#: Poll cadence for the follow-mode event stream, seconds.
_STREAM_POLL = 0.05


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


class CampaignService:
    """The orchestration service: queue + scheduler + HTTP front end.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start`.  Use as a context manager in tests::

        with CampaignService(data_dir, port=0) as svc:
            client = ServiceClient(svc.url)
    """

    def __init__(
        self,
        data_dir,
        host: str = "127.0.0.1",
        port: int = 0,
        max_jobs: int = 1,
        workers: int = 0,
        client_quota: int = 0,
        task_timeout: Optional[float] = None,
        max_attempts: int = 3,
        status_interval: float = 0.0,
    ) -> None:
        self.data_dir = str(data_dir)
        self.host = host
        self.port = port
        os.makedirs(self.data_dir, exist_ok=True)
        self.queue = JobQueue(self.data_dir)
        self.scheduler = CampaignScheduler(
            self.queue,
            os.path.join(self.data_dir, "campaigns"),
            max_jobs=max_jobs,
            workers=workers,
            client_quota=client_quota,
            task_timeout=task_timeout,
            max_attempts=max_attempts,
            status_interval=status_interval,
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "CampaignService":
        if self._thread is not None:
            raise RuntimeError("service already started")
        self.scheduler.start()
        self._thread = threading.Thread(
            target=self._serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):  # pragma: no cover
            raise RuntimeError("service failed to start listening")
        return self

    def _serve_forever(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def boot():
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
            self._started.set()

        loop.run_until_complete(boot())
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def stop(self) -> None:
        """Stop accepting, drain the scheduler, stop the loop."""
        if self._loop is not None:

            async def teardown():
                if self._server is not None:
                    self._server.close()
                    await self._server.wait_closed()

            asyncio.run_coroutine_threadsafe(teardown(), self._loop).result(10.0)
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.scheduler.stop()
        self._loop = None
        self._server = None
        self._started.clear()

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- HTTP plumbing -------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            await self._handle_request(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # pragma: no cover - last-ditch 500
            try:
                await self._respond(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _handle_request(self, reader, writer) -> None:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            await self._respond(writer, 413, {"error": "request head too large"})
            return
        if len(head) > _MAX_HEAD:
            await self._respond(writer, 413, {"error": "request head too large"})
            return
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            await self._respond(writer, 400, {"error": "malformed request line"})
            return
        method, target, _version = parts
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body = b""
        if method in ("POST", "PUT"):
            try:
                length = int(headers.get("content-length", ""))
            except ValueError:
                await self._respond(writer, 411, {"error": "Content-Length required"})
                return
            if length > _MAX_BODY:
                await self._respond(writer, 413, {"error": "body too large"})
                return
            body = await reader.readexactly(length)
        split = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        await self._route(writer, method, split.path, query, headers, body)

    async def _respond(
        self,
        writer,
        status: int,
        payload,
        content_type: str = "application/json",
    ) -> None:
        data = payload if isinstance(payload, bytes) else _json_bytes(payload)
        writer.write(
            (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(data)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
        )
        writer.write(data)
        await writer.drain()

    # -- routing -------------------------------------------------------------

    async def _route(self, writer, method, path, query, headers, body) -> None:
        parts = [p for p in path.split("/") if p]
        if path == "/healthz":
            if method != "GET":
                await self._respond(writer, 405, {"error": "use GET"})
                return
            await self._health(writer)
            return
        if not parts or parts[0] != "campaigns":
            await self._respond(writer, 404, {"error": f"no such route: {path}"})
            return
        if len(parts) == 1:
            if method == "POST":
                await self._submit(writer, headers, body)
            elif method == "GET":
                await self._respond(
                    writer, 200, {"jobs": [j.to_dict() for j in self.queue.jobs()]}
                )
            else:
                await self._respond(writer, 405, {"error": "use GET or POST"})
            return
        job_id = parts[1]
        try:
            job = self.queue.get(job_id)
        except KeyError:
            await self._respond(writer, 404, {"error": f"unknown campaign: {job_id}"})
            return
        if len(parts) == 2:
            if method == "GET":
                await self._job_detail(writer, job)
            elif method == "DELETE":
                cancelled = self.queue.request_cancel(job_id)
                await self._respond(writer, 200, {"job": cancelled.to_dict()})
            else:
                await self._respond(writer, 405, {"error": "use GET or DELETE"})
            return
        if len(parts) == 3 and method == "GET":
            if parts[2] == "events":
                await self._stream_events(writer, job_id, query)
                return
            if parts[2] == "report":
                await self._report(writer, job_id)
                return
        await self._respond(writer, 404, {"error": f"no such route: {path}"})

    # -- endpoints -----------------------------------------------------------

    async def _health(self, writer) -> None:
        alive = self.scheduler.alive
        payload = {
            "ok": alive,
            "counts": self.queue.counts(),
            "dispatch_error": self.scheduler.last_error,
        }
        if not alive:
            payload["error"] = "dispatcher thread is not running"
        await self._respond(writer, 200 if alive else 503, payload)

    async def _submit(self, writer, headers, body) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            await self._respond(writer, 400, {"error": "body is not valid JSON"})
            return
        if not isinstance(payload, dict):
            await self._respond(writer, 400, {"error": "body must be a JSON object"})
            return
        # Either a bare CampaignSpec or {"spec": ..., "client": ...}.
        if "spec" in payload:
            spec = payload.get("spec")
            client = payload.get("client") or headers.get("x-client", "anonymous")
        else:
            spec = payload
            client = headers.get("x-client", "anonymous")
        if not isinstance(client, str) or not client:
            await self._respond(writer, 400, {"error": "client must be a string"})
            return
        try:
            job, created = self.queue.submit(spec, client=client)
        except QueueError as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        await self._respond(
            writer,
            201 if created else 200,
            {"job": job.to_dict(), "created": created},
        )

    async def _job_detail(self, writer, job) -> None:
        detail = {"job": job.to_dict()}
        status_path = os.path.join(self.scheduler.obs_dir(job.id), "status.json")
        try:
            with open(status_path, encoding="utf-8") as handle:
                detail["status"] = json.load(handle)
        except (OSError, ValueError):
            detail["status"] = None
        detail["paths"] = {
            "journal": os.path.join(self.scheduler.job_dir(job.id), "journal"),
            "events": self.scheduler.events_path(job.id),
        }
        await self._respond(writer, 200, detail)

    async def _stream_events(self, writer, job_id: str, query) -> None:
        try:
            offset = int(query.get("offset", "0"))
        except ValueError:
            await self._respond(writer, 400, {"error": "offset must be an integer"})
            return
        if offset < 0:
            await self._respond(writer, 400, {"error": "offset must be >= 0"})
            return
        follow = query.get("follow", "0") not in ("0", "false", "")
        path = self.scheduler.events_path(job_id)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        while True:
            chunk, offset = read_events_chunk(path, offset)
            if chunk:
                writer.write(chunk)
                await writer.drain()
                continue
            if not follow:
                break
            # Follow until the job is terminal *and* the file is drained.
            try:
                state = self.queue.get(job_id).state
            except KeyError:  # pragma: no cover - job deleted mid-stream
                break
            if state in TERMINAL_STATES:
                chunk, offset = read_events_chunk(path, offset)
                if chunk:
                    writer.write(chunk)
                    await writer.drain()
                    continue
                break
            await asyncio.sleep(_STREAM_POLL)
        await writer.drain()

    async def _report(self, writer, job_id: str) -> None:
        obs_dir = self.scheduler.obs_dir(job_id)
        loop = asyncio.get_running_loop()
        try:
            path = await loop.run_in_executor(None, build_report, obs_dir)
        except FileNotFoundError:
            await self._respond(
                writer, 404, {"error": "no observability data for this campaign yet"}
            )
            return
        with open(path, "rb") as handle:
            html = handle.read()
        await self._respond(writer, 200, html, content_type="text/html; charset=utf-8")
