"""HTTP API over the job queue and scheduler.

The standard library's :class:`~http.server.ThreadingHTTPServer` -- no
framework, no new dependencies -- speaking HTTP/1.1 with keep-alive:
one thread per connection, which answers that connection's requests in
turn and may block (report generation does); campaign execution runs in
the scheduler's own threads.  A connection idle for :data:`_IDLE_TIMEOUT`
seconds is closed.  The server runs in a daemon thread so the service
embeds in tests and the CLI alike.

Routes::

    GET    /healthz                  dispatcher liveness + queue state counts
    POST   /campaigns                submit (201 created / 200 duplicate)
    GET    /campaigns                list jobs
    GET    /campaigns/{id}           job record + status (live, or its log's fold)
    GET    /campaigns/{id}/events    NDJSON event stream (?offset=&follow=)
    GET    /campaigns/{id}/report    self-contained HTML run report
    DELETE /campaigns/{id}           cancel (idempotent)

The events endpoint relays the monitor's ``events.jsonl`` *bytes*
verbatim from a client-supplied offset, so what a client assembles --
across any number of disconnect/reconnect cycles -- is byte-identical
to the file on disk.  A snapshot (``follow=0``) is one read to the end
of the file, sent with its length on a kept-alive connection; a follow
is the one response without a length: it ends by closing its
connection.

Errors are JSON, ``{"error": "<message>"}``, with conventional status
codes: 400 malformed request, JSON or spec, 404 unknown job or route,
405 wrong method, 411 a POST without a length, 413 a body over 8 MiB,
414 / 431 an oversized request line / header, 500 an endpoint that
raised.  A request whose body is not read closes its connection.
``/healthz`` answers 503 with ``"ok": false`` when the dispatcher
thread is gone (nothing would ever be claimed again), and otherwise
carries the last dispatch round's error, if any, as ``dispatch_error``.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.obs.monitor import read_events_chunk
from repro.obs.report import CampaignFold, build_report, read_events
from repro.service.queue import JobQueue, QueueError, TERMINAL_STATES
from repro.service.scheduler import CampaignScheduler

__all__ = ["CampaignService"]

_MAX_BODY = 8 * 1024 * 1024
#: Seconds a kept-alive connection may sit idle before the server
#: closes it, so it cannot hold a server thread forever.
_IDLE_TIMEOUT = 30.0
#: Poll cadence for the follow-mode event stream, and for the accept
#: loop's check for ``stop``, seconds.
_STREAM_POLL = 0.05


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
        )
        self._httpd: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "CampaignService":
        if self._httpd is not None:
            raise RuntimeError("service already started")
        self._httpd = _Server(self, (self.host, self.port))
        self.port = self._httpd.server_address[1]
        self.scheduler.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            args=(_STREAM_POLL,),
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, end every connection, drain the scheduler.

        Once this returns no request is answered, kept-alive
        connections included.
        """
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._thread.join()
            self._httpd = self._thread = None
        self.scheduler.stop()

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def _hang_up(connection: socket.socket) -> None:
    try:
        connection.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


class _Server(ThreadingHTTPServer):
    """Knows its open connections, so that closing it ends them."""

    # The listen backlog; the stdlib's 5 drops connects from a burst of
    # clients, which then retry a second later.
    request_queue_size = 100

    def __init__(self, service: CampaignService, address) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.stopping = threading.Event()
        self.lock = threading.Lock()
        self.connections: set = set()

    def server_close(self) -> None:
        """Close the listener, end every connection, join their threads."""
        with self.lock:
            self.stopping.set()
            for connection in self.connections:
                _hang_up(connection)
        super().server_close()


class _Handler(BaseHTTPRequestHandler):
    """One connection: its requests, answered in turn."""

    protocol_version = "HTTP/1.1"
    # A one-word request line is answered with a status line, not as HTTP/0.9.
    default_request_version = "HTTP/1.1"
    # Headers and body are two writes; Nagle would hold the second
    # back for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    def setup(self) -> None:
        self.timeout = _IDLE_TIMEOUT
        super().setup()
        with self.server.lock:
            self.server.connections.add(self.connection)
            if self.server.stopping.is_set():
                _hang_up(self.connection)

    def finish(self) -> None:
        with self.server.lock:
            self.server.connections.discard(self.connection)
        super().finish()

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:
            pass  # the client went away

    def send_error(self, code, message=None, *_explain) -> None:
        """Every error reply, the stdlib's own included, as JSON; the
        connection closes after it."""
        self.close_connection = True
        self._respond(code, {"error": message or self.responses[code][0]})

    def _respond(self, status: int, payload, content_type="application/json") -> None:
        if not isinstance(payload, bytes):
            payload = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response_only(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _answer(self) -> None:
        body = self._read_body()
        if body is None:
            return
        split = urlsplit(self.path)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        try:
            answer = self._route(self.server.service, split.path, query, body)
            if answer is not None:
                self._respond(*answer)
        except (ConnectionError, TimeoutError):  # the client went away
            self.close_connection = True
        except Exception as exc:  # last-ditch 500
            self.log_error("%s", traceback.format_exc())
            self.send_error(500, f"{type(exc).__name__}: {exc}")

    do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = _answer

    def _read_body(self) -> Optional[bytes]:
        """The request body; ``None`` once an error has been answered."""
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True  # a body this server never reads
        length = self.headers.get("Content-Length")
        if length is None and self.command not in ("POST", "PUT"):
            return b""
        try:
            length = int(length)
        except (TypeError, ValueError):
            self.send_error(411, "Content-Length required")
            return None
        if length < 0:
            self.send_error(400, "Content-Length must be >= 0")
            return None
        if length > _MAX_BODY:
            self.send_error(413, "body too large")
            return None
        return self.rfile.read(length)

    # -- routing: each returns the response's arguments, or None once
    # -- it has answered itself -------------------------------------------

    def _route(self, svc: CampaignService, path, query, body):
        method = self.command
        parts = [p for p in path.split("/") if p]
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}
            return self._health(svc)
        if not parts or parts[0] != "campaigns":
            return 404, {"error": f"no such route: {path}"}
        if len(parts) == 1:
            if method == "POST":
                return self._submit(svc, body)
            if method == "GET":
                return 200, {"jobs": [j.to_dict() for j in svc.queue.jobs()]}
            return 405, {"error": "use GET or POST"}
        job_id = parts[1]
        try:
            job = svc.queue.get(job_id)
        except KeyError:
            return 404, {"error": f"unknown campaign: {job_id}"}
        if len(parts) == 2:
            if method == "GET":
                return self._job_detail(svc, job)
            if method == "DELETE":
                return 200, {"job": svc.queue.request_cancel(job_id).to_dict()}
            return 405, {"error": "use GET or DELETE"}
        if len(parts) == 3 and method == "GET":
            if parts[2] == "events":
                return self._stream_events(svc, job_id, query)
            if parts[2] == "report":
                return self._report(svc, job_id)
        return 404, {"error": f"no such route: {path}"}

    # -- endpoints -----------------------------------------------------------

    def _health(self, svc: CampaignService):
        alive = svc.scheduler.alive
        payload = {
            "ok": alive,
            "counts": svc.queue.counts(),
            "dispatch_error": svc.scheduler.last_error,
        }
        if not alive:
            payload["error"] = "dispatcher thread is not running"
        return 200 if alive else 503, payload

    def _submit(self, svc: CampaignService, body):
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return 400, {"error": "body is not valid JSON"}
        if not isinstance(payload, dict):
            return 400, {"error": "body must be a JSON object"}
        # Either a bare CampaignSpec or {"spec": ..., "client": ...}.
        client = self.headers.get("X-Client", "anonymous")
        if "spec" in payload:
            spec = payload.get("spec")
            client = payload.get("client") or client
        else:
            spec = payload
        if not isinstance(client, str) or not client:
            return 400, {"error": "client must be a string"}
        try:
            job, created = svc.queue.submit(spec, client=client)
        except QueueError as exc:
            return 400, {"error": str(exc)}
        return 201 if created else 200, {"job": job.to_dict(), "created": created}

    def _job_detail(self, svc: CampaignService, job):
        # Live while the job runs; afterwards the fold of its event log.
        status = svc.scheduler.live_status(job.id)
        if status is None:
            try:
                events = read_events(svc.scheduler.events_path(job.id))
            except OSError:
                events = []
            if events:
                status = CampaignFold(events).status()
        detail = {"job": job.to_dict(), "status": status}
        detail["paths"] = {
            "journal": os.path.join(svc.scheduler.job_dir(job.id), "journal"),
            "events": svc.scheduler.events_path(job.id),
        }
        return 200, detail

    def _stream_events(self, svc: CampaignService, job_id: str, query):
        try:
            offset = int(query.get("offset", "0"))
        except ValueError:
            return 400, {"error": "offset must be an integer"}
        if offset < 0:
            return 400, {"error": "offset must be >= 0"}
        follow = query.get("follow", "0") not in ("0", "false", "")
        path = svc.scheduler.events_path(job_id)
        if not follow:
            return 200, read_events_chunk(path, offset)[0], "application/x-ndjson"
        self.send_response_only(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        stopping = self.server.stopping
        while True:
            chunk, offset = read_events_chunk(path, offset)
            if chunk:
                self.wfile.write(chunk)
                continue
            if not follow:
                break
            # Follow until the job is terminal *and* the file is drained.
            try:
                terminal = svc.queue.get(job_id).state in TERMINAL_STATES
            except KeyError:  # pragma: no cover - job deleted mid-stream
                break
            if terminal:
                follow = False  # read on until what the job wrote last is sent
            elif stopping.wait(_STREAM_POLL):
                break
        return None

    def _report(self, svc: CampaignService, job_id: str):
        try:
            path = build_report(svc.scheduler.obs_dir(job_id))
        except FileNotFoundError:
            return 404, {"error": "no observability data for this campaign yet"}
        with open(path, "rb") as handle:
            return 200, handle.read(), "text/html; charset=utf-8"
