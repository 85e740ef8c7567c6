"""Thin stdlib HTTP client for the campaign service.

``http.client`` only — the same zero-dependency rule as the server.
A client keeps one connection alive across its calls (use one client
per thread); when the server has closed that connection, a call is sent
once more on a fresh one, which is safe because every route is
idempotent: submissions are content-addressed and ``DELETE`` is an
idempotent cancel.  A response the server cuts off mid-body raises
``ConnectionError`` and is not sent again.

Every JSON method returns ``(status, payload)`` and never raises on
HTTP error codes, so contract tests can assert on 400/404/405 bodies
directly.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Optional, Tuple
from urllib.parse import urlencode, urlsplit

from repro.service.queue import TERMINAL_STATES

__all__ = ["ServiceClient", "ServiceTimeout"]


class ServiceTimeout(TimeoutError):
    """``wait`` ran out of time before the job reached a terminal state."""


class ServiceClient:
    """Client for one service base URL (``http://host:port``)."""

    def __init__(self, base_url: str, timeout: float = 30.0, client: str = "") -> None:
        split = urlsplit(base_url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(f"base_url must be http://host:port, got {base_url!r}")
        self.host = split.hostname
        self.port = split.port or 80
        #: Sent as ``X-Client`` on submissions; server quota key.
        self.client = client
        #: The one connection every call reuses while the server keeps it.
        self._conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)

    # -- plumbing ------------------------------------------------------------

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Tuple[int, dict]:
        status, raw, ctype = self._request_raw(method, path, body)
        if "json" not in ctype:
            return status, {"raw": raw.decode("utf-8", "replace")}
        try:
            return status, json.loads(raw.decode("utf-8"))
        except ValueError:
            return status, {"raw": raw.decode("utf-8", "replace")}

    def _request_raw(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        query: Optional[dict] = None,
    ) -> Tuple[int, bytes, str]:
        if query:
            path = f"{path}?{urlencode(query)}"
        headers = {}
        if self.client:
            headers["X-Client"] = self.client
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        while True:
            # http.client reopens a connection the last response closed.
            fresh = self._conn.sock is None
            try:
                self._conn.request(method, path, body=payload, headers=headers)
                response = self._conn.getresponse()
                data = response.read()
            except http.client.IncompleteRead as exc:
                # The server answered, then hung up mid-body: not sent again.
                self._conn.close()
                raise ConnectionError(
                    f"{method} {path}: the server closed the connection "
                    f"after {len(exc.partial)} bytes of the body"
                ) from exc
            except ConnectionError:
                self._conn.close()
                if fresh:
                    raise
                continue  # the server closed a kept-alive connection: once more
            except BaseException:
                self._conn.close()
                raise
            return response.status, data, response.headers.get("Content-Type", "")

    # -- API -----------------------------------------------------------------

    def health(self) -> Tuple[int, dict]:
        return self._request("GET", "/healthz")

    def submit(self, spec: dict, client: Optional[str] = None) -> Tuple[int, dict]:
        body = {"spec": spec}
        if client or self.client:
            body["client"] = client or self.client
        return self._request("POST", "/campaigns", body=body)

    def jobs(self) -> Tuple[int, dict]:
        return self._request("GET", "/campaigns")

    def job(self, job_id: str) -> Tuple[int, dict]:
        return self._request("GET", f"/campaigns/{job_id}")

    def cancel(self, job_id: str) -> Tuple[int, dict]:
        return self._request("DELETE", f"/campaigns/{job_id}")

    def report(self, job_id: str) -> Tuple[int, bytes]:
        status, raw, _ctype = self._request_raw("GET", f"/campaigns/{job_id}/report")
        return status, raw

    def events(
        self, job_id: str, offset: int = 0, follow: bool = False
    ) -> Tuple[int, bytes]:
        """Fetch the event stream fully (blocks until it closes)."""
        status, raw, _ctype = self._request_raw(
            "GET",
            f"/campaigns/{job_id}/events",
            query={"offset": offset, "follow": int(follow)},
        )
        return status, raw

    # -- conveniences --------------------------------------------------------

    def wait(
        self, job_id: str, timeout: float = 60.0, poll: float = 0.05
    ) -> dict:
        """Block until the job is terminal; returns its record.

        The delay between status requests starts at 5 ms and doubles up
        to ``poll``, so a short job is not charged a full ``poll``.
        """
        deadline = time.monotonic() + timeout
        delay = min(0.005, poll)
        while True:
            status, payload = self.job(job_id)
            if status != 200:
                raise RuntimeError(f"GET /campaigns/{job_id} -> {status}: {payload}")
            job = payload["job"]
            if job["state"] in TERMINAL_STATES:
                return job
            if time.monotonic() >= deadline:
                raise ServiceTimeout(
                    f"job {job_id} still {job['state']} after {timeout}s"
                )
            time.sleep(delay)
            delay = min(2.0 * delay, poll)
