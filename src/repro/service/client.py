"""Thin stdlib HTTP client for the campaign service.

``http.client`` only — the same zero-dependency rule as the server.
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
        self.timeout = timeout
        #: Sent as ``X-Client`` on submissions; server quota key.
        self.client = client

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
        conn = self._connect(method, path, body, query)
        try:
            response = conn.getresponse()
            data = response.read()
            return response.status, data, response.headers.get("Content-Type", "")
        finally:
            conn.close()

    def _connect(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        query: Optional[dict] = None,
    ) -> http.client.HTTPConnection:
        if query:
            path = f"{path}?{urlencode(query)}"
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        headers = {}
        if self.client:
            headers["X-Client"] = self.client
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=payload, headers=headers)
        return conn

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
