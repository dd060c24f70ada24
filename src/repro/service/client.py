"""Minimal blocking client for the serving daemon.

Used by the CLI drills, the tests and the CI chaos smoke: submit a
job, poll it to a terminal state, read health.  Plain
:mod:`http.client` keeps it dependency-free and keeps failure modes
obvious — a refused connection raises ``ConnectionError`` for the
caller to retry (the daemon may still be binding, or mid-restart
during a chaos drill).
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Optional, Tuple

__all__ = ["ServeClient", "ServeError"]

#: States after which a job's record can no longer change.
_TERMINAL = ("done", "failed", "expired", "cancelled")


class ServeError(RuntimeError):
    """The daemon answered, but with a non-success status.

    ``headers`` carries the response headers so callers can honour
    backoff hints (a 429 always names its ``Retry-After``).
    """

    def __init__(
        self, status: int, payload: Dict, headers: Optional[Dict] = None,
    ) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload
        self.headers = headers or {}


class ServeClient:
    """Talks JSON to one ``repro serve`` daemon."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8753,
        timeout: float = 10.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- transport ---------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        body: Optional[Dict] = None,
    ) -> Tuple[int, Dict, Dict]:
        """One round trip; returns (status, payload, headers)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = json.dumps(body).encode("utf-8") if body else None
            headers = {"Content-Type": "application/json"} if payload else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            try:
                decoded = json.loads(raw.decode("utf-8")) if raw else {}
            except ValueError:
                decoded = {"error": raw.decode("utf-8", "replace")}
            return response.status, decoded, dict(response.getheaders())
        finally:
            connection.close()

    def _checked(self, method: str, path: str, body=None) -> Dict:
        status, payload, headers = self.request(method, path, body)
        if status >= 400:
            raise ServeError(status, payload, headers)
        return payload

    # -- API surface -------------------------------------------------
    def submit(self, job: Dict) -> Dict:
        """POST /jobs — raises :class:`ServeError` on 4xx/5xx (429
        included: callers decide their own backoff)."""
        return self._checked("POST", "/jobs", job)

    def job(self, job_id: str) -> Dict:
        return self._checked("GET", f"/jobs/{job_id}")

    def jobs(self) -> Dict:
        return self._checked("GET", "/jobs")

    def healthz(self) -> Dict:
        return self._checked("GET", "/healthz")

    def status(self) -> Dict:
        return self._checked("GET", "/status")

    def wait(
        self,
        job_id: str,
        timeout: float = 120.0,
        poll: float = 0.2,
    ) -> Dict:
        """Poll until ``job_id`` reaches a terminal state.

        Connection errors during the wait are tolerated (the daemon may
        be restarting mid-drill); only the overall deadline is fatal.
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                record = self.job(job_id)
                if record.get("state") in _TERMINAL:
                    return record
            except (ConnectionError, http.client.HTTPException, OSError):
                pass  # the daemon may be restarting mid-drill
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} not terminal after {timeout:.0f}s"
                )
            time.sleep(poll)
