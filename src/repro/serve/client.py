"""Stdlib HTTP client for the job server.

:class:`JobClient` wraps :mod:`urllib.request` with the error mapping
the server promises: 400 → :class:`~repro.errors.JobSpecError`, 429 →
:class:`~repro.errors.AdmissionError` (with the server's ``reason``),
404/409/5xx → :class:`~repro.errors.ServeError`.  The CLI's
``repro-track submit|status|result`` subcommands are thin shells over
this class, and the test suites drive it directly.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Mapping

from repro.errors import AdmissionError, JobSpecError, ServeError

__all__ = ["JobClient"]


class JobClient:
    """Talk to one :class:`~repro.serve.api.JobServer` base URL."""

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport -----------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: Mapping[str, Any] | None = None,
    ) -> tuple[int, bytes]:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()
        except urllib.error.URLError as exc:
            raise ServeError(
                f"cannot reach job server at {self.base_url}: {exc.reason}"
            ) from exc

    def _json(
        self,
        method: str,
        path: str,
        payload: Mapping[str, Any] | None = None,
        *,
        expect: int = 200,
    ) -> dict[str, Any]:
        status, body = self._request(method, path, payload)
        try:
            document = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            document = {"error": body.decode("utf-8", "replace")[:200]}
        if status == expect:
            return document
        message = document.get("error", f"HTTP {status}")
        if status == 429:
            raise AdmissionError(document.get("reason", "busy"), message)
        if status == 400:
            raise JobSpecError(message)
        raise ServeError(f"HTTP {status}: {message}")

    # -- API -----------------------------------------------------------

    def submit(self, tenant: str, spec: Mapping[str, Any]) -> dict[str, Any]:
        """POST a job; returns the initial status record."""
        return self._json(
            "POST", "/jobs", {"tenant": tenant, "spec": dict(spec)}, expect=201
        )

    def status(self, job_id: str) -> dict[str, Any]:
        return self._json("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> bytes:
        """The canonical ``result.json`` bytes of a done job."""
        status, body = self._request("GET", f"/jobs/{job_id}/result")
        if status != 200:
            self._raise_for(status, body)
        return body

    def report(self, job_id: str) -> bytes:
        """The HTML report bytes of a done job."""
        status, body = self._request("GET", f"/jobs/{job_id}/report")
        if status != 200:
            self._raise_for(status, body)
        return body

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._json("DELETE", f"/jobs/{job_id}")

    def tenant_jobs(self, tenant: str) -> list[dict[str, Any]]:
        document = self._json("GET", f"/tenants/{tenant}/jobs")
        return list(document.get("jobs", []))

    def health(self) -> dict[str, Any]:
        return self._json("GET", "/healthz")

    def _raise_for(self, status: int, body: bytes) -> None:
        try:
            message = json.loads(body.decode("utf-8")).get("error", "")
        except (json.JSONDecodeError, UnicodeDecodeError):
            message = body.decode("utf-8", "replace")[:200]
        raise ServeError(f"HTTP {status}: {message}")

    # -- convenience ---------------------------------------------------

    def wait(
        self,
        job_id: str,
        *,
        timeout: float = 300.0,
        poll_s: float = 0.2,
    ) -> dict[str, Any]:
        """Poll until the job is terminal; returns the final status.

        The first pause is 20 ms and each next one doubles, up to
        *poll_s*, so a short job is seen soon after it ends.

        Raises :class:`ServeError` if *timeout* elapses first — a job
        the server accepted but never finished is a server bug, and
        tests want it loud.
        """
        deadline = time.monotonic() + timeout
        pause = 0.02
        while True:
            record = self.status(job_id)
            if record.get("state") in ("done", "failed", "cancelled"):
                return record
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"job {job_id} still {record.get('state')!r} after "
                    f"{timeout:g}s"
                )
            time.sleep(min(pause, poll_s))
            pause *= 2
