"""Live telemetry exposition: stdlib-only /metrics and /healthz.

:func:`render_prometheus` turns a :class:`~repro.obs.metrics.MetricsRegistry`
snapshot into the Prometheus text exposition format (version 0.0.4):
``# HELP``/``# TYPE`` comments, sanitised metric names, escaped label
values, and cumulative ``_bucket{le=...}`` series plus ``_sum`` and
``_count`` for histograms.

:class:`MetricsServer` wraps :class:`http.server.ThreadingHTTPServer`
in a daemon thread serving:

* ``GET /metrics`` — the registry (including sampler ``runtime.*``
  gauges) as Prometheus text.
* ``GET /healthz`` — a JSON health document: run id, uptime,
  watch-telemetry summary (windows, last-window lag), alert totals and
  sampler state.

Attach it to a watch run with ``repro-track watch --serve PORT``.
Everything is stdlib-only and a pure observer — serving never touches
tracking state.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.obs.core import run_id as process_run_id
from repro.obs.metrics import REGISTRY, MetricsRegistry

__all__ = [
    "render_prometheus",
    "MetricsServer",
    "Router",
    "start_metrics_server",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LEADING_RE = re.compile(r"^[^a-zA-Z_:]")

#: Content type mandated by the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _metric_name(name: str) -> str:
    """Sanitise a dotted registry name into a Prometheus metric name."""
    sanitised = _NAME_RE.sub("_", name)
    if _LEADING_RE.match(sanitised):
        sanitised = "_" + sanitised
    return "repro_" + sanitised


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    items = dict(labels)
    if extra:
        items.update(extra)
    if not items:
        return ""
    body = ",".join(
        f'{_NAME_RE.sub("_", k)}="{_escape_label(str(v))}"'
        for k, v in sorted(items.items())
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry | None = None) -> str:
    """Render *registry* (default: the process registry) as Prometheus
    text exposition format."""
    snap = (registry if registry is not None else REGISTRY).snapshot()
    lines: list[str] = []
    seen_types: set[str] = set()

    def _header(name: str, kind: str) -> None:
        if name in seen_types:
            return
        seen_types.add(name)
        lines.append(f"# HELP {name} repro metric {name}")
        lines.append(f"# TYPE {name} {kind}")

    for entry in snap["counters"]:
        name = _metric_name(entry["name"])
        _header(name, "counter")
        lines.append(
            f"{name}{_format_labels(entry['labels'])} "
            f"{_format_value(entry['value'])}"
        )
    for entry in snap["gauges"]:
        name = _metric_name(entry["name"])
        _header(name, "gauge")
        lines.append(
            f"{name}{_format_labels(entry['labels'])} "
            f"{_format_value(entry['value'])}"
        )
    for entry in snap["histograms"]:
        name = _metric_name(entry["name"])
        _header(name, "histogram")
        labels = entry["labels"]
        cumulative = 0
        for bound, bucket_count in zip(entry["buckets"], entry["counts"]):
            cumulative += bucket_count
            le = _format_labels(labels, {"le": _format_value(bound)})
            lines.append(f"{name}_bucket{le} {cumulative}")
        cumulative += entry["counts"][-1]
        inf = _format_labels(labels, {"le": "+Inf"})
        lines.append(f"{name}_bucket{inf} {cumulative}")
        lines.append(
            f"{name}_sum{_format_labels(labels)} {_format_value(entry['sum'])}"
        )
        lines.append(f"{name}_count{_format_labels(labels)} {entry['count']}")
    return "\n".join(lines) + "\n"


#: Router callback type: ``(method, path, body) -> (status, content_type,
#: payload)`` or ``None`` to fall through to the built-in endpoints.
Router = Callable[[str, str, bytes], "tuple[int, str, bytes] | None"]


class MetricsServer:
    """Daemon-thread HTTP server exposing /metrics and /healthz.

    *health_source* is a zero-arg callable returning extra JSON fields
    for ``/healthz`` (e.g. ``WatchTelemetry.health``); *sampler* adds
    its summary under the ``sampler`` key.  *router* mounts additional
    endpoints in front of the built-ins: it sees every request
    (``GET``/``POST``/``DELETE``) first and returns a response triple
    or ``None`` to fall through — the job server's JSON API layers on
    this hook without subclassing ``http.server`` internals.
    """

    def __init__(
        self,
        port: int,
        *,
        host: str = "127.0.0.1",
        registry: MetricsRegistry | None = None,
        health_source: Callable[[], dict[str, Any]] | None = None,
        sampler: Any | None = None,
        router: Router | None = None,
    ) -> None:
        self.registry = registry if registry is not None else REGISTRY
        self.health_source = health_source
        self.sampler = sampler
        self.router = router
        self.started_at = time.time()
        server = self

        class Handler(BaseHTTPRequestHandler):
            def _read_body(self) -> bytes:
                try:
                    length = int(self.headers.get("Content-Length", 0))
                except (TypeError, ValueError):
                    length = 0
                return self.rfile.read(length) if length > 0 else b""

            def _route(self, method: str) -> bool:
                """Give the router first refusal; True when it answered."""
                if server.router is None:
                    return False
                path = self.path.split("?", 1)[0]
                body = self._read_body()
                try:
                    routed = server.router(method, path, body)
                except Exception:  # router bugs must not kill the thread
                    self._reply(
                        500,
                        "application/json; charset=utf-8",
                        b'{"error": "internal server error"}\n',
                    )
                    return True
                if routed is None:
                    return False
                status, ctype, payload = routed
                self._reply(status, ctype, payload)
                return True

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self._route("GET"):
                    return
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    body = render_prometheus(server.registry).encode("utf-8")
                    self._reply(200, PROMETHEUS_CONTENT_TYPE, body)
                elif path == "/healthz":
                    body = json.dumps(server.health_payload(), indent=2).encode(
                        "utf-8"
                    )
                    self._reply(200, "application/json; charset=utf-8", body)
                else:
                    self._reply(404, "text/plain; charset=utf-8", b"not found\n")

            def do_POST(self) -> None:  # noqa: N802 - http.server API
                if not self._route("POST"):
                    self._reply(404, "text/plain; charset=utf-8", b"not found\n")

            def do_DELETE(self) -> None:  # noqa: N802 - http.server API
                if not self._route("DELETE"):
                    self._reply(404, "text/plain; charset=utf-8", b"not found\n")

            def _reply(self, status: int, ctype: str, body: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt: str, *args: Any) -> None:
                pass  # stay silent; scrapes are frequent

        # Raises OSError (EADDRINUSE) if the port is taken — callers
        # surface that instead of silently rebinding.
        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = int(self._httpd.server_address[1])
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-obs-serve-{self.port}",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def health_payload(self) -> dict[str, Any]:
        """Assemble the /healthz JSON document."""
        payload: dict[str, Any] = {
            "status": "ok",
            "run_id": process_run_id(),
            "uptime_s": round(time.time() - self.started_at, 3),
        }
        if self.health_source is not None:
            try:
                extra = self.health_source()
            except Exception as exc:  # health must not 500 on a racy read
                payload["status"] = "degraded"
                payload["health_error"] = type(exc).__name__
            else:
                if isinstance(extra, dict):
                    status = extra.pop("status", None)
                    payload.update(extra)
                    if status:
                        payload["status"] = status
        if self.sampler is not None:
            try:
                payload["sampler"] = self.sampler.summary()
            except Exception:  # pragma: no cover - defensive
                payload["sampler"] = None
        return payload

    def close(self) -> None:
        """Shut the server down and join its thread."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=2.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def start_metrics_server(
    port: int,
    *,
    host: str = "127.0.0.1",
    registry: MetricsRegistry | None = None,
    health_source: Callable[[], dict[str, Any]] | None = None,
    sampler: Any | None = None,
) -> MetricsServer:
    """Start a :class:`MetricsServer`; raises ``OSError`` if *port* is
    already bound.  Pass ``port=0`` to let the OS pick (see ``.port``)."""
    return MetricsServer(
        port,
        host=host,
        registry=registry,
        health_source=health_source,
        sampler=sampler,
    )
