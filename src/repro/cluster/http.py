"""HTTP/JSON gateway over any repro service, plus a matching client.

The socket protocol is the native transport, but curl, dashboards, and
non-Python tooling want HTTP.  :class:`HttpGateway` is a thin stdlib
``http.server`` front end over any :class:`~repro.serve.ServerBase`
backend — it calls the *same* :meth:`~repro.serve.ServerBase.call` /
:meth:`~repro.serve.ServerBase.stream_events` dispatch surface the
socket handler uses, so every payload (acks, status snapshots,
results, stream events, structured errors) is byte-for-byte the
canonical protocol JSON; only the envelope changes (URL + status code
instead of a request line).

Routes::

    POST /v1/jobs                  submit   (body: {"spec": ..., ...})
    GET  /v1/jobs/<id>             status
    GET  /v1/jobs/<id>/results     results
    POST /v1/jobs/<id>/cancel      cancel
    GET  /v1/jobs/<id>/stream      stream   (chunked NDJSON)
    GET  /v1/ping                  ping
    GET  /v1/agents                agents_status (coordinator backends)
    POST /v1/agents/join           agents_join   (body: {"host", "port"})
    POST /v1/agents/leave          agents_leave  (body: {"host", "port"})
    POST /v1/shutdown              shutdown (backend and gateway)

Streaming uses ``Transfer-Encoding: chunked`` with one protocol JSON
line per event — ``http.client`` (and every HTTP library) de-chunks
transparently, so :class:`HttpClusterClient` reads the same NDJSON a
socket stream carries.  Structured error codes map onto HTTP status
codes (``queue_full``/``quota_exceeded`` → 429, ``unknown_job`` → 404,
...) while the body keeps the full protocol error object, so HTTP
clients branch on either.
"""

from __future__ import annotations

import random
import threading
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterator

from repro.errors import ServeError
from repro.scenarios.spec import ScenarioSpec
from repro.serve import protocol
from repro.serve.client import JobClient
from repro.serve.policy import RetryPolicy
from repro.serve.server import ServerBase

#: structured protocol error code -> HTTP status
STATUS_BY_CODE = {
    "bad_request": 400,
    "bad_spec": 400,
    "protocol_mismatch": 400,
    "unknown_job": 404,
    "not_finished": 409,
    "job_failed": 409,
    "queue_full": 429,
    "quota_exceeded": 429,
    "connect_failed": 502,
    "deadline_exceeded": 504,
}


def _status_for(response: dict[str, Any]) -> int:
    if response.get("ok"):
        return 200
    code = (response.get("error") or {}).get("code", "bad_request")
    return STATUS_BY_CODE.get(code, 500)


class _GatewayHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the backend's dispatch surface."""

    protocol_version = "HTTP/1.1"  # required for chunked streaming

    server: "_GatewayServer"

    def log_message(self, *args) -> None:  # quiet: the CLI prints once
        pass

    # -- plumbing ----------------------------------------------------------

    def _read_body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        if length > protocol.MAX_LINE_BYTES:
            raise ServeError(
                f"request body over {protocol.MAX_LINE_BYTES} bytes"
            )
        try:
            body = protocol.decode_message(self.rfile.read(length))
        except protocol.ProtocolError as e:
            raise ServeError(str(e)) from None
        if not isinstance(body, dict):
            raise ServeError("request body must be a JSON object")
        return body

    def _send_json(self, response: dict[str, Any]) -> None:
        payload = protocol.encode_message(response)
        self.send_response(_status_for(response))
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_stream(self, events: Iterator[dict[str, Any]]) -> None:
        """One chunk per protocol line; ends with the zero chunk."""
        try:
            first = next(events)
        except ServeError as e:
            self._send_json(protocol.error_response(e.code, str(e)))
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        self._write_chunk(protocol.encode_message(first))
        for event in events:
            self._write_chunk(protocol.encode_message(event))
        self.wfile.write(b"0\r\n\r\n")

    def _write_chunk(self, payload: bytes) -> None:
        self.wfile.write(f"{len(payload):x}\r\n".encode("ascii"))
        self.wfile.write(payload)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    # -- routing -----------------------------------------------------------

    def _route(self, method: str) -> None:
        backend = self.server.backend
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        try:
            if parts[:1] != ["v1"]:
                raise ServeError(f"unknown path {self.path!r}")
            if parts[1:] == ["ping"] and method == "GET":
                self._send_json(backend.call("ping", {}))
            elif parts[1:] == ["shutdown"] and method == "POST":
                response = backend.call("shutdown", {})
                self._send_json(response)
                threading.Thread(
                    target=self.server.gateway.stop, daemon=True
                ).start()
            elif parts[1:] == ["agents"] and method == "GET":
                self._send_json(backend.call("agents_status", {}))
            elif (
                len(parts) == 3
                and parts[1] == "agents"
                and parts[2] in ("join", "leave")
                and method == "POST"
            ):
                self._send_json(
                    backend.call(f"agents_{parts[2]}", self._read_body())
                )
            elif parts[1:] == ["jobs"] and method == "POST":
                self._send_json(backend.call("submit", self._read_body()))
            elif len(parts) == 3 and parts[1] == "jobs" and method == "GET":
                self._send_json(backend.call("status", {"job_id": parts[2]}))
            elif len(parts) == 4 and parts[1] == "jobs":
                job_id, tail = parts[2], parts[3]
                if tail == "results" and method == "GET":
                    self._send_json(
                        backend.call("results", {"job_id": job_id})
                    )
                elif tail == "cancel" and method == "POST":
                    self._send_json(backend.call("cancel", {"job_id": job_id}))
                elif tail == "stream" and method == "GET":
                    self._send_stream(
                        backend.stream_events({"job_id": job_id})
                    )
                else:
                    raise ServeError(f"unknown path {self.path!r}")
            else:
                raise ServeError(f"unknown path {self.path!r}")
        except ServeError as e:
            self._send_json(protocol.error_response(e.code, str(e)))
        except (BrokenPipeError, ConnectionError):
            pass  # client went away; jobs live on, like the socket path

    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")


class _GatewayServer(ThreadingHTTPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, addr, backend: ServerBase, gateway: "HttpGateway"):
        self.backend = backend
        self.gateway = gateway
        super().__init__(addr, _GatewayHandler)


class HttpGateway:
    """HTTP front end for a running :class:`~repro.serve.ServerBase`.

    The gateway owns no jobs and no state — it is a transport adapter;
    stopping it leaves the backend (and its socket listener) running
    unless the stop came from ``POST /v1/shutdown``, which stops both.
    """

    def __init__(
        self, backend: ServerBase, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.backend = backend
        self._server = _GatewayServer((host, port), backend, self)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolved even when ``port=0``."""
        return self._server.server_address[:2]

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="cluster-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "HttpGateway":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class HttpClusterClient(JobClient):
    """Typed HTTP client mirroring :class:`~repro.serve.ServerClient`.

    Same methods, same :class:`~repro.errors.ServeError` structured
    failures, same :class:`~repro.serve.RunOutcome` from :meth:`run` —
    the transport is the only difference, which is what lets the HTTP
    gateway pass the same end-to-end suite as the socket server.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8123,
        timeout: float | None = 60.0,
        policy: RetryPolicy | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.host = host
        self.port = port
        if policy is None:
            # legacy single-attempt behavior when only a timeout is given
            policy = RetryPolicy(max_attempts=1, op_timeout_s=timeout)
        #: the :class:`~repro.serve.RetryPolicy` for every request:
        #: transport failures retry with full-jitter backoff under the
        #: policy's attempt budget and overall deadline
        self.policy = policy
        self.timeout = policy.op_timeout_s
        self._rng = rng

    def _connection(self) -> HTTPConnection:
        return HTTPConnection(self.host, self.port, timeout=self.timeout)

    def _request(
        self, method: str, path: str, body: dict | None = None
    ) -> dict[str, Any]:
        def once() -> dict[str, Any]:
            conn = self._connection()
            try:
                payload = (
                    None if body is None else protocol.encode_message(body)
                )
                headers = (
                    {"Content-Type": "application/json"} if payload else {}
                )
                conn.request(method, path, body=payload, headers=headers)
                raw = conn.getresponse().read()
                return self._checked(protocol.decode_message(raw))
            finally:
                conn.close()

        try:
            return self.policy.call(
                once, describe=f"{method} {path}", rng=self._rng
            )
        except OSError as e:
            raise ServeError(
                f"could not reach http://{self.host}:{self.port}{path} "
                f"after {self.policy.max_attempts} attempt(s): {e}",
                code="connect_failed",
                host=self.host,
                port=self.port,
                attempts=self.policy.max_attempts,
            ) from None

    # -- ops ---------------------------------------------------------------

    def submit(
        self,
        spec: ScenarioSpec | dict,
        priority: int = 0,
        tenant: str | None = None,
    ) -> dict[str, Any]:
        """POST the scenario; returns the admission ack."""
        spec_dict = spec.to_dict() if isinstance(spec, ScenarioSpec) else spec
        body: dict[str, Any] = {"spec": spec_dict, "priority": priority}
        if tenant is not None:
            body["tenant"] = tenant
        return self._request("POST", "/v1/jobs", body)

    def status(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def results(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}/results")

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def ping(self) -> dict[str, Any]:
        return self._request("GET", "/v1/ping")

    def agents_status(self) -> dict[str, Any]:
        """The coordinator's membership table and epoch."""
        return self._request("GET", "/v1/agents")

    def agents_join(self, host: str, port: int) -> dict[str, Any]:
        """Admit (or revive) an agent in the coordinator's membership."""
        return self._request(
            "POST", "/v1/agents/join", {"host": host, "port": port}
        )

    def agents_leave(self, host: str, port: int) -> dict[str, Any]:
        """Deregister an agent (state ``left``; never auto-revived)."""
        return self._request(
            "POST", "/v1/agents/leave", {"host": host, "port": port}
        )

    def shutdown(self) -> dict[str, Any]:
        return self._request("POST", "/v1/shutdown")

    def stream(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Yield stream events (``http.client`` de-chunks for us)."""
        conn = self._connection()
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/stream")
            response = conn.getresponse()
            if response.status != 200:
                # raises the structured error
                self._checked(protocol.decode_message(response.read()))
                raise ServeError("stream failed without a structured error")
            while True:
                line = response.readline(protocol.MAX_LINE_BYTES + 1)
                if not line:
                    return
                event = protocol.decode_message(line)
                if "event" not in event:
                    self._checked(event)  # the ack (or an error)
                    continue
                yield event
                if event.get("event") == "end":
                    return
        finally:
            conn.close()
