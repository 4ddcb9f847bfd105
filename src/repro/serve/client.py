"""Client helper for the profiling service.

:class:`ServerClient` wraps one socket connection in typed methods for
every protocol op, raising :class:`~repro.errors.ServeError` (with the
server's structured ``code``/details) on failure responses so callers
can branch on ``queue_full`` vs ``bad_spec`` without parsing prose.

Quickstart::

    from repro.scenarios import load_scenario
    from repro.serve import ServerClient

    with ServerClient(port=7123) as client:
        outcome = client.run(load_scenario("quickstart"))
        for event in outcome.rows:
            print(event["index"], event["row"])
        print(outcome.report["provenance"]["spec_hash"])

:meth:`ServerClient.run` is the submit → stream → results convenience
loop; the individual ops (:meth:`submit`, :meth:`stream`,
:meth:`status`, :meth:`results`, :meth:`cancel`, :meth:`shutdown`)
compose for anything finer-grained.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import ServeError
from repro.scenarios.spec import ScenarioSpec
from repro.serve import protocol
from repro.serve.policy import RetryPolicy


@dataclass
class RunOutcome:
    """Everything one :meth:`ServerClient.run` call produced.

    ``rows`` are the streamed row events in landing order (each with
    ``index``/``cached``/``row``); ``report`` is the server's final
    report dict (provenance/execution/spec/results) for ``done`` jobs,
    ``None`` for ``partial`` ones.
    """

    job_id: str
    state: str
    rows: list[dict] = field(default_factory=list)
    report: dict | None = None
    error: str | None = None


class JobClient:
    """What every profiling-service client shares, whatever its wire.

    Subclasses supply the ops (``submit``, ``stream``, ``results``);
    this base turns a structured failure response into a
    :class:`~repro.errors.ServeError` and runs the submit → stream →
    results loop through ``self``, so a wrapped or patched op on the
    subclass is the one that runs.
    """

    @staticmethod
    def _checked(response: dict[str, Any]) -> dict[str, Any]:
        if response.get("ok"):
            return response
        err = response.get("error") or {}
        raise ServeError(
            err.get("reason", "server reported an error"),
            code=err.get("code", "bad_request"),
            **{k: v for k, v in err.items() if k not in ("code", "reason")},
        )

    def run(
        self,
        spec: ScenarioSpec | dict,
        priority: int = 0,
        tenant: str | None = None,
    ) -> RunOutcome:
        """Submit, stream every row, then fetch the final results."""
        ack = self.submit(spec, priority=priority, tenant=tenant)
        job_id = ack["job_id"]
        rows: list[dict] = []
        state = "running"
        error = None
        for event in self.stream(job_id):
            if event.get("event") == "row":
                rows.append(
                    {k: event[k] for k in ("index", "cached", "row")}
                )
            else:
                state = event.get("state", "done")
                error = event.get("error")
        report = None
        if state in ("done", "partial"):
            report = self.results(job_id).get("report")
        return RunOutcome(
            job_id=job_id, state=state, rows=rows, report=report, error=error
        )


class ServerClient(JobClient):
    """One connection to a :class:`~repro.serve.ProfilingServer`.

    Connect attempts, backoff and socket timeouts follow ``policy``;
    without one, the client makes 3 attempts with a jitter-free 0.1 s
    base backoff, a 5 s connect timeout and ``timeout`` as the
    per-request socket timeout.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7123,
        timeout: float | None = 60.0,
        policy: RetryPolicy | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.host = host
        self.port = port
        if policy is None:
            # jitter stays off so the default schedule is deterministic
            policy = RetryPolicy(jitter=False, op_timeout_s=timeout)
        #: the :class:`~repro.serve.RetryPolicy` governing connect
        #: attempts, backoff shape, socket timeouts, and the overall
        #: connect deadline
        self.policy = policy
        self.timeout = policy.op_timeout_s
        self._rng = rng
        self._sock: socket.socket | None = None
        self._rfile = None
        self._wfile = None

    # -- connection --------------------------------------------------------

    def connect(self) -> "ServerClient":
        """Open the socket (lazy: request methods call this on demand).

        Each attempt is bounded by the policy's ``connect_timeout_s``
        and failures are retried with capped, full-jitter exponential
        backoff.  Without a ``deadline_s`` the loop is attempts-bounded
        (``max_attempts``); with one, it keeps retrying until the
        wall-clock budget is spent instead — attempts become unbounded
        and every sleep and dial is clipped to the remaining budget.
        Exhausting either raises a structured
        :class:`~repro.errors.ServeError` with ``code="connect_failed"``
        carrying host/port/attempts/``elapsed_s`` instead of blocking
        indefinitely on a dead host.
        """
        if self._sock is not None:
            return self
        policy = self.policy
        deadline = policy.deadline()
        last: Exception | None = None
        attempt = 0
        while True:
            if attempt:
                pause = policy.backoff_s(attempt - 1, self._rng)
                remaining = deadline.remaining_s()
                if remaining is not None and pause >= remaining:
                    break  # sleeping would outlive the budget
                time.sleep(pause)
            if deadline.expired:
                break
            attempt += 1
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port),
                    timeout=deadline.cap(policy.connect_timeout_s),
                )
            except OSError as e:
                last = e
                if policy.deadline_s is None and attempt >= policy.max_attempts:
                    break
                continue
            self._sock.settimeout(policy.op_timeout_s)
            self._rfile = self._sock.makefile("rb")
            self._wfile = self._sock.makefile("wb")
            return self
        details: dict[str, Any] = {
            "host": self.host,
            "port": self.port,
            "attempts": attempt,
            "elapsed_s": round(deadline.elapsed_s, 3),
        }
        if policy.deadline_s is not None:
            details["deadline_s"] = policy.deadline_s
        raise ServeError(
            f"could not connect to {self.host}:{self.port} after "
            f"{attempt} attempt(s) ({details['elapsed_s']}s): {last}",
            code="connect_failed",
            **details,
        )

    def close(self) -> None:
        """Close the connection; idempotent."""
        for f in (self._rfile, self._wfile):
            if f is not None:
                try:
                    f.close()
                except OSError:
                    pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = self._rfile = self._wfile = None

    def __enter__(self) -> "ServerClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request plumbing --------------------------------------------------

    def _send(self, payload: dict[str, Any]) -> None:
        self.connect()
        protocol.write_message(self._wfile, payload)

    def _read(self) -> dict[str, Any]:
        msg = protocol.read_message(self._rfile)
        if msg is None:
            raise ServeError("server closed the connection")
        return msg

    def _request(self, payload: dict[str, Any]) -> dict[str, Any]:
        self._send(payload)
        return self._checked(self._read())

    def request(self, op: str, **params: Any) -> dict[str, Any]:
        """One arbitrary-op request/response round trip.

        The escape hatch for protocol extensions — the cluster shard
        agents accept ``cache_export`` / ``cache_import`` beyond the
        base :data:`~repro.serve.protocol.OPS`, and this is how the
        coordinator's replicator reaches them with the same structured
        error handling as the typed methods.
        """
        return self._request({"op": op, **params})

    # -- ops ---------------------------------------------------------------

    def submit(
        self,
        spec: ScenarioSpec | dict,
        priority: int = 0,
        trial_indices: list[int] | None = None,
        tenant: str | None = None,
    ) -> dict[str, Any]:
        """Submit a scenario; returns the admission ack (``job_id`` ...).

        ``trial_indices`` restricts the job to a sub-grid of the spec's
        plan (the cluster sharding primitive); ``tenant`` names the
        quota bucket on coordinators that enforce per-tenant quotas.
        Raises :class:`~repro.errors.ServeError` with
        ``code="queue_full"`` (or ``"quota_exceeded"``) when admission
        rejects the job.
        """
        spec_dict = spec.to_dict() if isinstance(spec, ScenarioSpec) else spec
        payload = {"op": "submit", "spec": spec_dict, "priority": priority}
        if trial_indices is not None:
            payload["trial_indices"] = list(trial_indices)
        if tenant is not None:
            payload["tenant"] = tenant
        return self._request(payload)

    def status(self, job_id: str) -> dict[str, Any]:
        """The job's state/progress snapshot."""
        return self._request({"op": "status", "job_id": job_id})

    def results(self, job_id: str) -> dict[str, Any]:
        """Final rows + report for a ``done``/``partial`` job."""
        return self._request({"op": "results", "job_id": job_id})

    def stream(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Yield row events as trials land; ends after the ``end`` event.

        The generator yields every ``{"event": "row", ...}`` dict and
        finally the ``{"event": "end", "state": ...}`` dict.
        """
        self._send({"op": "stream", "job_id": job_id})
        self._checked(self._read())  # streaming ack
        while True:
            event = self._read()
            yield event
            if event.get("event") == "end":
                return

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a queued/running job."""
        return self._request({"op": "cancel", "job_id": job_id})

    def ping(self) -> dict[str, Any]:
        """Server liveness + pool/queue statistics."""
        return self._request({"op": "ping"})

    def handshake(self) -> dict[str, Any]:
        """Version-checked ping: both sides verify PROTOCOL_VERSION.

        The request carries this client's
        :data:`~repro.serve.protocol.PROTOCOL_VERSION` so the server
        rejects a skewed peer with a structured ``protocol_mismatch``
        error; the response's version is checked symmetrically here.
        The cluster coordinator handshakes every agent it registers.
        """
        info = self._request(
            {"op": "ping", "protocol": protocol.PROTOCOL_VERSION}
        )
        if info.get("protocol") != protocol.PROTOCOL_VERSION:
            raise ServeError(
                f"server {self.host}:{self.port} speaks protocol "
                f"{info.get('protocol')!r}, this client speaks "
                f"{protocol.PROTOCOL_VERSION}",
                code="protocol_mismatch",
                server=info.get("protocol"),
                client=protocol.PROTOCOL_VERSION,
            )
        return info

    def shutdown(self) -> dict[str, Any]:
        """Ask the server to stop (acknowledged before it unwinds)."""
        response = self._request({"op": "shutdown"})
        self.close()
        return response
