"""Persistent worker pool: long-lived processes shared across jobs.

:class:`WorkerPool` is the one multi-process executor in the package.
:meth:`~repro.orchestrate.runner.ParallelRunner.map` with ``workers >
1`` opens one for the duration of the call, and a long-running driver
(the serve scheduler, or any ``ParallelRunner(pool=...)`` caller) keeps
one across jobs so it never pays pool spin-up or teardown per job:

* workers are plain ``multiprocessing`` processes created **once** per
  pool and reused across an arbitrary number of jobs — worker PIDs
  stay stable and no descriptors accumulate per job (pinned by
  ``tests/orchestrate/test_worker_pool.py``),
* task completion is reported as an *event stream*
  (``done`` / ``error`` / ``lost``), which is what lets the serve
  scheduler stream partial results and interleave trials from many
  jobs on one pool,
* a worker killed mid-task is detected (``lost`` event naming the dead
  PID), and a replacement worker is spawned so capacity never decays —
  the fault-tolerance substrate behind job retries and ``partial``
  job states in :mod:`repro.serve`.

Tasks are ``(fn, arg)`` pairs; both must be picklable.  Events are
tuples ``(kind, task_id, payload)`` where payload is the result
(``done``), the raised exception or its string rendering (``error``),
or a human-readable loss reason (``lost``).

Everything that crosses a process boundary is pickled exactly once, at
a point that can report failure: the parent pickles ``(fn, arg)`` in
:meth:`WorkerPool.submit`, the worker pickles its result (or
exception), and the parent unpickles at the single delivery point in
:meth:`WorkerPool.next_event`.  Only bytes ride the queues, so the
queues' feeder threads can never fail silently; a task, result or
exception that does not survive pickling turns into an ``error`` event
for that task instead of a task outstanding forever.
"""

from __future__ import annotations

import collections
import itertools
import multiprocessing as mp
import os
import pickle
import queue as queuelib
import time
from typing import Any, Callable

from repro.errors import ReproError

#: event kinds a pool can report for a submitted task
EVENT_KINDS = ("done", "error", "lost")

_STOP = None  # sentinel a worker interprets as "exit the loop"


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _dumps(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _worker_main(tasks: mp.Queue, events: mp.Queue) -> None:
    """Worker loop: pull ``(task_id, task bytes)``, announce, run, report.

    The ``start`` announcement (carrying the worker PID) is what lets
    the parent attribute an in-flight task to a worker that later dies.
    The result or exception is pickled here, where a failure can still
    be reported: an exception that cannot pickle ships as its string
    rendering, a result that cannot pickle as an ``error``, so one bad
    trial never wedges the pool.
    """
    while True:
        item = tasks.get()
        if item is _STOP:
            break
        task_id, task = item
        events.put(("start", task_id, os.getpid()))
        try:
            fn, arg = pickle.loads(task)
            kind, payload = "done", fn(arg)
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            kind, payload = "error", exc
        try:
            data = _dumps(payload)
        except Exception as exc:
            if kind == "done":
                payload = f"result cannot be pickled: {_describe(exc)}"
            else:
                payload = _describe(payload)
            kind, data = "error", _dumps(payload)
        events.put((kind, task_id, data))


class WorkerPool:
    """A fixed-capacity pool of persistent, crash-tolerant workers.

    ``submit`` returns a task id; ``next_event`` delivers completions
    in whatever order workers finish.  The pool never raises on a
    worker crash or an unpicklable task — it reports a ``lost`` event
    for the task the dead worker was running (and respawns a
    replacement) or an ``error`` event for the task that cannot cross
    the process boundary, so callers decide the policy (retry,
    degrade, fail).
    """

    def __init__(self, workers: int = 2, ctx: str | None = None) -> None:
        if workers < 1:
            raise ReproError(f"worker pool needs >= 1 worker, got {workers}")
        self.workers = workers
        # fork keeps startup cheap and lets tests ship module-local fns
        self._mp = mp.get_context(ctx or "fork")
        self._tasks: mp.Queue = self._mp.Queue()
        self._events: mp.Queue = self._mp.Queue()
        self._procs: list = []
        self._task_ids = itertools.count()
        #: task_id -> worker pid, set once the worker announces "start"
        self._started: dict[int, int] = {}
        #: task ids submitted and not yet reported done/error/lost
        self._outstanding: set[int] = set()
        #: terminal events decided in the parent (losses, unpicklable
        #: tasks) and not yet delivered via next_event
        self._backlog: collections.deque = collections.deque()
        self._closed = False
        for _ in range(workers):
            self._spawn()

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self) -> None:
        p = self._mp.Process(
            target=_worker_main, args=(self._tasks, self._events), daemon=True
        )
        p.start()
        self._procs.append(p)

    def pids(self) -> list[int]:
        """PIDs of the live workers (stable while nothing crashes)."""
        return [p.pid for p in self._procs if p.is_alive()]

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker; idempotent.

        Workers finish the tasks already queued, then exit; any still
        alive after ``timeout`` seconds are terminated.
        """
        if self._closed:
            return
        self._closed = True
        for _ in self._procs:
            try:
                self._tasks.put(_STOP)
            except (ValueError, OSError):
                break
        deadline = time.monotonic() + timeout
        for p in self._procs:
            p.join(timeout=max(0.0, deadline - time.monotonic()))
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        for q in (self._tasks, self._events):
            q.close()
            q.cancel_join_thread()
        self._procs.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        # a block that raised abandons its queued tasks: stop at once
        # instead of letting the workers drain them
        self.close(timeout=0.0 if exc_type is not None else 5.0)

    # -- task flow ---------------------------------------------------------

    def submit(self, fn: Callable[[Any], Any], arg: Any) -> int:
        """Queue one task; returns its id (matched by later events).

        Never raises for the task itself: a ``(fn, arg)`` that cannot
        be pickled is reported as that task's ``error`` event.
        """
        if self._closed:
            raise ReproError("worker pool is closed")
        task_id = next(self._task_ids)
        self._outstanding.add(task_id)
        try:
            task = _dumps((fn, arg))
        except Exception as exc:
            self._backlog.append(
                ("error", task_id, f"task cannot be pickled: {_describe(exc)}")
            )
        else:
            self._tasks.put((task_id, task))
        return task_id

    @property
    def outstanding(self) -> int:
        """Tasks submitted whose terminal event has not been delivered."""
        return len(self._outstanding)

    def next_event(
        self, timeout: float | None = None
    ) -> tuple[str, int, Any] | None:
        """The next terminal event, or ``None`` if ``timeout`` expires.

        Internally consumes ``start`` announcements (tracking which
        worker runs which task) and converts detected worker deaths
        into ``lost`` events for the tasks they were running.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._backlog:
                event = self._backlog.popleft()
                self._outstanding.discard(event[1])
                return event
            try:
                kind, task_id, payload = self._events.get(timeout=0.05)
            except queuelib.Empty:
                self._reap()
                if self._backlog:
                    continue
                if deadline is not None and time.monotonic() >= deadline:
                    return None
                continue
            if kind == "start":
                self._started[task_id] = payload
                continue
            if task_id not in self._outstanding:
                continue  # late event for a task already reported lost
            return self._deliver(kind, task_id, payload)

    def _deliver(
        self, kind: str, task_id: int, data: bytes
    ) -> tuple[str, int, Any]:
        """Retire a task and unpickle its worker-side payload."""
        self._outstanding.discard(task_id)
        self._started.pop(task_id, None)
        try:
            return (kind, task_id, pickle.loads(data))
        except Exception as exc:
            return (
                "error", task_id,
                f"result cannot be unpickled: {_describe(exc)}",
            )

    def _reap(self) -> None:
        """Replace dead workers; queue losses for their in-flight tasks.

        Events the dead worker managed to flush before dying are
        honoured first: the queue is drained into ``_started`` (and the
        loss check skips tasks no longer outstanding), so a task that
        completed just before the crash is never misreported as lost.
        """
        dead = [(i, p) for i, p in enumerate(self._procs) if not p.is_alive()]
        if not dead:
            return
        # drain flushed events so completed-then-crashed tasks survive
        buffered = []
        while True:
            try:
                ev = self._events.get_nowait()
            except queuelib.Empty:
                break
            if ev[0] == "start":
                self._started[ev[1]] = ev[2]
            else:
                buffered.append(ev)
        for kind, task_id, data in buffered:
            if task_id in self._outstanding:
                self._backlog.append(self._deliver(kind, task_id, data))
        for i, p in sorted(dead, reverse=True):
            p.join(timeout=0.1)
            dead_pid, exitcode = p.pid, p.exitcode
            del self._procs[i]
            if not self._closed:
                self._spawn()
            for task_id, pid in list(self._started.items()):
                if pid != dead_pid or task_id not in self._outstanding:
                    continue
                self._started.pop(task_id, None)
                self._outstanding.discard(task_id)
                self._backlog.append((
                    "lost", task_id,
                    f"worker {dead_pid} died (exit code {exitcode})",
                ))
