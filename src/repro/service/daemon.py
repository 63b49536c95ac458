"""The ``repro serve`` daemon: a long-running experiment job server.

One :class:`ReproDaemon` owns

* a single shared :class:`~repro.sweep.store.ResultStore` — every
  submission is classified against it, so results computed for one client
  are served from cache to every later client,
* a warm :class:`~repro.attacks.runner.PersistentPool` of worker processes
  — submissions pay no pool startup, and points execute off the event loop,
* an **in-flight dedup map** ``key -> Future`` — two clients submitting the
  same *missing* point while it is still computing share one execution: the
  first job schedules it (``computed``), the second merely awaits the same
  future (``coalesced``).  Combined with the content-addressed store this
  gives the fabric its core invariant: *each point key is computed at most
  once per daemon lifetime, no matter how many clients ask for it.*

Submissions arrive as JSON over a unix domain socket (newline-delimited,
see :mod:`repro.service.protocol`) or over a minimal local-HTTP shim bound
to ``127.0.0.1``.  Progress streams to watching clients and ``subscribe``
connections as :class:`~repro.api.events.JsonlTraceSink`-schema event
lines; the same events append to the daemon's own trace file
(``JsonlTraceSink(..., append=True)``), so a restarted daemon keeps one
continuous, line-flushed trace.

Durability mirrors the sweep engine: every completed point is
:meth:`~repro.sweep.store.ResultStore.put` (one locked, flushed JSONL
append) the moment its worker returns, and the manifest is rewritten once
per job.  ``SIGKILL`` the daemon mid-sweep and the store keeps every
completed point; a restarted daemon serves those from cache and computes
only the remainder — the final store digest is identical to an
uninterrupted run, the property the service tests assert.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.api.events import InstrumentationEvent, JsonlTraceSink
from repro.attacks.runner import PersistentPool
from repro.service import protocol
from repro.sweep.engine import SweepJob, SweepReport, SweepRunner, _execute_point
from repro.sweep.spec import SweepPoint, SweepSpec
from repro.sweep.store import ResultStore, code_fingerprint

__all__ = ["ReproDaemon", "Job"]


@dataclass
class Job:
    """One accepted submission and its progress."""

    job_id: str
    spec: SweepSpec
    report: SweepReport
    pending: List[SweepJob]
    state: str = "running"  # running | done | failed
    #: point_id -> computed | coalesced | cached | failed
    points: Dict[str, str] = field(default_factory=dict)
    failed_points: List[str] = field(default_factory=list)
    store_digest: str = ""
    done: asyncio.Event = field(default_factory=asyncio.Event)

    def counts(self) -> Dict[str, int]:
        tally = {"computed": 0, "coalesced": 0, "cached": 0, "failed": 0}
        for status in self.points.values():
            tally[status] += 1
        return tally

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "state": self.state,
            "sweep_hash": self.report.sweep_hash,
            "points": dict(self.points),
            "counts": self.counts(),
            "skipped": list(self.report.skipped),
            "keys": dict(self.report.keys),
            "store_digest": self.store_digest,
        }

    def summary(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "state": self.state,
            "sweep_hash": self.report.sweep_hash,
            "counts": self.counts(),
            "total": len(self.points),
        }


class ReproDaemon:
    """The experiment service (see module docstring for the architecture).

    Parameters
    ----------
    store_dir:
        The shared result store directory (created on first write).
    socket_path:
        Unix domain socket to listen on; a stale socket file from a killed
        daemon is replaced.
    http_host / http_port:
        When ``http_port`` is not ``None``, also serve the protocol over
        local HTTP (``0`` picks a free port, readable from
        :attr:`http_port` after :meth:`run` starts).  The HTTP shim covers
        ``GET /ping``, ``GET /status`` and ``POST /submit`` — request/
        response only, no event streaming (use the socket to watch).
    workers:
        Size of the persistent worker pool.
    trace_path:
        Optional JSONL trace file; opened in append mode with per-line
        flushing so restarts extend one continuous trace.
    fingerprint:
        Key-fingerprint override, passed straight to
        :class:`~repro.sweep.engine.SweepRunner` (tests pin them; the
        defaults hash the installed package).
    """

    def __init__(
        self,
        store_dir: os.PathLike,
        socket_path: os.PathLike,
        *,
        http_host: str = "127.0.0.1",
        http_port: Optional[int] = None,
        workers: int = 2,
        trace_path: Optional[os.PathLike] = None,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.store = ResultStore(store_dir)
        self.socket_path = pathlib.Path(socket_path)
        self.http_host = http_host
        self.http_port = http_port
        self.workers = workers
        # Resolved once: classify() and put() must agree on the fingerprint.
        self.fingerprint = fingerprint if fingerprint is not None else code_fingerprint()
        self._trace = (
            JsonlTraceSink(str(trace_path), append=True) if trace_path else None
        )

        self.pool: Optional[PersistentPool] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._unix_server: Optional[asyncio.AbstractServer] = None
        self._http_server: Optional[asyncio.AbstractServer] = None

        self._seq = 0
        self._job_counter = 0
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, asyncio.Future] = {}
        self._watchers: Dict[str, List[asyncio.Queue]] = {}
        self._subscribers: List[asyncio.Queue] = []
        self._tasks: set = set()

    # -- lifecycle -----------------------------------------------------------------

    async def run(self) -> None:
        """Serve until :meth:`request_shutdown` (or a ``shutdown`` request)."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.pool = PersistentPool(self.workers)
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self.socket_path.exists():
            self.socket_path.unlink()  # stale socket from a killed daemon
        self._unix_server = await asyncio.start_unix_server(
            self._serve_unix, path=str(self.socket_path)
        )
        if self.http_port is not None:
            self._http_server = await asyncio.start_server(
                self._serve_http, host=self.http_host, port=self.http_port
            )
            self.http_port = self._http_server.sockets[0].getsockname()[1]
        try:
            await self._stop.wait()
        finally:
            await self._shutdown()

    def request_shutdown(self) -> None:
        """Ask the daemon to stop (signal handlers and the shutdown op)."""
        if self._stop is not None and not self._stop.is_set():
            self._stop.set()

    async def _shutdown(self) -> None:
        for server in (self._unix_server, self._http_server):
            if server is not None:
                server.close()
                with contextlib.suppress(Exception):
                    await server.wait_closed()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        for queue in self._subscribers:
            queue.put_nowait(None)
        if self.pool is not None:
            # Idle pool: release the workers cleanly (close/join) —
            # ``terminate`` is reserved for abandoning in-flight points,
            # where racing the result-handler thread is unavoidable.
            if self._inflight:
                self.pool.terminate()
            else:
                self.pool.close()
            self.pool = None
        if self._trace is not None:
            self._trace.close()
        with contextlib.suppress(OSError):
            self.socket_path.unlink()

    # -- events --------------------------------------------------------------------

    def _emit(self, kind: str, job_id: str, **data: Any) -> Dict[str, Any]:
        """Publish one event: trace file, job watchers, global subscribers."""
        self._seq += 1
        data = {"job_id": job_id, **data}
        payload = protocol.make_event(kind, self._seq, **data)
        if self._trace is not None:
            self._trace.handle(
                InstrumentationEvent(
                    kind=kind, cycle=self._seq, source=protocol.EVENT_SOURCE, data=data
                )
            )
        for queue in self._watchers.get(job_id, []):
            queue.put_nowait(payload)
        for queue in self._subscribers:
            queue.put_nowait(payload)
        return payload

    # -- submission + scheduling ---------------------------------------------------

    def _accept(self, request: Dict[str, Any]) -> Job:
        """Parse a submit request and classify it against the shared store."""
        spec = protocol.submission_to_sweep_spec(request)
        self.store.reload()  # pick up points other processes stored
        runner = SweepRunner(spec, self.store, fingerprint=self.fingerprint)
        report, pending = runner.classify()
        self._job_counter += 1
        job = Job(
            job_id=f"job-{self._job_counter:04d}",
            spec=spec, report=report, pending=pending,
        )
        self._jobs[job.job_id] = job
        return job

    def _start(self, job: Job) -> "asyncio.Task":
        task = self._loop.create_task(self._drive(job))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    def _schedule(self, point: SweepPoint, resolved, key: str) -> asyncio.Future:
        """Put one missing point on the pool; its future resolves on the loop."""
        loop = self._loop
        future: asyncio.Future = loop.create_future()
        # A job whose drive task is cancelled at shutdown may abandon the
        # future; retrieve the exception so the loop stays quiet.
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        self._inflight[key] = future

        def on_result(result: Dict[str, Any]) -> None:
            loop.call_soon_threadsafe(self._point_finished, point, key, result, None)

        def on_error(error: BaseException) -> None:
            loop.call_soon_threadsafe(self._point_finished, point, key, None, error)

        self.pool.submit(
            _execute_point, (point, resolved),
            base_seed=point.seed,
            callback=on_result, error_callback=on_error,
        )
        return future

    def _point_finished(
        self,
        point: SweepPoint,
        key: str,
        result: Optional[Dict[str, Any]],
        error: Optional[BaseException],
    ) -> None:
        """Loop-side completion: store the result, resolve the shared future."""
        future = self._inflight.pop(key, None)
        if future is None or future.done():
            return
        if error is not None:
            future.set_exception(error)
            return
        self.store.put(key, point.point_id, point.scenario, self.fingerprint, result)
        future.set_result(result)

    async def _drive(self, job: Job) -> None:
        """Run one accepted job to completion, emitting progress events."""
        report = job.report
        try:
            self._emit(
                protocol.JOB_ACCEPTED, job.job_id,
                sweep_hash=report.sweep_hash,
                cached=len(report.cached), missing=len(job.pending),
                skipped=len(report.skipped),
            )
            for point_id in report.cached:
                job.points[point_id] = "cached"
                self._emit(
                    protocol.POINT_CACHED, job.job_id,
                    point_id=point_id, key=report.keys[point_id],
                )

            waits: List[Tuple[SweepPoint, str, asyncio.Future, str]] = []
            for point, resolved, key in job.pending:
                if self.store.has(key):
                    # Raced: an earlier job finished this key after classify.
                    job.points[point.point_id] = "cached"
                    report.cached.append(point.point_id)
                    self._emit(
                        protocol.POINT_CACHED, job.job_id,
                        point_id=point.point_id, key=key,
                    )
                    continue
                future = self._inflight.get(key)
                if future is not None:
                    waits.append((point, key, future, "coalesced"))
                else:
                    waits.append((point, key, self._schedule(point, resolved, key),
                                  "computed"))
            scheduled = sum(1 for w in waits if w[3] == "computed")
            if waits:
                self._emit(
                    protocol.JOB_STARTED, job.job_id,
                    scheduled=scheduled, coalesced=len(waits) - scheduled,
                )

            for point, key, future, status in waits:
                try:
                    await asyncio.shield(future)
                except asyncio.CancelledError:
                    raise
                except BaseException as exc:
                    job.points[point.point_id] = "failed"
                    job.failed_points.append(point.point_id)
                    self._emit(
                        protocol.POINT_FAILED, job.job_id,
                        point_id=point.point_id, key=key, error=str(exc),
                    )
                    continue
                job.points[point.point_id] = status
                if status == "computed":
                    report.computed.append(point.point_id)
                self._emit(
                    protocol.POINT_DONE, job.job_id,
                    point_id=point.point_id, key=key, status=status,
                )

            self.store.flush_manifest()
            job.store_digest = report.store_digest = self.store.digest()
            if job.failed_points:
                job.state = "failed"
                self._emit(
                    protocol.JOB_FAILED, job.job_id,
                    failed=list(job.failed_points), counts=job.counts(),
                    store_digest=job.store_digest,
                )
            else:
                job.state = "done"
                self._emit(
                    protocol.JOB_DONE, job.job_id,
                    counts=job.counts(), store_digest=job.store_digest,
                )
        finally:
            job.done.set()
            for queue in self._watchers.pop(job.job_id, []):
                queue.put_nowait(None)  # end-of-stream sentinel

    # -- unix socket protocol --------------------------------------------------------

    async def _serve_unix(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            raw = await reader.readline()
            if not raw:
                return
            try:
                request = protocol.parse_request(raw)
            except protocol.ProtocolError as exc:
                await self._reply(writer, {"ok": False, "error": str(exc)})
                return
            await self._dispatch(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _reply(self, writer: asyncio.StreamWriter,
                     payload: Dict[str, Any]) -> None:
        writer.write(protocol.encode_line(payload))
        await writer.drain()

    async def _dispatch(self, request: Dict[str, Any],
                        writer: asyncio.StreamWriter) -> None:
        op = request["op"]
        if op == "ping":
            await self._reply(writer, {"ok": True, "op": "ping", **self._ping()})
        elif op == "status":
            await self._reply(writer, {"ok": True, "op": "status", **self._status()})
        elif op == "shutdown":
            await self._reply(writer, {"ok": True, "op": "shutdown"})
            self.request_shutdown()
        elif op == "subscribe":
            queue: asyncio.Queue = asyncio.Queue()
            self._subscribers.append(queue)
            try:
                await self._reply(writer, {"ok": True, "op": "subscribe"})
                while (event := await queue.get()) is not None:
                    await self._reply(writer, event)
            finally:
                with contextlib.suppress(ValueError):
                    self._subscribers.remove(queue)
        elif op == "submit":
            await self._handle_submit(request, writer)

    async def _handle_submit(self, request: Dict[str, Any],
                             writer: asyncio.StreamWriter) -> None:
        try:
            job = self._accept(request)
        except protocol.ProtocolError as exc:
            await self._reply(writer, {"ok": False, "error": str(exc)})
            return
        wait = bool(request.get("wait", True))
        queue: Optional[asyncio.Queue] = None
        if wait:
            # Register before the drive task starts so no event is missed.
            queue = asyncio.Queue()
            self._watchers.setdefault(job.job_id, []).append(queue)
        self._start(job)
        await self._reply(writer, {
            "ok": True, "op": "submit", "job_id": job.job_id,
            "accepted": {
                "sweep_hash": job.report.sweep_hash,
                "cached": len(job.report.cached),
                "missing": len(job.pending),
                "skipped": len(job.report.skipped),
            },
        })
        if queue is not None:
            while (event := await queue.get()) is not None:
                await self._reply(writer, event)
            await self._reply(writer, {"ok": True, "done": True,
                                       "job": job.to_dict()})

    def _ping(self) -> Dict[str, Any]:
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "pid": os.getpid(),
            "workers": self.workers,
            "store": str(self.store.root),
        }

    def _status(self) -> Dict[str, Any]:
        return {
            "jobs": [job.summary() for job in self._jobs.values()],
            "inflight": len(self._inflight),
            "store": {"entries": len(self.store), "digest": self.store.digest()},
        }

    # -- local HTTP shim -------------------------------------------------------------

    async def _serve_http(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            status, payload = await self._http_exchange(reader)
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            writer.write(
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n".encode("ascii") + body
            )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _http_exchange(self, reader: asyncio.StreamReader):
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            return "400 Bad Request", {"ok": False, "error": "malformed request line"}
        method, path, _ = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", "0") or "0")
        if length:
            body = await reader.readexactly(length)

        if method == "GET" and path == "/ping":
            return "200 OK", {"ok": True, **self._ping()}
        if method == "GET" and path == "/status":
            return "200 OK", {"ok": True, **self._status()}
        if method == "POST" and path == "/submit":
            try:
                request = protocol.decode_line(body)
                request["op"] = "submit"
                job = self._accept(request)
            except protocol.ProtocolError as exc:
                return "400 Bad Request", {"ok": False, "error": str(exc)}
            self._start(job)
            if bool(request.get("wait", True)):
                await job.done.wait()
                return "200 OK", {"ok": True, "job": job.to_dict()}
            return "202 Accepted", {"ok": True, "job_id": job.job_id}
        return "404 Not Found", {"ok": False, "error": f"no route {method} {path}"}
