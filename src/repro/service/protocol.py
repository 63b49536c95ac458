"""Wire protocol of the ``repro serve`` daemon.

Everything on the wire is **newline-delimited JSON** — one object per line,
UTF-8, in both directions — over a unix domain socket (and mirrored over a
minimal local-HTTP shim, see :mod:`repro.service.daemon`).  A connection
carries exactly one request line; the daemon answers with one response line,
optionally followed by a stream of *event* lines (a watched submission, a
subscription).

Requests (``op`` selects the handler)::

    {"op": "ping"}
    {"op": "status"}                          # jobs + store summary
    {"op": "submit", "sweep": {...SweepSpec fields...}, "wait": true}
    {"op": "submit", "experiment": {"scenario": "minimal_1x1", ...}}
    {"op": "subscribe"}                       # stream every daemon event
    {"op": "shutdown"}

Responses carry ``"ok": true`` (plus op-specific payload) or ``"ok": false``
with an ``"error"`` string.  A watched submission then streams events and
terminates with one final ``{"ok": true, "done": true, "job": {...}}`` line.

Event lines reuse the :class:`~repro.api.events.JsonlTraceSink` wire schema
— ``{"kind": ..., "cycle": ..., "source": ..., "data": {...}}`` — with the
daemon's monotonically increasing event sequence number in the ``cycle``
slot and ``"repro-daemon"`` as the source, so the daemon's trace file and
its live subscription stream are the *same* format the instrumentation
layer already emits and every existing JSONL consumer can read.  Service
vocabulary (``SERVICE_EVENT_KINDS``):

==================  =======================================================
kind                emitted when
==================  =======================================================
``job.accepted``    a submission was parsed and classified against the store
``job.started``     its missing points were scheduled on the worker pool
``point.done``      one point finished computing (``status``:
                    ``computed`` — this job scheduled it — or
                    ``coalesced`` — another in-flight job computed it)
``point.cached``    a point was served from the store without touching the
                    pool
``point.failed``    a point's worker raised (``error`` carries the message)
``job.done``        every point of the job is accounted for
``job.failed``      at least one point failed
==================  =======================================================

An ``ExperimentSpec`` submission is the one-point special case of a sweep:
:func:`submission_to_sweep_spec` normalizes both shapes into a
:class:`~repro.sweep.spec.SweepSpec`, so a single experiment and a grid
flow through the same scheduling, dedup and caching machinery.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Optional, Tuple

from repro.sweep.spec import SweepSpec

__all__ = [
    "PROTOCOL_VERSION",
    "JOB_ACCEPTED",
    "JOB_STARTED",
    "JOB_DONE",
    "JOB_FAILED",
    "POINT_DONE",
    "POINT_CACHED",
    "POINT_FAILED",
    "SERVICE_EVENT_KINDS",
    "OPS",
    "ProtocolError",
    "encode_line",
    "decode_line",
    "make_event",
    "parse_request",
    "sweep_spec_to_dict",
    "sweep_spec_from_dict",
    "experiment_to_sweep_spec",
    "submission_to_sweep_spec",
]


#: Bumped on incompatible wire changes; ``ping`` reports it.
PROTOCOL_VERSION = 1

#: The daemon's event-line source field.
EVENT_SOURCE = "repro-daemon"

JOB_ACCEPTED = "job.accepted"
JOB_STARTED = "job.started"
JOB_DONE = "job.done"
JOB_FAILED = "job.failed"
POINT_DONE = "point.done"
POINT_CACHED = "point.cached"
POINT_FAILED = "point.failed"

#: Closed vocabulary of service event kinds (mirrors ``EVENT_KINDS`` for the
#: instrumentation bus; the two sets are disjoint by prefix).
SERVICE_EVENT_KINDS = frozenset(
    {
        JOB_ACCEPTED,
        JOB_STARTED,
        JOB_DONE,
        JOB_FAILED,
        POINT_DONE,
        POINT_CACHED,
        POINT_FAILED,
    }
)

#: Request operations the daemon understands.
OPS = ("ping", "status", "submit", "subscribe", "shutdown")


class ProtocolError(ValueError):
    """A malformed request/submission (reported to the client, not fatal)."""


def encode_line(payload: Dict[str, Any]) -> bytes:
    """One wire line: compact JSON + newline, UTF-8."""
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(raw: bytes) -> Dict[str, Any]:
    """Parse one wire line into a JSON object (``ProtocolError`` otherwise)."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"not a JSON line: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("expected a JSON object per line")
    return payload


def make_event(kind: str, seq: int, **data: Any) -> Dict[str, Any]:
    """One event line in the JsonlTraceSink wire schema."""
    if kind not in SERVICE_EVENT_KINDS:
        raise ValueError(f"unknown service event kind {kind!r}")
    return {"kind": kind, "cycle": seq, "source": EVENT_SOURCE, "data": data}


def parse_request(raw: bytes) -> Dict[str, Any]:
    """Decode and validate one request line."""
    request = decode_line(raw)
    op = request.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {', '.join(OPS)}")
    return request


# ---------------------------------------------------------------------------
# Spec (de)serialization
# ---------------------------------------------------------------------------


def _tupled(value: Any) -> Tuple[Any, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


def sweep_spec_to_dict(spec: SweepSpec) -> Dict[str, Any]:
    """JSON-shaped form of a sweep spec (tuples become lists)."""
    return {
        field.name: list(getattr(spec, field.name))
        for field in dataclasses.fields(spec)
    }


def sweep_spec_from_dict(payload: Dict[str, Any]) -> SweepSpec:
    """Build a :class:`SweepSpec` from its JSON form.

    Unknown fields are rejected loudly — a typo'd axis name silently
    sweeping the default grid is exactly the bug a daemon must not hide.
    Axis values arrive as JSON lists (or bare scalars, promoted to
    one-element axes); :class:`SweepSpec` itself validates the contents.
    """
    known = {field.name for field in dataclasses.fields(SweepSpec)}
    unknown = set(payload) - known
    if unknown:
        raise ProtocolError(
            f"unknown sweep field(s) {sorted(unknown)}; expected a subset of "
            f"{sorted(known)}"
        )
    kwargs = {name: _tupled(value) for name, value in payload.items()}
    try:
        return SweepSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid sweep spec: {exc}") from None


#: Fields accepted in an ``experiment`` submission and their defaults.
_EXPERIMENT_FIELDS = {
    "scenario": None,  # required
    "placement": None,
    "seed": 0,
    "campaign_workers": 1,
    "protected": True,
    "workload_ops": None,
    "attack_mode": "scenario",
}


def experiment_to_sweep_spec(payload: Dict[str, Any]) -> SweepSpec:
    """An experiment submission as the one-point sweep it is.

    ``{"scenario": "minimal_1x1", "seed": 3}`` selects one grid cell; every
    omitted field keeps the scenario's own default, exactly like the
    corresponding sweep axis entry.
    """
    unknown = set(payload) - set(_EXPERIMENT_FIELDS)
    if unknown:
        raise ProtocolError(
            f"unknown experiment field(s) {sorted(unknown)}; expected a "
            f"subset of {sorted(_EXPERIMENT_FIELDS)}"
        )
    scenario = payload.get("scenario")
    if not isinstance(scenario, str) or not scenario:
        raise ProtocolError("experiment submission needs a 'scenario' name")
    merged = {**_EXPERIMENT_FIELDS, **payload}
    try:
        return SweepSpec(
            scenarios=(scenario,),
            placements=(merged["placement"],),
            seeds=(int(merged["seed"]),),
            campaign_workers=(int(merged["campaign_workers"]),),
            protected=(bool(merged["protected"]),),
            workload_ops=(
                None if merged["workload_ops"] is None else int(merged["workload_ops"]),
            ),
            attack_modes=(merged["attack_mode"],),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid experiment submission: {exc}") from None


def submission_to_sweep_spec(request: Dict[str, Any]) -> SweepSpec:
    """Normalize a submit request (sweep or experiment shape) to a spec."""
    sweep: Optional[Dict[str, Any]] = request.get("sweep")
    experiment: Optional[Dict[str, Any]] = request.get("experiment")
    if (sweep is None) == (experiment is None):
        raise ProtocolError(
            "a submit request carries exactly one of 'sweep' or 'experiment'"
        )
    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ProtocolError("'sweep' must be an object of SweepSpec fields")
        return sweep_spec_from_dict(sweep)
    if not isinstance(experiment, dict):
        raise ProtocolError("'experiment' must be an object")
    return experiment_to_sweep_spec(experiment)
