"""The campaign service's wire protocol: every POST body, parsed once.

This is the one module that knows the JSON the service speaks.  Each
POST route has a frozen request type (:data:`~.http.POST_REQUESTS`)
whose strict ``from_dict`` raises :class:`ValueError` naming the first
violation, unknown fields included; ``to_dict`` is the body a client
sends.  :class:`LeaseGrant` is the only reply a client reads fields
from; other replies are plain objects, and a refusal is ``{"error":
text}`` with a 4xx status (:class:`ServiceError` on the client side).
Numbers must be finite: :func:`decode_body` refuses ``NaN``/``Infinity``
literals, so none reach a store or a trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from ...obs import TraceContext
from ..spec import CampaignSpec
from ..store import STATUS_DONE, STATUS_FAILED


class ServiceError(Exception):
    """A refused request: its HTTP status and the server's ``error``."""

    def __init__(self, code: int, error: str):
        super().__init__(f"{code} {error}")
        self.code = code
        self.error = error


def _non_finite(text: str):
    raise ValueError(f"non-finite number {text}")


def _finite(text: str) -> float:
    value = float(text)  # 1e999 parses to inf
    return value if math.isfinite(value) else _non_finite(text)


def decode_body(raw: bytes) -> dict:
    """A request body: a JSON object with finite numbers only."""
    try:
        payload = json.loads(raw.decode(), parse_float=_finite,
                             parse_constant=_non_finite)
    except RecursionError:
        raise ValueError("bad JSON body: nested too deeply") from None
    except ValueError as exc:  # includes UnicodeDecodeError
        raise ValueError(f"bad JSON body: {exc}") from None
    _check(isinstance(payload, dict), "body must be a JSON object")
    return payload


# Field checks: raw wire value (None when absent) -> parsed value.
def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _of(kind, message: str, ok=lambda value: True):
    """Accept a ``kind`` value that passes ``ok`` (a bool is no number)."""
    def check(value):
        _check(isinstance(value, kind) and ok(value) and (
            kind is bool or not isinstance(value, bool)), message)
        return value
    return check


def _number(message: str):
    return _of((int, float), message, math.isfinite)


def _optional(check, default=None):
    return lambda value: default if value is None else check(value)


_WORKER_ID = _of(str, "worker_id must be a non-empty string", bool)


class _Message:
    """A wire type: ``checks`` parses each field of the JSON object, in
    order, and any other field is refused."""

    checks: dict = {}

    @classmethod
    def from_dict(cls, data):
        _check(isinstance(data, dict), "body must be a JSON object")
        values = {name: check(data.get(name))
                  for name, check in cls.checks.items()}
        for key in data:
            _check(key in cls.checks, f"unknown field {key!r}")
        return cls(**values)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SubmitRequest:
    """``POST /campaigns``: the body is the campaign spec itself."""

    spec: CampaignSpec

    @classmethod
    def from_dict(cls, data) -> "SubmitRequest":
        _check(isinstance(data, dict), "body must be a JSON object")
        try:
            return cls(CampaignSpec.from_dict(data))
        except (TypeError, KeyError) as exc:  # unknown or missing field
            raise ValueError(str(exc)) from None

    def to_dict(self) -> dict:
        return self.spec.to_dict()


@dataclass(frozen=True)
class LeaseRequest(_Message):
    """``POST /lease``: ask for one unit of work."""

    worker_id: str
    checks = {"worker_id": _WORKER_ID}


@dataclass(frozen=True)
class LeaseRef(_Message):
    """One held lease named in a heartbeat."""

    task_id: str
    campaign: str | None = None
    checks = {"task_id": _of(str, ""), "campaign": _optional(_of(str, ""))}


def _lease_refs(value) -> tuple[LeaseRef, ...]:
    try:
        _check(isinstance(value, list), "")
        return tuple(LeaseRef.from_dict(entry) for entry in value)
    except ValueError:
        raise ValueError("leases must be a list of objects with string "
                         "task_id and campaign") from None


@dataclass(frozen=True)
class HeartbeatRequest(_Message):
    """``POST /heartbeat``: renew the named leases (every lease the
    worker holds when ``leases`` is ``None``)."""

    worker_id: str
    leases: tuple[LeaseRef, ...] | None = None
    checks = {"worker_id": _WORKER_ID, "leases": _optional(_lease_refs)}


def _record(value) -> dict:
    _of(dict, "record must be an object")(value)
    _of(str, "record task_id must be a string")(value.get("task_id"))
    _check(value.get("status") in (STATUS_DONE, STATUS_FAILED),
           f"record status must be {STATUS_DONE!r} or {STATUS_FAILED!r}")
    if value["status"] == STATUS_DONE:
        # the campaign report reads both of a done record
        _of(dict, "a done record's task must be an object")(
            value.get("task"))
        _of(dict, "a done record's result must be an object")(
            value.get("result"))
    return value


@dataclass(frozen=True)
class CompleteRequest(_Message):
    """``POST /complete``: a finished task's record (free-form, but
    with the string ``task_id`` and the status the scheduler reads, and
    for a done record the ``task`` and ``result`` objects the report
    reads)."""

    worker_id: str
    record: dict
    campaign: str | None = None
    checks = {"worker_id": _WORKER_ID,
              "campaign": _optional(_of(str, "campaign must be a string")),
              "record": _record}


_CAMPAIGN_ID = _optional(_of(str, "campaign ids must be strings"))


def _spans(value) -> tuple[dict, ...]:
    _of(list, "spans must be a list")(value)
    for span in value:
        _check(isinstance(span, dict) and "id" in span,
               "every span must be an object with an id")
        tags = _optional(_of(dict, "span tags must be an object"),
                         {})(span.get("tags"))
        if "start" in span:
            _number("span start must be a number")(span["start"])
        _CAMPAIGN_ID(tags.get("campaign"))
    return tuple(value)


@dataclass(frozen=True)
class TraceBatch(_Message):
    """``POST /traces``: one worker's finished spans, each an object
    with an ``id``; ``unix_t0`` anchors their ``start`` to unix time."""

    worker_id: str
    spans: tuple[dict, ...] = ()
    campaign: str | None = None
    unix_t0: float = 0.0
    checks = {"worker_id": _WORKER_ID, "spans": _optional(_spans, ()),
              "campaign": _CAMPAIGN_ID,
              "unix_t0": _optional(_number("unix_t0 must be a number"),
                                   0.0)}


_BAD_GRANT = "malformed lease grant"


@dataclass(frozen=True)
class LeaseGrant(_Message):
    """``POST /lease`` reply: a task and its lease, or ``task=None``
    with ``done`` saying whether every campaign is complete."""

    task: dict | None = None
    done: bool = False
    campaign: str | None = None
    task_id: str | None = None
    deadline: float | None = None
    ttl: float | None = None
    scheduling_attempt: int | None = None
    trace: TraceContext | None = None
    checks = {"task": _optional(_of(dict, _BAD_GRANT)),
              "done": _of(bool, _BAD_GRANT),
              "campaign": _optional(_of(str, _BAD_GRANT)),
              "task_id": _optional(_of(str, _BAD_GRANT)),
              "deadline": _optional(_number(_BAD_GRANT)),
              "ttl": _optional(_number(_BAD_GRANT)),
              "scheduling_attempt": _optional(_of(int, _BAD_GRANT)),
              "trace": _optional(lambda value: TraceContext.from_dict(
                  _of(dict, _BAD_GRANT)(value)))}
