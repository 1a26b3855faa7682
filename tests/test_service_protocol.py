"""Tests for the campaign service's wire protocol.

The round trips pin each request type's ``to_dict``/``from_dict`` pair.
The fuzz tests drive the real handler over loopback with arbitrary JSON,
mutations of each route's valid body and non-finite number literals,
and hold the service to its contract: every reply is a 2xx or a 4xx
(never a 5xx or a dropped connection), an error reply is
``{"error": text}``, a refused request leaves every file under the
test's directory byte-identical, and nothing is ever created outside
the service root.
"""

import copy
import http.client
import json
import math
import os
from urllib.parse import urlencode

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaigns import CampaignSpec
from repro.campaigns.service import (
    ServiceError,
    ServiceState,
    campaign_id,
    run_worker,
    start_server,
)
from repro.campaigns.service.protocol import (
    CompleteRequest,
    HeartbeatRequest,
    LeaseGrant,
    LeaseRef,
    LeaseRequest,
    SubmitRequest,
    TraceBatch,
    decode_body,
)
from repro.obs import TraceContext

TINY_OVERRIDES = {"num_instances": 1, "generations_per_round": 6,
                  "top_k": 3, "population_size": 10, "retry_rounds": 0}


def tiny_spec(**kwargs) -> CampaignSpec:
    defaults = dict(name="wire", benchmarks=["ising_J1.00"],
                    qubit_sizes=[3], noise_scales=[1.0],
                    methods=["ncafqa", "clapton"], seeds=[0, 1],
                    engine_preset="smoke", engine_overrides=TINY_OVERRIDES)
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


# ----------------------------------------------------------------------
# Round trips and single refusals
# ----------------------------------------------------------------------
class TestProtocolTypes:
    @pytest.mark.parametrize("request_", [
        LeaseRequest("w0"),
        HeartbeatRequest("w0"),
        HeartbeatRequest("w0", (LeaseRef("t1", "c"), LeaseRef("t2"))),
        CompleteRequest("w0", {"task_id": "t1", "status": "failed"}, "c"),
        TraceBatch("w0", ({"id": 1, "start": 0.5, "tags": {}},), "c", 2.5),
        SubmitRequest(tiny_spec()),
        LeaseGrant(done=True),
        LeaseGrant(task={"benchmark": "b"}, campaign="c", task_id="t1",
                   deadline=10.0, ttl=30.0, scheduling_attempt=1,
                   trace=TraceContext(trace_id="ab", campaign="c")),
    ], ids=lambda r: type(r).__name__)
    def test_round_trip(self, request_):
        wire = json.loads(json.dumps(request_.to_dict()))
        assert type(request_).from_dict(wire) == request_

    @pytest.mark.parametrize("cls, body, error", [
        (LeaseRequest, {"worker_id": "w0", "extra": 1},
         "unknown field 'extra'"),
        (CompleteRequest, {"worker_id": "w0", "record": {"status": "done"}},
         "record task_id must be a string"),
        (CompleteRequest, {"worker_id": "w0", "campaign": 3,
                           "record": {"task_id": "t", "status": "done"}},
         "campaign must be a string"),
        (TraceBatch, {"worker_id": "w0", "unix_t0": math.inf},
         "unix_t0 must be a number"),
        (SubmitRequest, {"name": "x"}, "missing 1 required positional"),
        (LeaseGrant, {"task": {}, "done": False, "task_id": "t",
                      "deadline": 1.0, "ttl": 1.0,
                      "scheduling_attempt": True},
         "malformed lease grant"),
    ])
    def test_first_violation_is_named(self, cls, body, error):
        with pytest.raises(ValueError, match=error):
            cls.from_dict(body)

    @pytest.mark.parametrize("raw, error", [
        (b'{"a": NaN}', "non-finite number NaN"),
        (b'{"a": -Infinity}', "non-finite number -Infinity"),
        (b'{"a": 1e999}', "non-finite number 1e999"),
        (b"[" * 100_000, "nested too deeply"),
        (b"\xff", "bad JSON body"),
        (b"[1]", "body must be a JSON object"),
    ])
    def test_decode_body_refuses(self, raw, error):
        with pytest.raises(ValueError, match=error):
            decode_body(raw)


# ----------------------------------------------------------------------
# Fuzz: the real handler over loopback
# ----------------------------------------------------------------------
def snapshot_files(root):
    """Every path under ``root`` with its bytes (``None`` for a dir)."""
    snapshot = {}
    for parent, dirs, files in os.walk(root):
        snapshot.update((os.path.join(parent, d), None) for d in dirs)
        for name in files:
            path = os.path.join(parent, name)
            with open(path, "rb") as fh:
                snapshot[path] = fh.read()
    return snapshot


SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False, allow_infinity=False)
           # every code point, lone surrogates included
           | st.text(st.characters(exclude_categories=()), max_size=12))
JSON = st.recursive(
    SCALARS, lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8)

#: Replacement values: half scalars, half containers (the values a
#: field check most easily lets through), plus the non-finite floats
#: that ``json.dumps`` writes as ``NaN``/``Infinity`` literals.
REPLACEMENTS = st.one_of(
    SCALARS, st.lists(JSON, max_size=3),
    st.dictionaries(st.text(max_size=8), JSON, max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf]))


def paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from paths(child, prefix + (index,))


def at(body, path):
    for step in path:
        body = body[step]
    return body


def replaced(body, path, value):
    if not path:
        return value
    body = copy.deepcopy(body)
    at(body, path[:-1])[path[-1]] = value
    return body


def deleted(body, path):
    body = copy.deepcopy(body)
    del at(body, path[:-1])[path[-1]]
    return body


def extended(body, path, key, value):
    body = copy.deepcopy(body)
    at(body, path)[key] = value
    return body


class LoopbackService:
    """A live server over a tmp dir whose root sits two levels down, so
    a name that climbs out of the root still lands inside the dir.

    Once the first request is checked, every write to the dir goes
    through :meth:`check`, so one request's after-snapshot is the next
    one's before-snapshot.
    """

    def __init__(self, tmp_path):
        self.dir = tmp_path
        self.root = tmp_path / "x" / "y" / "root"
        # a long ttl: the ticker must not expire a lease mid-example
        self.state = ServiceState(self.root, lease_ttl=3600.0)
        self.server = start_server(self.state, port=0)
        self.host, self.port = self.server.server_address[:2]
        self.files = None

    def request(self, method, target, body=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request(method, target, body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.getheader("Content-Type"), resp.read()
        finally:
            conn.close()

    def check(self, method, target, body=None):
        """One request, the service contract checked around it; returns
        the status and the decoded JSON reply (``None`` for text)."""
        before = self.files or snapshot_files(self.dir)
        status, content_type, data = self.request(method, target, body)
        after = self.files = snapshot_files(self.dir)
        assert 200 <= status < 300 or 400 <= status < 500, (status, data)
        reply = None
        if content_type.startswith("application/json"):
            reply = json.loads(data)
            assert isinstance(reply, dict)
        else:
            data.decode()
        if status >= 400:
            assert content_type.startswith("application/json")
            assert set(reply) == {"error"}, reply
            assert after == before, (target, body)
        root = str(self.root)
        for path in after:  # the root, its ancestors, or inside it
            assert (root + os.sep).startswith(path + os.sep) or \
                path.startswith(root + os.sep), path
        return status, reply

    def stop(self):
        self.server.stop()


FUZZ = settings(max_examples=100, deadline=None, database=None,
                suppress_health_check=list(HealthCheck))
PER_NODE = settings(FUZZ, max_examples=8)


class TestWireFuzz:
    def test_post_routes(self, tmp_path):
        service = LoopbackService(tmp_path)
        try:
            spec = tiny_spec()
            cid = campaign_id(spec)
            assert service.check("POST", "/campaigns",
                                 json.dumps(spec.to_dict()))[0] == 201
            grant = LeaseGrant.from_dict(service.check(
                "POST", "/lease", json.dumps({"worker_id": "w0"}))[1])
            record = {"task_id": grant.task_id, "status": "done",
                      "task": grant.task, "result": {"ok": True},
                      "error": None}
            # /campaigns last: each spec it accepts adds a store, and
            # every later request would snapshot those files too
            valid = {
                "/lease": {"worker_id": "w1"},
                "/heartbeat": {"worker_id": "w0", "leases": [
                    {"campaign": cid, "task_id": grant.task_id}]},
                "/complete": {"worker_id": "w0", "campaign": cid,
                              "record": record},
                "/traces": {"worker_id": "w0", "campaign": cid,
                            "unix_t0": 1.0, "spans": [
                                {"id": 1, "name": "x", "start": 0.0,
                                 "dur": 0.1, "tags": {"campaign": cid}}]},
                "/campaigns": tiny_spec(name="fuzz").to_dict(),
            }
            # every node of every valid body deleted and replaced (the
            # root by arbitrary JSON), and every object given a new key
            for route, body in valid.items():
                def post(mutated, route=route):
                    return service.check("POST", route,
                                         json.dumps(mutated))[0]

                assert post(body) < 300, route
                for path in paths(body):
                    if path:
                        post(deleted(body, path))

                    @PER_NODE
                    @given(REPLACEMENTS)
                    def replace(value):
                        post(replaced(body, path, value))

                    replace()
                    if isinstance(at(body, path), dict):
                        @PER_NODE
                        @given(st.text(max_size=8), REPLACEMENTS)
                        def extend(key, value):
                            post(extended(body, path, key, value))

                        extend()
        finally:
            service.stop()

    def test_get_routes(self, tmp_path):
        service = LoopbackService(tmp_path)
        try:
            spec = tiny_spec(seeds=[0])
            campaign, _ = service.state.submit(spec)
            run_worker(service.state, "w0",
                       exit_on_idle=True, poll_interval=0.01)
            assert campaign.scheduler.done

            def param(*known):
                return st.none() | st.sampled_from(known) | st.text(
                    max_size=10)

            @FUZZ
            @given(route=st.sampled_from(["/status", "/report", "/trace",
                                          "/campaigns", "/healthz",
                                          "/metrics", "/nope"]),
                   campaign=param(campaign.id), fmt=param("markdown", "csv"),
                   tier=param("device_model", "noiseless"),
                   improver=param("clapton", "ncafqa"),
                   stream=param("1", "0"))
            def check(route, **query):
                query = {k: v for k, v in query.items() if v is not None}
                if query:
                    route += "?" + urlencode(query)
                service.check("GET", route)

            check()
        finally:
            service.stop()


class TestWorkerShipping:
    @pytest.mark.parametrize("error, resent", [
        (ServiceError(400, "refused"), False),
        (ConnectionRefusedError("down"), True),
    ], ids=["refused", "unreachable"])
    def test_refused_batch_is_dropped_unreachable_is_requeued(
            self, tmp_path, error, resent):
        """A batch the server refused would be refused again, so the
        worker drops it; one it could not deliver is offered again."""
        state = ServiceState(tmp_path / "root")
        state.submit(tiny_spec(methods=["clapton"], seeds=[0]))
        offered = []

        class Client:
            lease, heartbeat, complete = (state.lease, state.heartbeat,
                                          state.complete)

            def post_traces(self, batch):
                offered.append([span["id"] for span in batch.spans])
                raise error

        assert run_worker(Client(), "w0", exit_on_idle=True,
                          poll_interval=0.01) == 1
        assert len(offered) >= 2
        first, later = set(offered[0]), set().union(*offered[1:])
        assert bool(first & later) is resent
        state.close()
