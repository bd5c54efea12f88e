"""Client-side session routing: rendezvous, redirects, failover.

Two real HTTP replicas share one :class:`~repro.store.SharedStore`;
a :class:`~repro.cluster.ClusterClient` must land every session
request on the owning replica — by learned ownership, by following
``307`` ownership redirects, or (when the owner dies) by failing over
to a survivor that adopts the session after the lease TTL — and the
resulting stream must stay bit-for-bit equal to an undisturbed
single-replica run.
"""

from __future__ import annotations

import http.server
import json
import threading
import time

import pytest

from repro.cluster import (
    ClusterClient,
    ClusterClientError,
    ServiceResponseError,
    rendezvous_order,
)
from repro.observability import MetricsRegistry, current_registry, disable, enable
from repro.service import SessionManager, make_server
from repro.store import SharedStore

from .test_service_sessions import entries, random_payloads

#: Lease term: short enough for fast adoption tests, long enough that
#: requests always finish inside one term.
TTL = 0.5

CONFIG = {"seed": 3, "warmup": 2}


@pytest.fixture(autouse=True)
def isolated_registry():
    previous = current_registry()
    enable(MetricsRegistry())
    yield
    if previous is None:
        disable()
    else:
        enable(previous)


@pytest.fixture
def payloads():
    return random_payloads()


class Replica:
    """One served replica: HTTP server + thread + advertised URL."""

    def __init__(self, tmp_path, name: str):
        self.server = make_server(
            port=0, replica_id=name, lease_ttl=TTL, catalog_ttl=2.0,
            store=SharedStore(tmp_path / "shared", fsync=False),
        )
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True,
        )
        self.thread.start()
        self.server.advertise()
        self.url = f"http://127.0.0.1:{self.server.port}"

    def kill(self) -> None:
        """SIGKILL equivalent: stop serving, abandon all state (the
        lease and catalogue records age out on their own)."""
        self.server.manager.abandon()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)

    def stop(self) -> None:
        self.server.manager.drain()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)


@pytest.fixture
def pair(tmp_path):
    a = Replica(tmp_path, "replica-a")
    b = Replica(tmp_path, "replica-b")
    yield a, b
    for replica in (a, b):
        try:
            replica.stop()
        except Exception:
            pass


def baseline(tmp_path, payloads):
    manager = SessionManager(checkpoint_dir=tmp_path / "baseline")
    sid = manager.create_session(CONFIG)["session"]
    for payload in payloads:
        manager.push(sid, payload)
    return entries(manager.report(sid))


def push_until_adopted(client, sid, payload, timeout=15.0):
    """Push through a failover window: retry while the survivor waits
    out the dead owner's lease."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return client.push(sid, payload)
        except (ClusterClientError, ServiceResponseError):
            if time.monotonic() > deadline:
                raise
            time.sleep(0.1)


class TestRendezvous:
    def test_order_is_deterministic(self):
        replicas = ["http://a:1", "http://b:2", "http://c:3"]
        assert rendezvous_order(replicas, "s-1") \
            == rendezvous_order(list(reversed(replicas)), "s-1")

    def test_keys_spread_over_replicas(self):
        replicas = [f"http://r{i}:80" for i in range(4)]
        firsts = {
            rendezvous_order(replicas, f"session-{k}")[0]
            for k in range(64)
        }
        assert len(firsts) == 4  # every replica is someone's first

    def test_removing_a_replica_only_moves_its_keys(self):
        replicas = [f"http://r{i}:80" for i in range(4)]
        keys = [f"session-{k}" for k in range(64)]
        before = {k: rendezvous_order(replicas, k)[0] for k in keys}
        survivors = replicas[:-1]
        after = {k: rendezvous_order(survivors, k)[0] for k in keys}
        for key in keys:
            if before[key] != replicas[-1]:
                assert after[key] == before[key]

    def test_client_requires_replicas(self):
        with pytest.raises(ClusterClientError):
            ClusterClient([])


class TestRouting:
    def test_stream_through_client_matches_single_replica(
            self, pair, tmp_path, payloads):
        a, b = pair
        client = ClusterClient([a.url, b.url])
        sid = client.create_session(CONFIG)["session"]
        for payload in payloads:
            client.push(sid, payload)
        report = client.report(sid)
        assert entries(report) == baseline(tmp_path, payloads)

    def test_creator_is_learned_as_owner(self, pair, payloads):
        a, b = pair
        client = ClusterClient([a.url, b.url])
        result = client.create_session(CONFIG)
        sid = result["session"]
        owner = client._owners[sid]
        assert owner in (a.url, b.url)
        client.push(sid, payloads[0])
        assert client._owners[sid] == owner

    def test_redirect_to_owner_is_followed(self, pair, payloads):
        """A client that only knows the *wrong* replica still lands on
        the owner: the wrong replica answers 307 + Location from the
        shared catalogue and the client re-sends the body there."""
        a, b = pair
        creator = ClusterClient([a.url])
        sid = creator.create_session(CONFIG)["session"]
        creator.push(sid, payloads[0])
        misdirected = ClusterClient([b.url])
        result = misdirected.push(sid, payloads[1])
        assert result["pushed"] == 1
        # The redirect target was learned: the owner is now cached
        # even though it was never in the replica list.
        assert misdirected._owners[sid] == a.url
        registry = current_registry()
        assert registry.counter_value(
            "cluster_client_redirects_total") >= 1
        assert registry.counter_value(
            "service_ownership_redirects_total") >= 1

    def test_session_info_and_delete_route(self, pair, payloads):
        a, b = pair
        client = ClusterClient([a.url, b.url])
        sid = client.create_session(CONFIG)["session"]
        client.push(sid, payloads[0])
        info = client.session_info(sid)
        assert info["session"] == sid
        assert client.delete(sid)["deleted"] is True
        assert sid not in client._owners


class TestFailover:
    def test_owner_death_fails_over_to_survivor(
            self, pair, tmp_path, payloads):
        a, b = pair
        client = ClusterClient([a.url, b.url], quarantine=0.2)
        sid = client.create_session(CONFIG)["session"]
        for payload in payloads[:4]:
            client.push(sid, payload)
        owner_url = client._owners[sid]
        dead, survivor = (a, b) if owner_url == a.url else (b, a)
        dead.kill()
        # The survivor adopts once the lease lapses; the client rides
        # the window out with retries, then sticks to the survivor.
        push_until_adopted(client, sid, payloads[4])
        for payload in payloads[5:]:
            client.push(sid, payload)
        assert client._owners[sid] == survivor.url
        assert entries(client.report(sid)) \
            == baseline(tmp_path, payloads)
        assert current_registry().counter_value(
            "cluster_client_failovers_total") >= 1

    def test_health_reports_both_states(self, pair):
        a, b = pair
        client = ClusterClient([a.url, b.url], timeout=5.0)
        healthy = client.health()
        assert [probe.healthy for probe in healthy] == [True, True]
        assert sorted(p.replica_id for p in healthy) \
            == ["replica-a", "replica-b"]
        a.kill()
        probes = {p.url: p for p in client.health()}
        assert not probes[a.url].healthy
        assert probes[a.url].error
        assert probes[b.url].healthy

    def test_replica_catalogue_lists_live_replicas(self, pair):
        a, b = pair
        client = ClusterClient([a.url, b.url])
        catalogue = client.replica_catalogue()
        names = {record["replica"]
                 for record in catalogue["replicas"]}
        assert names == {"replica-a", "replica-b"}
        urls = {record["url"] for record in catalogue["replicas"]}
        assert urls == {a.url, b.url}

    def test_killed_replica_ages_out_of_catalogue(self, pair):
        a, b = pair
        client = ClusterClient([a.url, b.url])
        a.kill()  # abandon(): no withdrawal, the record must expire
        deadline = time.monotonic() + 30
        while True:
            names = {record["replica"] for record
                     in client.replica_catalogue()["replicas"]}
            if names == {"replica-b"}:
                break
            assert time.monotonic() < deadline, names
            time.sleep(0.5)


class ScriptedReplica:
    """An HTTP stub answering from a scripted (status, headers, body)
    queue; 200 ``{"ok": true}`` once the script runs out."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = 0
        stub = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def _answer(self):
                stub.requests += 1
                status, headers, body = (
                    stub.script.pop(0) if stub.script
                    else (200, {}, {"ok": True})
                )
                payload = json.dumps(body).encode()
                self.send_response(status)
                for key, value in headers.items():
                    self.send_header(key, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            do_GET = do_POST = do_DELETE = _answer

            def log_message(self, *args):
                pass

        self.server = http.server.ThreadingHTTPServer(
            ("127.0.0.1", 0), Handler
        )
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True,
        )
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_port}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)


class TestRetryAfter:
    def request(self, stub, **kwargs):
        client = ClusterClient([stub.url], **kwargs)
        return client.replica_catalogue()

    def test_retry_after_header_is_honored(self):
        stub = ScriptedReplica([
            (429, {"Retry-After": "0.2"}, {"error": "busy"}),
        ])
        try:
            started = time.monotonic()
            assert self.request(stub)["ok"] is True
            assert time.monotonic() - started >= 0.2
            assert stub.requests == 2
        finally:
            stub.close()
        assert current_registry().counter_value(
            "client_retry_after_honored_total") == 1

    def test_retry_after_body_field_on_503(self):
        stub = ScriptedReplica([
            (503, {}, {"error": "overloaded", "retry_after": 0.05}),
            (503, {}, {"error": "overloaded", "retry_after": 0.05}),
        ])
        try:
            assert self.request(stub)["ok"] is True
            assert stub.requests == 3
        finally:
            stub.close()
        assert current_registry().counter_value(
            "client_retry_after_honored_total") == 2

    def test_exhausted_budget_raises_the_underlying_error(self):
        from repro.cluster.client import RETRY_AFTER_BUDGET

        stub = ScriptedReplica([
            (429, {"Retry-After": "0.01"}, {"error": "busy"}),
        ] * 10)
        try:
            with pytest.raises(ServiceResponseError) as info:
                self.request(stub)
            assert info.value.status == 429
            assert stub.requests == RETRY_AFTER_BUDGET + 1
        finally:
            stub.close()

    def test_429_without_retry_after_raises_immediately(self):
        stub = ScriptedReplica([(429, {}, {"error": "busy"})])
        try:
            with pytest.raises(ServiceResponseError):
                self.request(stub)
            assert stub.requests == 1
        finally:
            stub.close()

    def test_retry_after_wait_is_clamped(self, monkeypatch):
        from repro.cluster import client as client_module

        # Record only this thread's sleeps: background threads of other
        # tests' replicas may sleep through the same module.
        slept = []
        caller = threading.get_ident()
        real_sleep = client_module.time.sleep

        def sleep(seconds):
            if threading.get_ident() == caller:
                slept.append(seconds)
            else:
                real_sleep(seconds)

        monkeypatch.setattr(client_module.time, "sleep", sleep)
        stub = ScriptedReplica([
            (503, {"Retry-After": "3600"}, {"error": "maintenance"}),
        ])
        try:
            assert self.request(stub)["ok"] is True
        finally:
            stub.close()
        assert slept == [client_module.RETRY_AFTER_CAP]

    def test_malformed_retry_after_is_ignored(self):
        stub = ScriptedReplica([
            (429, {"Retry-After": "soon"}, {"error": "busy"}),
        ])
        try:
            with pytest.raises(ServiceResponseError):
                self.request(stub)
            assert stub.requests == 1
        finally:
            stub.close()


class TestQuarantine:
    def make_client(self):
        return ClusterClient(["http://a:1", "http://b:2"],
                             quarantine=0.5)

    def test_holds_grow_exponentially_with_jitter(self):
        from repro.cluster.client import QUARANTINE_CAP

        client = self.make_client()
        url = "http://a:1"
        holds = []
        for _ in range(8):
            client._note_failure(url)
            holds.append(client._down_until[url] - time.monotonic())
        for index, hold in enumerate(holds):
            base = min(QUARANTINE_CAP, 0.5 * 2 ** index)
            assert base * 0.99 <= hold <= base * 1.26
        assert client._fail_streak[url] == 8

    def test_success_resets_the_streak(self):
        client = self.make_client()
        for _ in range(3):
            client._note_failure("http://a:1")
        client._note_success("http://a:1")
        assert "http://a:1" not in client._fail_streak
        assert "http://a:1" not in client._down_until
        client._note_failure("http://a:1")
        assert client._fail_streak["http://a:1"] == 1

    def test_streak_decays_after_quiet_period(self):
        from repro.cluster.client import QUARANTINE_DECAY

        client = self.make_client()
        for _ in range(5):
            client._note_failure("http://a:1")
        client._last_failure["http://a:1"] = (
            time.monotonic() - QUARANTINE_DECAY - 1
        )
        client._note_failure("http://a:1")
        assert client._fail_streak["http://a:1"] == 1

    def test_quarantined_replica_is_tried_last(self):
        client = self.make_client()
        first = client._candidates("some-session")[0]
        client._note_failure(first)
        assert client._candidates("some-session")[-1] == first
