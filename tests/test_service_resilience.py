"""Failure isolation in the service: per-session circuit breakers,
request deadlines, backpressure-derived Retry-After, and degraded-mode
shedding under sustained queue pressure."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.commute import CommuteTimeCalculator
from repro.core.streaming import StreamingCadDetector
from repro.exceptions import (
    DetectionError,
    GraphConstructionError,
    SolverError,
)
from repro.observability import current_registry, disable, enable
from repro.service import (
    CapacityError,
    CircuitOpenError,
    DeadlineError,
    SessionManager,
    bounded_retry_after,
    make_server,
)
from repro.service.admission import Admission
from repro.service.errors import RETRY_AFTER_CAP, RETRY_AFTER_FLOOR

from .test_service_sessions import random_payloads


@pytest.fixture
def payloads():
    return random_payloads()


def failing_push(error):
    """A StreamingCadDetector.push stand-in that always raises."""
    calls = []

    def push(self, snapshot):
        calls.append(snapshot)
        raise error

    push.calls = calls
    return push


class TestCircuitBreaker:
    def test_consecutive_server_faults_trip_the_breaker(
            self, tmp_path, payloads, monkeypatch):
        manager = SessionManager(checkpoint_dir=tmp_path,
                                 breaker_threshold=2,
                                 breaker_cooldown=60.0)
        sid = manager.create_session({"seed": 3})["session"]
        broken = failing_push(SolverError("synthetic solver fault"))
        monkeypatch.setattr(StreamingCadDetector, "push", broken)
        for _ in range(2):
            with pytest.raises(SolverError):
                manager.push(sid, payloads[0])
        with pytest.raises(CircuitOpenError) as excinfo:
            manager.push(sid, payloads[0])
        assert excinfo.value.retry_after > 0
        assert len(broken.calls) == 2  # breaker rejected before ingest
        info = manager.session_info(sid)
        assert info["breaker"]["open"] is True
        assert info["breaker"]["trips"] == 1
        assert "SolverError" in info["breaker"]["reason"]

    def test_half_open_probe_success_closes_fully(
            self, tmp_path, payloads, monkeypatch):
        manager = SessionManager(checkpoint_dir=tmp_path,
                                 breaker_threshold=1,
                                 breaker_cooldown=0.05)
        sid = manager.create_session({"seed": 3})["session"]
        broken = failing_push(SolverError("transient"))
        monkeypatch.setattr(StreamingCadDetector, "push", broken)
        with pytest.raises(SolverError):
            manager.push(sid, payloads[0])
        with pytest.raises(CircuitOpenError):
            manager.push(sid, payloads[0])
        monkeypatch.undo()  # the fault heals
        time.sleep(0.06)
        assert manager.push(sid, payloads[0])["pushed"] == 1
        info = manager.session_info(sid)
        assert info["breaker"]["open"] is False
        record = manager._get(sid)
        assert record.breaker.until == 0.0
        assert record.breaker.failures == 0

    def test_failed_probe_retrips_with_longer_cooldown(
            self, tmp_path, payloads, monkeypatch):
        manager = SessionManager(checkpoint_dir=tmp_path,
                                 breaker_threshold=1,
                                 breaker_cooldown=0.05)
        sid = manager.create_session({"seed": 3})["session"]
        broken = failing_push(SolverError("persistent"))
        monkeypatch.setattr(StreamingCadDetector, "push", broken)
        with pytest.raises(SolverError):
            manager.push(sid, payloads[0])
        time.sleep(0.06)
        # The half-open probe fails: one strike re-trips immediately
        # and the cooldown doubles.
        with pytest.raises(SolverError):
            manager.push(sid, payloads[0])
        record = manager._get(sid)
        assert record.breaker.trips == 2
        assert record.breaker.until - time.monotonic() > 0.05

    def test_client_errors_do_not_trip(self, tmp_path, payloads,
                                       monkeypatch):
        manager = SessionManager(checkpoint_dir=tmp_path,
                                 breaker_threshold=1)
        sid = manager.create_session({"seed": 3})["session"]
        broken = failing_push(
            GraphConstructionError("payload references unknown node")
        )
        monkeypatch.setattr(StreamingCadDetector, "push", broken)
        for _ in range(3):
            with pytest.raises(GraphConstructionError):
                manager.push(sid, payloads[0])
        info = manager.session_info(sid)
        assert info["breaker"]["open"] is False
        assert info["breaker"]["trips"] == 0
        monkeypatch.undo()
        assert manager.push(sid, payloads[0])["pushed"] == 1


class TestRequestDeadline:
    def test_contended_session_lock_times_out(self, tmp_path,
                                              payloads):
        manager = SessionManager(checkpoint_dir=tmp_path,
                                 request_deadline=0.1)
        sid = manager.create_session({"seed": 3})["session"]
        manager.push(sid, payloads[0])
        record = manager._get(sid)
        record.lock.acquire()  # a stuck request holds the session
        try:
            with pytest.raises(DeadlineError) as excinfo:
                manager.push(sid, payloads[1])
            assert excinfo.value.retry_after >= 0.1
        finally:
            record.lock.release()
        # The budget slot was released despite the timeout.
        assert manager._admission.in_flight == 0
        assert manager.push(sid, payloads[1])["pushed"] == 1

    def test_deadline_does_not_trip_breaker(self, tmp_path, payloads):
        manager = SessionManager(checkpoint_dir=tmp_path,
                                 request_deadline=0.05,
                                 breaker_threshold=1)
        sid = manager.create_session({"seed": 3})["session"]
        record = manager._get(sid)
        record.lock.acquire()
        try:
            with pytest.raises(DeadlineError):
                manager.push(sid, payloads[0])
        finally:
            record.lock.release()
        assert manager.session_info(sid)["breaker"]["trips"] == 0


class TestRetryAfter:
    def test_estimate_is_queue_depth_times_mean_latency(
            self, tmp_path, payloads):
        manager = SessionManager(checkpoint_dir=tmp_path, max_queue=2)
        sid = manager.create_session({"seed": 3})["session"]
        for _ in range(4):
            manager._admission.observe(2.0, 1)
        manager._admission.acquire(2)
        try:
            with pytest.raises(CapacityError) as excinfo:
                manager.push(sid, payloads[0])
        finally:
            manager._admission.release(2)
        # The estimate (queue depth x mean latency = 4.0) gets up to
        # 25% of anti-stampede jitter on top, never below the base.
        assert 4.0 <= excinfo.value.retry_after <= 4.0 * 1.25

    def test_estimate_is_clamped(self, tmp_path, payloads):
        manager = SessionManager(checkpoint_dir=tmp_path, max_queue=2)
        sid = manager.create_session({"seed": 3})["session"]
        for _ in range(4):
            manager._admission.observe(500.0, 1)
        manager._admission.acquire(2)
        try:
            with pytest.raises(CapacityError) as excinfo:
                manager.push(sid, payloads[0])
        finally:
            manager._admission.release(2)
        assert excinfo.value.retry_after == 120.0

    def test_oversized_batch_rejected_with_hint(self, tmp_path,
                                                payloads):
        manager = SessionManager(checkpoint_dir=tmp_path, max_queue=2)
        sid = manager.create_session({"seed": 3})["session"]
        with pytest.raises(CapacityError) as excinfo:
            manager.push(sid, {"snapshots": payloads[:3]})
        assert 1.0 <= excinfo.value.retry_after <= 1.25

    def test_latency_is_per_snapshot(self, tmp_path):
        manager = SessionManager(checkpoint_dir=tmp_path)
        manager._admission.observe(8.0, 4)  # a batch of 4 took 8s
        assert list(manager._admission.latencies) == [2.0]


class TestAdmissionUnderContention:
    def test_budget_holds_and_drains_under_contention(self):
        admission = Admission(max_queue=3, degrade_pressure=0.85,
                              degrade_after=3)
        observed = []

        def worker():
            for _ in range(300):
                try:
                    admission.acquire(1)
                except CapacityError:
                    continue
                observed.append(admission.in_flight)
                admission.release(1)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert observed and max(observed) <= 3
        assert admission.in_flight == 0  # no lost update


class TestRetryAfterBounds:
    """Every Retry-After hint stays inside [floor, cap] with bounded
    jitter — extreme estimates must never leak through to clients."""

    def test_jitter_stays_within_base_and_125_percent(self):
        for base in (0.5, 1.0, 7.0, 60.0):
            for _ in range(200):
                value = bounded_retry_after(base)
                assert base <= value <= base * 1.25

    def test_extreme_bases_clamp_to_floor_and_cap(self):
        assert bounded_retry_after(0.0) == RETRY_AFTER_FLOOR
        assert bounded_retry_after(1e-9) == RETRY_AFTER_FLOOR
        assert bounded_retry_after(1e9) == RETRY_AFTER_CAP
        assert bounded_retry_after(float("inf")) == RETRY_AFTER_CAP
        for _ in range(200):
            value = bounded_retry_after(119.9)
            assert RETRY_AFTER_FLOOR <= value <= RETRY_AFTER_CAP

    def test_hint_is_client_friendly(self):
        # Three decimals at most: the value goes straight into a
        # Retry-After header and JSON body.
        value = bounded_retry_after(1.0)
        assert value == round(value, 3)


class TestDegradedMode:
    def make_manager(self, tmp_path):
        return SessionManager(checkpoint_dir=tmp_path, max_queue=8,
                              degrade_pressure=0.5, degrade_after=2)

    def test_sustained_pressure_sheds_then_recovers(self, tmp_path):
        payloads = random_payloads(steps=12)
        manager = self.make_manager(tmp_path)
        sid = manager.create_session({"seed": 3})["session"]
        first = manager.push(
            sid, {"snapshots": payloads[:4]}  # utilization 0.5
        )
        assert "degraded" not in first
        assert not manager.degraded
        second = manager.push(
            sid, {"snapshots": payloads[4:8]}  # second strike
        )
        assert second.get("degraded") is True
        assert manager.degraded
        record = manager._get(sid)
        assert record.degraded_pushes == 4
        # The override is transient — never left set between pushes.
        calculator = record.detector.detector.calculator
        assert calculator.method_override is None
        # Two low-utilization observations recover.
        third = manager.push(sid, payloads[8])  # 1/8, still degraded
        assert third.get("degraded") is True
        fourth = manager.push(sid, payloads[9])
        assert "degraded" not in fourth
        assert not manager.degraded
        assert manager.session_info(sid)["degraded_pushes"] == 5
        # The session still reports coherently across the mode flips.
        report = manager.report(sid)
        assert len(report["transitions"]) == 9
        assert report["degraded_pushes"] == 5

    def test_shedding_with_factor_cache_never_crosses_tiers(
            self, tmp_path):
        # Cache-enabled variant of the shedding regression: while the
        # manager is degraded the override scores on the approx
        # backend, and the factor cache must keep the exact entries
        # from ever satisfying those approx requests (and vice versa
        # after recovery) — the keys are method-tagged.
        from repro.linalg.factorcache import reset_shared_cache, shared_cache

        reset_shared_cache()
        try:
            payloads = random_payloads(steps=12)
            manager = self.make_manager(tmp_path)
            sid = manager.create_session({
                "seed": 3, "factor_cache": True, "seed_mode": "content",
            })["session"]
            manager.push(sid, {"snapshots": payloads[:4]})
            second = manager.push(sid, {"snapshots": payloads[4:8]})
            assert second.get("degraded") is True
            record = manager._get(sid)
            calculator = record.detector.detector.calculator
            assert calculator.method_override is None
            assert calculator.factor_cache is shared_cache()
            keys = list(shared_cache()._entries)
            assert keys, "factor cache never populated"
            # Both backends cached, every key method-tagged, and the
            # two tiers never share a key even for one digest.
            methods = {key[1] for key in keys}
            assert methods == {"exact", "approx"}
            assert len(keys) == len(set(keys))
            exact_keys = {k for k in keys if k[1] == "exact"}
            approx_keys = {k for k in keys if k[1] == "approx"}
            assert not exact_keys & approx_keys
            # Approx keys pin the projection inputs, so an override
            # flip can never be handed an entry built for other
            # parameters.
            assert all(len(k) > 2 for k in approx_keys)
            # Recovery: the next pushes are scored exact again and the
            # session still reports coherently.
            manager.push(sid, payloads[8])
            fourth = manager.push(sid, payloads[9])
            assert "degraded" not in fourth
            report = manager.report(sid)
            assert len(report["transitions"]) == 9
        finally:
            reset_shared_cache()

    def test_explicit_method_is_never_shed(self, tmp_path, payloads):
        manager = self.make_manager(tmp_path)
        sid = manager.create_session({"seed": 3,
                                      "method": "exact"})["session"]
        manager._admission.degraded = True
        response = manager.push(sid, payloads[0])
        assert "degraded" not in response
        assert manager._get(sid).degraded_pushes == 0

    def test_rejections_count_as_full_pressure(self, tmp_path,
                                               payloads):
        manager = SessionManager(checkpoint_dir=tmp_path, max_queue=1,
                                 degrade_pressure=0.9, degrade_after=2)
        sid = manager.create_session({"seed": 3})["session"]
        manager._admission.acquire(1)
        try:
            for _ in range(2):
                with pytest.raises(CapacityError):
                    manager.push(sid, payloads[0])
        finally:
            manager._admission.release(1)
        assert manager.degraded

    def test_degraded_surfaces_in_listing_and_readyz(self, tmp_path):
        previous = current_registry()
        server = make_server(port=0, checkpoint_dir=tmp_path)
        try:
            manager = server.manager
            assert manager.list_sessions()["degraded"] is False
            manager._admission.degraded = True
            assert manager.list_sessions()["degraded"] is True
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            from .test_service_http import Client

            client = Client(server.port)
            status, _, body = client.get("/readyz")
            assert status == 200
            assert body["status"] == "degraded"
            manager._admission.degraded = False
            status, _, body = client.get("/readyz")
            assert status == 200
            assert body["status"] == "ready"
            server.shutdown()
            thread.join(timeout=10)
        finally:
            server.server_close()
            if previous is None:
                disable()
            else:
                enable(previous)


class TestMethodOverride:
    def test_override_wins_over_auto_and_explicit(self):
        calculator = CommuteTimeCalculator(method="auto",
                                           exact_limit=100)
        assert calculator.resolve_method(10) == "exact"
        calculator.method_override = "approx"
        assert calculator.resolve_method(10) == "approx"
        calculator.method_override = None
        assert calculator.resolve_method(10) == "exact"
        explicit = CommuteTimeCalculator(method="exact")
        explicit.method_override = "approx"
        assert explicit.resolve_method(10) == "approx"

    def test_invalid_override_rejected(self):
        calculator = CommuteTimeCalculator()
        with pytest.raises(DetectionError):
            calculator.method_override = "quantum"

    def test_override_is_not_part_of_the_spec(self):
        calculator = CommuteTimeCalculator()
        calculator.method_override = "approx"
        assert "method_override" not in calculator.spec()
        assert "_method_override" not in calculator.spec()
