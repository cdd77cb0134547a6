"""The defender-side telemetry layer: bus, sinks, metrics, audit trails.

The paper repeatedly distinguishes attacks a server *could* notice (a
replay hitting the authenticator cache, preauth failing) from attacks
that leave the defenders' logs looking perfectly ordinary.  These tests
pin down the machinery that makes that distinction measurable.
"""

import json

import pytest

from repro import ProtocolConfig, Testbed
from repro.obs import (
    ANOMALY_KINDS, CollectorSink, EventBus, JsonlSink, LoginAttempt,
    MetricsRegistry, MetricsSink, ReplayCacheHit, TicketIssued, Tracer,
    WireCrossing, capture, correlate_with_wire_log, detectability_digest,
    event_from_dict, read_jsonl, render_events,
)


class _FakeClock:
    def __init__(self, value=42):
        self.value = value

    def now(self):
        return self.value


# --------------------------------------------------------------------- #
# the bus
# --------------------------------------------------------------------- #


def test_bus_inactive_without_sinks():
    bus = EventBus(_FakeClock())
    assert bus.active is False
    # Emitting with nobody listening must be a harmless no-op.
    bus.emit(LoginAttempt(user="x", realm="R", host="h", ok=True))


def test_subscribe_unsubscribe_toggle_active():
    bus = EventBus(_FakeClock())
    sink = CollectorSink()
    bus.subscribe(sink)
    assert bus.active is True
    bus.emit(LoginAttempt(user="x", realm="R", host="h", ok=True))
    assert len(sink.events) == 1
    bus.unsubscribe(sink)
    assert bus.active is False
    bus.emit(LoginAttempt(user="x", realm="R", host="h", ok=False))
    assert len(sink.events) == 1  # nothing delivered after unsubscribe


def test_bus_stamps_time_and_exchange_seq():
    clock = _FakeClock(777)
    bus = EventBus(clock)
    sink = CollectorSink()
    bus.subscribe(sink)
    bus.begin_exchange(9)
    bus.emit(ReplayCacheHit(service="mail", client="c@R"))
    bus.end_exchange()
    bus.emit(ReplayCacheHit(service="mail", client="c@R"))
    stamped, unscoped = sink.events
    assert stamped.time == 777 and stamped.seq == 9
    assert unscoped.seq == 0  # outside any exchange


def test_exchange_seq_nests():
    bus = EventBus(_FakeClock())
    bus.begin_exchange(1)
    bus.begin_exchange(2)
    assert bus.current_seq == 2
    bus.end_exchange()
    assert bus.current_seq == 1
    bus.end_exchange()
    assert bus.current_seq == 0


def test_explicit_stamps_are_preserved():
    bus = EventBus(_FakeClock(5))
    sink = CollectorSink()
    bus.subscribe(sink)
    bus.emit(WireCrossing(time=123, seq=45, direction="request"))
    assert sink.events[0].time == 123 and sink.events[0].seq == 45


def test_collector_sink_bound_retention():
    sink = CollectorSink(max_events=3)
    for i in range(10):
        sink(LoginAttempt(user=f"u{i}", realm="R", host="h", ok=True))
    assert [e.user for e in sink.events] == ["u7", "u8", "u9"]


def test_capture_adopts_buses_created_inside():
    with capture() as cap:
        bed = Testbed(ProtocolConfig.v4(), seed=11)
        assert bed.bus.active is True
        bed.add_user("pat", "pw")
        ws = bed.add_workstation("ws1")
        bed.login("pat", "pw", ws)
    assert any(e.kind == "LoginAttempt" for e in cap.events)
    # Outside the context the bus goes quiet again.
    assert bed.bus.active is False


def test_capture_does_not_touch_preexisting_buses():
    bed = Testbed(ProtocolConfig.v4(), seed=11)
    with capture() as cap:
        bed.add_user("pat", "pw")
        ws = bed.add_workstation("ws1")
        bed.login("pat", "pw", ws)
    assert cap.events == []


# --------------------------------------------------------------------- #
# events and the JSONL sink
# --------------------------------------------------------------------- #


def test_event_dict_round_trip():
    original = TicketIssued(
        time=10, seq=3, realm="ATHENA", client="pat@ATHENA",
        server="mail.mh@ATHENA", exchange="tgs",
    )
    restored = event_from_dict(original.to_dict())
    assert restored == original
    assert restored.kind == "TicketIssued"


def test_event_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError):
        event_from_dict({"kind": "NoSuchEvent"})


def test_jsonl_sink_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    sink = JsonlSink(str(path))
    events = [
        WireCrossing(time=1, seq=1, direction="request", src="a",
                     dst_address="b", service="mail", size=10),
        ReplayCacheHit(time=2, seq=1, service="mail", client="c@R"),
    ]
    for event in events:
        sink(event)
    sink.close()
    assert sink.written == 2
    assert read_jsonl(str(path)) == events
    # Raw lines are plain JSON objects with a kind discriminator.
    lines = path.read_text().splitlines()
    assert json.loads(lines[1])["kind"] == "ReplayCacheHit"


def test_jsonl_sink_via_capture_on_a_testbed(tmp_path):
    path = tmp_path / "bed.jsonl"
    with capture(JsonlSink(str(path))) as cap:
        bed = Testbed(ProtocolConfig.v4(), seed=3)
        bed.add_user("pat", "pw")
        ws = bed.add_workstation("ws1")
        bed.login("pat", "pw", ws)
    assert read_jsonl(str(path)) == cap.events


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #


def test_counter_labels_and_totals():
    registry = MetricsRegistry()
    counter = registry.counter("tickets")
    counter.inc(realm="A")
    counter.inc(realm="A")
    counter.inc(realm="B")
    assert counter.value(realm="A") == 2
    assert counter.value(realm="B") == 1
    assert counter.value() == 3
    assert counter.value(realm="missing") == 0


def test_histogram_summary_and_percentiles():
    registry = MetricsRegistry()
    hist = registry.histogram("latency")
    for v in [10, 20, 30, 40, 100]:
        hist.record(v)
    summary = hist.summary()
    assert summary["count"] == 5
    assert summary["max"] == 100
    assert summary["p50"] == 30
    assert registry.histogram("latency") is hist  # same name, same object
    assert registry.snapshot()["histograms"]["latency"] == summary


def test_registry_renders_deterministically():
    def build():
        registry = MetricsRegistry()
        registry.counter("b").inc(svc="y")
        registry.counter("a").inc(svc="x", other="z")
        registry.histogram("h").record(7)
        return registry

    one, two = build(), build()
    assert one.render_text() == two.render_text()
    assert one.to_json() == two.to_json()
    assert "counters" in one.render_text()
    assert json.loads(one.to_json())["counters"]["a"] == {"other=z,svc=x": 1}


def test_metrics_sink_fills_registry_from_a_run():
    sink = MetricsSink()
    with capture(sink):
        bed = Testbed(ProtocolConfig.v4(), seed=5)
        bed.add_user("pat", "pw")
        mail = bed.add_mail_server("mailhost")
        ws = bed.add_workstation("ws1")
        outcome = bed.login("pat", "pw", ws)
        cred = outcome.client.get_service_ticket(mail.principal)
        outcome.client.ap_exchange(cred, bed.endpoint(mail))
    registry = sink.registry
    assert registry.counter("tickets_issued").value(
        realm="ATHENA", exchange="as") == 1
    assert registry.counter("tickets_issued").value(
        realm="ATHENA", exchange="tgs") == 1
    assert registry.counter("login_attempts").value(ok=True) == 1
    assert registry.counter("sessions_established").value(service="mail") == 1
    assert registry.histogram("exchange_latency_us").count > 0
    assert registry.counter("wire_messages").value() == \
        registry.histogram("wire_bytes").count


# --------------------------------------------------------------------- #
# audit: correlation, spans, digests
# --------------------------------------------------------------------- #


def _mail_session_bed(config, seed=7):
    bed = Testbed(config, seed=seed)
    trail = bed.attach_audit()
    bed.add_user("pat", "pw")
    mail = bed.add_mail_server("mailhost")
    ws = bed.add_workstation("ws1")
    outcome = bed.login("pat", "pw", ws)
    cred = outcome.client.get_service_ticket(mail.principal)
    session = outcome.client.ap_exchange(cred, bed.endpoint(mail))
    return bed, trail, mail, session


def test_wire_crossings_correlate_one_to_one_with_adversary_log():
    bed, trail, _mail, session = _mail_session_bed(ProtocolConfig.v4())
    session.call(b"COUNT")
    correlation = trail.correlation(bed.adversary.log)
    assert correlation.one_to_one
    assert correlation.matched == len(bed.adversary.log)
    assert correlation.defender_only == []
    assert correlation.adversary_only == []


def test_correlation_notices_divergence():
    bed, trail, _mail, _session = _mail_session_bed(ProtocolConfig.v4())
    truncated = bed.adversary.log[:-2]
    correlation = trail.correlation(truncated)
    assert not correlation.one_to_one
    assert len(correlation.defender_only) == 2


def test_exchange_events_carry_the_trace_of_their_client_call():
    tracer = Tracer()
    with capture(tracer=tracer) as cap:
        _mail_session_bed(ProtocolConfig.v4())
    # The AS exchange's TicketIssued fired inside the client's
    # rpc/kerberos root span, so it carries that trace's id.
    issued = [e for e in cap.events
              if isinstance(e, TicketIssued) and e.exchange == "as"]
    roots = [s for s in tracer.spans
             if s.name == "rpc/kerberos" and s.parent_id == 0]
    assert len(issued) == 1 and len(roots) == 1
    assert issued[0].trace_id == roots[0].trace_id


def test_digest_counts_only_anomalies():
    bed, trail, mail, _session = _mail_session_bed(
        ProtocolConfig.v4().but(replay_cache=True)
    )
    assert trail.digest() == {}  # honest traffic: nothing anomalous
    request = bed.adversary.recorded(
        service=mail.principal.name, direction="request")[-1]
    bed.network.inject(request.src_address, request.dst, request.payload)
    assert trail.digest() == {"ReplayCacheHit": 1}
    assert set(trail.digest()) <= set(ANOMALY_KINDS)


def test_render_events_marks_anomalies():
    events = [
        LoginAttempt(time=1, user="pat", realm="R", host="h", ok=True),
        ReplayCacheHit(time=2, seq=4, service="mail", client="c@R"),
    ]
    text = render_events(events)
    lines = text.splitlines()
    assert "ReplayCacheHit" in lines[1] and "!" in lines[1]
    assert "!" not in lines[0]
    assert render_events([]) == "(no events)"


def test_detectability_digest_and_correlate_are_plain_functions():
    digest = detectability_digest([
        ReplayCacheHit(service="mail"), ReplayCacheHit(service="mail"),
        LoginAttempt(user="x", realm="R", host="h", ok=True),
    ])
    assert digest == {"ReplayCacheHit": 2}
    empty = correlate_with_wire_log([], [])
    assert empty.one_to_one and empty.matched == 0


# --------------------------------------------------------------------- #
# satellite: response addressing and wire-log retention
# --------------------------------------------------------------------- #


def test_response_carries_true_delivery_address():
    bed = Testbed(ProtocolConfig.v4(), seed=9)
    bed.add_user("pat", "pw")
    ws = bed.add_workstation("ws1")
    bed.login("pat", "pw", ws)
    request = bed.adversary.recorded(
        service="kerberos", direction="request")[0]
    response = bed.adversary.recorded(
        service="kerberos", direction="response")[0]
    kdc_address = request.dst.address
    # Request: workstation -> KDC.  Response: KDC -> workstation.
    assert request.delivered_to == kdc_address
    assert response.src_address == kdc_address
    assert response.delivered_to == request.src_address
    assert response.delivered_to != response.dst.address
    # Backward-compatible anchor: both directions keep the service endpoint.
    assert request.dst == response.dst


def test_delivered_to_falls_back_for_legacy_messages():
    from repro.sim.network import Endpoint, WireMessage

    legacy = WireMessage(1, "10.0.0.9", Endpoint("10.0.0.1", "mail"),
                         "response", b"x", 0)
    assert legacy.dst_address == ""
    assert legacy.delivered_to == "10.0.0.1"


def _session_traffic(bed):
    bed.add_user("pat", "pw")
    mail = bed.add_mail_server("mailhost")
    ws = bed.add_workstation("ws1")
    outcome = bed.login("pat", "pw", ws)
    cred = outcome.client.get_service_ticket(mail.principal)
    outcome.client.ap_exchange(cred, bed.endpoint(mail))


def test_adversary_max_log_keeps_newest():
    bed = Testbed(ProtocolConfig.v4(), seed=10, max_wire_log=4)
    _session_traffic(bed)  # AS + TGS + AP legs: more than 4 crossings
    log = bed.adversary.log
    assert len(log) == 4
    # Newest survive: seqs are contiguous and end at the global maximum.
    seqs = [m.seq for m in log]
    assert seqs == sorted(seqs)
    assert seqs[-1] - seqs[0] == 3


def test_unbounded_log_by_default():
    bed = Testbed(ProtocolConfig.v4(), seed=10)
    _session_traffic(bed)
    assert len(bed.adversary.log) > 4


# --------------------------------------------------------------------- #
# suite threading
# --------------------------------------------------------------------- #


def test_matrix_cells_carry_detectability():
    from repro.suite import SCENARIOS, run_attack_matrix

    replay = [s for s in SCENARIOS if s.name == "authenticator replay"]
    matrix = run_attack_matrix(scenarios=replay)
    v4 = matrix.cells[("authenticator replay", "v4")]
    hardened = matrix.cells[("authenticator replay", "hardened")]
    assert v4.succeeded and v4.detectability == {}
    assert v4.silent is True
    assert not hardened.succeeded and hardened.detectability
    assert matrix.silent_wins() == [
        ("authenticator replay", "v4"),
        ("authenticator replay", "v5-draft3"),
    ]
    rendered = matrix.render()
    assert "detect" in rendered
    assert "0*" in rendered  # the silent-win marker
    assert "without tripping" in rendered


def test_attack_result_silent_is_none_when_unmeasured():
    from repro.attacks.base import AttackResult

    assert AttackResult("x", True).silent is None
    assert AttackResult("x", True, detectability={}).silent is True
    assert AttackResult(
        "x", True, detectability={"ReplayCacheHit": 1}).silent is False
