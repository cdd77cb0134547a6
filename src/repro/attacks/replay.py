"""Authenticator and message replay within the skew window.

    "The claim is made that no replays are likely within the lifetime of
    the authenticator (typically five minutes). ... We are not persuaded
    by this logic.  An intruder would not start by capturing a ticket and
    authenticator, and then develop the software to use them; rather,
    everything would be in place before the ticket-capture was
    attempted."

Concrete scenarios from the paper:

* :func:`mail_check_capture` — "an intruder may simply watch for a
  mail-checking session, wherein a user logs in briefly, reads a few
  messages, and logs out.  A number of valuable tickets would be exposed
  by such a session."  The victim's short session leaves a recorded
  AP_REQ (ticket + live authenticator) on the adversary's log.

* :func:`replay_ap_request` — inject the recorded pair, optionally after
  advancing the clock (benchmark E2 sweeps the delay: inside the window
  it works, outside it does not — "the lifetime of the authenticators —
  5 minutes — contributes considerably to this attack").

* :func:`replay_data_message` — re-execute a recorded KRB_PRIV command
  (double-execution of, say, a file write) against the same session.

* :func:`cross_session_replay` — re-execute it inside a *concurrent*
  session opened with the same ticket (E10, E14).

* :func:`deletion_detection` — swallow one KRB_PRIV message and see
  whether the receiver notices the gap (E14).

* :func:`udp_retransmission_false_alarm` — the cache's own failure: an
  honest retransmission rejected as a replay (E3).

Defenses under test: the server-side authenticator cache and the
challenge/response option (E3); true session keys (rec. e) and
sequence numbers (the appendix's KRB_PRIV fix).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.attacks.base import AttackResult
from repro.kerberos.config import ProtocolConfig
from repro.obs import capture, detectability_digest
from repro.sim.network import Endpoint, NetworkError, WireMessage
from repro.testbed import Testbed

__all__ = [
    "mail_check_capture",
    "replay_ap_request",
    "replay_data_message",
    "cross_session_replay",
    "deletion_detection",
    "udp_retransmission_false_alarm",
]


def mail_check_capture(
    bed: Testbed, user: str, password: str, mail_server, workstation
) -> Tuple[List[WireMessage], List[WireMessage]]:
    """Run the victim's brief mail-check session; return what the wire saw.

    Returns (ap_requests, data_requests) recorded by the adversary for
    the mail service.
    """
    outcome = bed.login(user, password, workstation)
    cred = outcome.client.get_service_ticket(mail_server.principal)
    session = outcome.client.ap_exchange(cred, bed.endpoint(mail_server))
    session.call(b"COUNT")
    session.call(b"FETCH")
    workstation.logout(user)

    service = mail_server.principal.name
    ap = bed.adversary.recorded(service=service, direction="request")
    data = bed.adversary.recorded(service=service + "-data", direction="request")
    return ap, data


def replay_ap_request(
    bed: Testbed,
    server,
    captured: WireMessage,
    delay_minutes: float = 0.0,
    forge_source: Optional[str] = None,
) -> AttackResult:
    """Replay a captured AP_REQ after *delay_minutes*.

    *forge_source* spoofs the packet's source address (trivially possible
    for the one-sided injection the paper cites from [Morr85]); defaults
    to the victim's own address as recorded.
    """
    if delay_minutes:
        bed.advance_minutes(delay_minutes)
    accepted_before = server.accepted
    source = forge_source if forge_source is not None else captured.src_address
    try:
        bed.network.inject(source, captured.dst, captured.payload)
    except NetworkError as exc:
        return AttackResult("replay-ap", False, f"injection failed: {exc}")
    succeeded = server.accepted > accepted_before
    reasons = server.rejection_reasons[-1:] if not succeeded else []
    return AttackResult(
        "replay-ap",
        succeeded,
        "server accepted the replayed ticket/authenticator pair"
        if succeeded else f"rejected ({', '.join(reasons) or 'unknown'})",
        evidence={
            "delay_minutes": delay_minutes,
            "sessions_open": len(server.sessions),
            "rejection": reasons,
        },
    )


def replay_data_message(
    bed: Testbed, server, captured: WireMessage, delay_minutes: float = 0.0
) -> AttackResult:
    """Replay a recorded KRB_PRIV command — double-executing it."""
    if delay_minutes:
        bed.advance_minutes(delay_minutes)
    rejected_before = server.rejected
    try:
        reply = bed.network.inject(
            captured.src_address, captured.dst, captured.payload
        )
    except NetworkError as exc:
        return AttackResult("replay-data", False, f"injection failed: {exc}")
    succeeded = server.rejected == rejected_before and reply[:1] == b"\x00"
    return AttackResult(
        "replay-data",
        succeeded,
        "command executed a second time" if succeeded
        else f"rejected ({server.rejection_reasons[-1:] or 'unknown'})",
    )


def cross_session_replay(config: ProtocolConfig, seed: int = 0) -> AttackResult:
    """Replay a KRB_PRIV message from one session into a concurrent one.

    The victim opens two sessions with the same ticket.  Without true
    session keys (and without a shared timestamp cache) a message from
    session 1 decrypts and validates inside session 2.
    """
    bed = Testbed(config, seed=seed)
    bed.add_user("victim", "pw1")
    fs = bed.add_file_server("filehost")
    ws = bed.add_workstation("vws")
    outcome = bed.login("victim", "pw1", ws)
    cred = outcome.client.get_service_ticket(fs.principal)
    session1 = outcome.client.ap_exchange(cred, bed.endpoint(fs))
    session2 = outcome.client.ap_exchange(cred, bed.endpoint(fs))

    session1.call(b"PUT doc session-one-data")
    captured = bed.adversary.recorded(
        service=fs.principal.name + "-data", direction="request"
    )[-1]

    # Cross the streams: same bytes, session 2's id.
    redirected = session2.session_id.to_bytes(8, "big") + captured.payload[8:]
    rejected_before = fs.rejected
    bed.network.inject(
        captured.src_address,
        Endpoint(fs.host.address, fs.principal.name + "-data"),
        redirected,
    )
    succeeded = fs.rejected == rejected_before
    return AttackResult(
        "cross-session-replay",
        succeeded,
        "message from session 1 executed inside session 2"
        if succeeded else
        f"rejected ({fs.rejection_reasons[-1:]})",
    )


def deletion_detection(config: ProtocolConfig, seed: int = 0) -> AttackResult:
    """Drop one in-flight message; does the receiver notice the gap?

    Success (for the *attacker*) means the deletion went unnoticed and
    the conversation continued.
    """
    bed = Testbed(config, seed=seed)
    bed.add_user("victim", "pw1")
    fs = bed.add_file_server("filehost")
    ws = bed.add_workstation("vws")
    outcome = bed.login("victim", "pw1", ws)
    cred = outcome.client.get_service_ticket(fs.principal)
    session = outcome.client.ap_exchange(cred, bed.endpoint(fs))

    session.call(b"PUT doc v1")

    # The adversary swallows exactly one client->server data message: the
    # client's channel advances its send state, the server never sees it.
    # (Simulate by building a message and discarding it, then continuing.)
    _swallowed = session.session_id.to_bytes(8, "big") + session.channel.send(
        b"PUT doc v2-censored"
    )

    try:
        session.call(b"PUT doc v3")
        noticed = False
        reason = ""
    except Exception as exc:
        noticed = True
        reason = str(exc)
    return AttackResult(
        "message-deletion",
        not noticed,
        "deletion went unnoticed; conversation continued around the gap"
        if not noticed else f"receiver detected the gap: {reason}",
    )


def udp_retransmission_false_alarm(seed: int = 0) -> AttackResult:
    """A *legitimate* retransmission gets flagged as a replay.

    The client's reply was lost; the application retransmits the very
    same request bytes (UDP semantics: "all retransmissions happen from
    application level").  With the cache on, the honest client is
    rejected — the inappropriate security alarm.
    """
    with capture() as cap:
        bed = Testbed(ProtocolConfig.v4().but(replay_cache=True), seed=seed)
        bed.add_user("honest", "pw1")
        mail = bed.add_mail_server("mailhost")
        ws = bed.add_workstation("hws")
        outcome = bed.login("honest", "pw1", ws)
        cred = outcome.client.get_service_ticket(mail.principal)
        outcome.client.ap_exchange(cred, bed.endpoint(mail))

        # The reply was lost; the client re-sends the identical AP_REQ.
        request = bed.adversary.recorded(
            service=mail.principal.name, direction="request"
        )[-1]
        rejected_before = mail.rejected
        bed.network.inject(request.src_address, request.dst, request.payload)
        false_alarm = mail.rejected > rejected_before
    return AttackResult(
        "udp-retransmission",
        false_alarm,  # "success" here = the false positive occurred
        "honest retransmission rejected as a replay (security alarm "
        "raised inappropriately)" if false_alarm else
        "retransmission accepted",
        evidence={"rejections": mail.rejection_reasons[-1:]},
        # The "inappropriate alarm" is now literal: the digest shows the
        # ReplayCacheHit the honest client tripped.
        detectability=detectability_digest(cap.events),
    )
