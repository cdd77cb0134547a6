"""E14 — timestamps vs sequence numbers for KRB_PRIV replay protection.

Paper claims: timestamp caches grow without bound ("the size of the
cache could rapidly become unmanageable") and must be shared across
concurrent sessions or cross-stream replay works; sequence numbers make
the cache "a simple last-message counter", detect deletions, and kill
cross-stream replay.  Also: Draft 3's millisecond resolution "is far too
coarse" — rapid senders collide with their own earlier messages.
Rec. (d)'s IV half, chained IVs, would "allow detection of message
deletions" and avoid "both the dependence on a clock and the need to
cache recent timestamps".
"""

from repro import Testbed, ProtocolConfig
from repro.analysis import cache_growth, render_table
from repro.analysis.iv_chain import comparison_rows
from repro.attacks import cross_session_replay, deletion_detection
from repro.kerberos.client import KerberosError

MESSAGE_COUNTS = [10, 40, 160]


def run_growth():
    ts = cache_growth(ProtocolConfig.v4(), MESSAGE_COUNTS, seed=140)
    sq = cache_growth(
        ProtocolConfig.v4().but(use_sequence_numbers=True),
        MESSAGE_COUNTS, seed=140,
    )
    return ts, sq


def run_resolution_collision():
    """Back-to-back messages at millisecond resolution: self-collision."""
    bed = Testbed(ProtocolConfig.v5_draft3(), seed=141)
    bed.add_user("pat", "pw")
    fs = bed.add_file_server("filehost")
    ws = bed.add_workstation("ws1")
    outcome = bed.login("pat", "pw", ws)
    cred = outcome.client.get_service_ticket(fs.principal)
    session = outcome.client.ap_exchange(cred, bed.endpoint(fs))
    sent = 0
    collided = 0
    for i in range(8):  # no think time: ~500us apart, 1ms resolution
        try:
            session.call(b"PUT f%d x" % i)
            sent += 1
        except KerberosError:
            collided += 1
    return sent, collided


def test_e14_seqnum(benchmark, experiment_output):
    (ts, sq) = benchmark.pedantic(run_growth, iterations=1, rounds=1)
    sent, collided = run_resolution_collision()
    cross_ts = cross_session_replay(ProtocolConfig.v5_draft3(), seed=142)
    cross_sq = cross_session_replay(
        ProtocolConfig.v5_draft3().but(use_sequence_numbers=True), seed=142,
    )
    deletion_ts = deletion_detection(ProtocolConfig.v4(), seed=143)
    deletion_sq = deletion_detection(
        ProtocolConfig.v4().but(use_sequence_numbers=True), seed=143,
    )
    mechanisms = comparison_rows()

    growth_rows = [
        (count, ts_state, sq_state)
        for (count, ts_state), (_c, sq_state) in zip(ts, sq)
    ]
    text = render_table(
        "E14a: replay-protection state vs messages received",
        ["messages", "timestamp-cache entries", "seqnum state"], growth_rows,
    )
    text += "\n\n" + render_table(
        "E14b: behavioural differences",
        ["property", "timestamps", "sequence numbers"],
        [
            ("cross-stream replay",
             "EXECUTED" if cross_ts.succeeded else "blocked",
             "EXECUTED" if cross_sq.succeeded else "blocked"),
            ("silent message deletion",
             "UNDETECTED" if deletion_ts.succeeded else "detected",
             "UNDETECTED" if deletion_sq.succeeded else "detected"),
            ("1ms-resolution self-collisions (8 rapid msgs)",
             f"{collided} rejected as replays", "none (counters)"),
        ],
    )
    text += "\n\n" + render_table(
        "E14c: one KRB_PRIV channel under each mechanism (rec. d)",
        ["mechanism", "replay", "deletion", "clock-free",
         "state after 20 msgs"],
        mechanisms,
    )
    experiment_output("e14_seqnum", text)

    assert [state for _c, state in ts] == MESSAGE_COUNTS       # O(n)
    assert all(state == 1 for _c, state in sq)                 # O(1)
    assert cross_ts.succeeded and not cross_sq.succeeded
    assert deletion_ts.succeeded and not deletion_sq.succeeded
    assert collided > 0  # the coarse-resolution problem is real
    chained = {row[0]: row[1:] for row in mechanisms}["chained IVs"]
    assert chained == ("blocked", "detected", "yes", "1 entry")
