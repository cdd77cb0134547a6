"""E10 — multi-session keys vs negotiated true session keys (rec. e).

Paper claims: the ticket key is really a *multi-session* key; true
session keys "limit the exposure to cryptanalysis ... and preclude
attacks which substitute messages from one session in another."
Exposure is measured directly: how many messages were encrypted under
one ticket's key across concurrent sessions.
"""

from repro import Testbed, ProtocolConfig
from repro.analysis import render_table
from repro.attacks import cross_session_replay

VARIANTS = [
    ("multi-session key (draft 3)", ProtocolConfig.v5_draft3()),
    ("negotiated true keys", ProtocolConfig.v5_draft3().but(
        negotiate_session_key=True)),
]


def count_key_exposure(config, sessions=4, messages=5):
    """Messages encrypted under the *ticket's* key across N sessions."""
    bed = Testbed(config, seed=100)
    bed.add_user("victim", "pw1")
    fs = bed.add_file_server("filehost")
    ws = bed.add_workstation("vws")
    outcome = bed.login("victim", "pw1", ws)
    cred = outcome.client.get_service_ticket(fs.principal)
    opened = [
        outcome.client.ap_exchange(cred, bed.endpoint(fs))
        for _ in range(sessions)
    ]
    for session in opened:
        for i in range(messages):
            bed.clock.advance(2000)
            session.call(b"PUT f%d x" % i)
    multi_key = cred.session_key
    exposed = 0
    for session in opened:
        if session.channel.keys.channel_key(config) == multi_key:
            exposed += session.channel.messages_sent + \
                session.channel.messages_received
    return exposed


def run_experiment():
    rows = []
    for label, config in VARIANTS:
        exposure = count_key_exposure(config)
        replay = cross_session_replay(config, seed=100)
        rows.append((
            label, exposure,
            "EXECUTED" if replay.succeeded else "blocked",
        ))
    return rows


def test_e10_session_keys(benchmark, experiment_output):
    rows = benchmark.pedantic(run_experiment, iterations=1, rounds=1)
    experiment_output("e10_session_keys", render_table(
        "E10: multi-session key exposure and cross-session substitution "
        "(4 sessions x 5 messages)",
        ["key scheme", "msgs under ticket key", "cross-session replay"],
        rows,
    ))
    by_label = {r[0]: r for r in rows}
    assert by_label["multi-session key (draft 3)"][1] >= 40
    assert by_label["negotiated true keys"][1] == 0
    assert by_label["multi-session key (draft 3)"][2] == "EXECUTED"
    assert by_label["negotiated true keys"][2] == "blocked"
