"""E3 — replay defenses: nothing vs cache vs challenge/response.

Paper claims: the cache stops straight replays but raises false alarms
on honest UDP retransmissions and cannot stop minted authenticators;
challenge/response stops both, at the price of one extra round trip and
retained server state.
"""

from repro import Testbed, ProtocolConfig
from repro.analysis import render_table
from repro.attacks import (
    mail_check_capture, replay_ap_request, udp_retransmission_false_alarm,
)

VARIANTS = [
    ("none", ProtocolConfig.v4()),
    ("authenticator cache", ProtocolConfig.v4().but(replay_cache=True)),
    ("challenge/response", ProtocolConfig.v4().but(challenge_response=True)),
]


def run_matrix():
    rows = []
    for label, config in VARIANTS:
        bed = Testbed(config, seed=30)
        bed.add_user("victim", "pw1")
        mail = bed.add_mail_server("mailhost")
        ws = bed.add_workstation("vws")
        messages_before = bed.network._seq
        ap, _ = mail_check_capture(bed, "victim", "pw1", mail, ws)
        session_cost = bed.network._seq - messages_before
        replay = replay_ap_request(bed, mail, ap[-1], delay_minutes=1)
        rows.append((
            label,
            "SUCCEEDED" if replay.succeeded else "blocked",
            session_cost,
        ))
    false_alarm = udp_retransmission_false_alarm(seed=30)
    return rows, false_alarm


def test_e03_replay_defenses(benchmark, experiment_output):
    rows, false_alarm = benchmark.pedantic(run_matrix, iterations=1, rounds=1)
    text = render_table(
        "E3: live-authenticator replay vs defense",
        ["defense", "replay outcome", "wire msgs per session"], rows,
    )
    text += (
        "\n\nCache side effect (paper's UDP objection): "
        + ("honest retransmission REJECTED as replay"
           if false_alarm.succeeded else "no false alarm")
    )
    experiment_output("e03_replay_defenses", text)

    by_label = {r[0]: r for r in rows}
    assert by_label["none"][1] == "SUCCEEDED"
    assert by_label["authenticator cache"][1] == "blocked"
    assert by_label["challenge/response"][1] == "blocked"
    # C/R costs exactly one extra message pair.
    assert by_label["challenge/response"][2] - by_label["none"][2] == 2
    assert false_alarm.succeeded
