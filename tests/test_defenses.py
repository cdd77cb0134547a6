"""Every recommended change blocks the attack it answers.

A row names a recommendation, the attack it answers, a base column in
which that attack wins, and the knobs that turn the change on.  The
row runs as a two-column attack matrix, ``base`` and
``base.but(**knobs)``, so "change Z stops attack X" is computed by the
same cell runner that fills the paper's matrix: telemetry capture, the
DES meter, and the "protocol refused outright" rule.  What each change
costs is priced once, by
:func:`repro.analysis.overhead.compare_recommendations` (E18).
"""

import pytest

from repro.analysis import (
    cache_growth, compare_recommendations, cost_security_tradeoff,
)
from repro.attacks import (
    client_as_service_harvest, cross_session_replay, deletion_detection,
    udp_retransmission_false_alarm,
)
from repro.crypto.checksum import ChecksumType
from repro.kerberos.config import ProtocolConfig
from repro.suite import SCENARIOS, Scenario, run_attack_matrix
from repro.testbed import Testbed

_USERS = {"alice": "letmein", "bob": "zebra-quartz-71", "carol": "password"}


def _client_as_service(config, seed):
    """An authenticated attacker asks the TGS for tickets *for* users."""
    bed = Testbed(config, seed=seed)
    for name, password in _USERS.items():
        bed.add_user(name, password)
    bed.add_user("mallory", "attacker-pw")
    outcome = bed.login("mallory", "attacker-pw", bed.add_workstation("aws"))
    _tickets, result = client_as_service_harvest(bed, outcome.client, _USERS)
    return result


# The three attacks the matrix does not run, wrapped as scenarios here.
CLIENT_AS_SERVICE = Scenario("client-as-service harvest", _client_as_service,
                             "Password-Guessing Attacks")
CROSS_SESSION = Scenario("cross-session replay", cross_session_replay,
                         "Exposure of Session Keys")
DELETION = Scenario("KRB_PRIV deletion", deletion_detection,
                    "The Encryption Layer")

_BY_NAME = {scenario.name: scenario for scenario in SCENARIOS}
V4 = ProtocolConfig.v4()
DRAFT3 = ProtocolConfig.v5_draft3()

#: (recommendation, attack, base column, knobs of the change)
ROWS = [
    ("a", _BY_NAME["authenticator replay"], V4,
     {"challenge_response": True}),
    ("cache", _BY_NAME["authenticator replay"], V4, {"replay_cache": True}),
    ("c", _BY_NAME["trojaned login"], V4, {"handheld_login": True}),
    ("d", DELETION, DRAFT3.but(krb_priv_layout="v4"),
     {"chain_ivs": True, "use_confounder": False}),
    ("e", _BY_NAME["authenticator minting"], DRAFT3,
     {"negotiate_session_key": True}),
    ("e", CROSS_SESSION, DRAFT3, {"negotiate_session_key": True}),
    ("g", _BY_NAME["TGT harvest + crack"], V4, {"preauth_required": True}),
    ("g", CLIENT_AS_SERVICE, V4, {"issue_tickets_for_users": False}),
    ("h", _BY_NAME["eavesdrop + crack"], V4, {"dh_login": True}),
    ("app-a", _BY_NAME["ENC-TKT-IN-SKEY cut-and-paste"], DRAFT3,
     {"enc_tkt_cname_check": True}),
    ("app-b", _BY_NAME["ENC-TKT-IN-SKEY cut-and-paste"], DRAFT3,
     {"tgs_req_checksum": ChecksumType.MD4}),
    ("app-c", _BY_NAME["ticket substitution"], DRAFT3,
     {"kdc_reply_ticket_checksum": True}),
    ("app-d", CROSS_SESSION, DRAFT3, {"use_sequence_numbers": True}),
    ("app-d", DELETION, V4, {"use_sequence_numbers": True}),
]


@pytest.mark.parametrize("scenario,base,knobs", [
    pytest.param(scenario, base, knobs, id=f"{rec} {scenario.name}")
    for rec, scenario, base, knobs in ROWS
])
def test_defense_is_effective(scenario, base, knobs):
    matrix = run_attack_matrix(
        columns=[("base", base), ("defended", base.but(**knobs))],
        scenarios=[scenario],
    )
    assert matrix.outcome(scenario.name, "base"), \
        matrix.cells[(scenario.name, "base")]
    assert not matrix.outcome(scenario.name, "defended"), \
        matrix.cells[(scenario.name, "defended")]


def test_challenge_response_costs_two_messages():
    rows = {row.label: row for row in compare_recommendations(seed=0)}
    base, cr = rows["v4 baseline"], rows["a: challenge/response"]
    assert cr.wire_messages - base.wire_messages == 2

def test_replay_cache_false_alarm():
    result = udp_retransmission_false_alarm()
    assert result.succeeded  # the false positive happens
    assert result.evidence["rejections"] == ["replay"]


def test_seqnum_cache_growth_shapes():
    ts_rows = cache_growth(ProtocolConfig.v4(), [3, 9])
    sq_rows = cache_growth(
        ProtocolConfig.v4().but(use_sequence_numbers=True), [3, 9]
    )
    assert ts_rows == [(3, 3), (9, 9)]     # O(messages)
    assert sq_rows == [(3, 1), (9, 1)]     # O(1)


def test_dh_tradeoff_rows():
    rows = cost_security_tradeoff([16, 32, 128], max_work=1 << 20)
    by_bits = {row.modulus_bits: row for row in rows}
    assert by_bits[16].broken and by_bits[32].broken
    assert not by_bits[128].broken            # infeasible at bound
    assert by_bits[128].attack_ops is None
    # Honest cost grows slowly with size; attack cost explodes.
    assert by_bits[16].honest_ops < by_bits[16].attack_ops
    assert by_bits[32].honest_ops < by_bits[32].attack_ops
    # Counted block ops, not wall time: the sweep is seed-stable.
    again = cost_security_tradeoff([16, 32, 128], max_work=1 << 20)
    assert rows == again
