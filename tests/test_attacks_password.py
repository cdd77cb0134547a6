"""Password-guessing attacks across all three channels."""


import pytest

from repro import Testbed, ProtocolConfig
from repro.analysis import PasswordPopulation, attack_dictionary
from repro.attacks import (
    client_as_service_harvest, crack_sealed_tickets, dh_active_mitm,
    dh_passive_break, harvest_tickets, offline_dictionary_attack,
)
from repro.attacks.password_guess import (
    _extract_as_material, _head_plausible,
)
from repro.crypto.des import BLOCK_OPS
from repro.crypto.keys import string_to_key

DICT = ["123456", "password", "letmein", "qwerty", "zebra1"]


def population_bed(config, seed=1):
    bed = Testbed(config, seed=seed)
    bed.add_user("alice", "letmein")
    bed.add_user("bob", "Xq9$kkwv3Lp2")  # strong: not in any dictionary
    return bed


def test_harvest_and_crack_weak_users_only():
    bed = population_bed(ProtocolConfig.v4())
    harvested, result = harvest_tickets(bed, ["alice", "bob"])
    assert result.succeeded and len(harvested) == 2
    stats = offline_dictionary_attack(bed.config, harvested, DICT)
    assert stats.cracked == {"alice": "letmein"}  # bob survives
    assert stats.material_count == 2


@pytest.mark.parametrize("config, blocks", [
    (ProtocolConfig.v4(), 1),          # length field in block 1
    (ProtocolConfig.v5_draft3(), 2),   # behind an 8-byte confounder
])
def test_wrong_key_head_check_decrypts_only_the_length_blocks(config, blocks):
    """A table-path guess decrypts the blocks holding the sealed length
    field and no more, as the bitsliced path does: the cost the attack
    matrix reports per guess."""
    bed = population_bed(config)
    harvested, _result = harvest_tickets(bed, ["alice"])
    [(_client, enc_part, _r)] = _extract_as_material(config, harvested)
    wrong_key = string_to_key("not-alice's-password")
    before = BLOCK_OPS.count
    _head_plausible(config, enc_part, wrong_key)
    assert BLOCK_OPS.count - before == blocks


def test_harvest_includes_unknown_users_gracefully():
    bed = population_bed(ProtocolConfig.v4())
    harvested, result = harvest_tickets(bed, ["alice", "ghost"])
    assert result.evidence["served"] == 1
    assert result.evidence["refused"] == 1


def test_preauth_blocks_harvest():
    bed = population_bed(ProtocolConfig.v4().but(preauth_required=True))
    harvested, result = harvest_tickets(bed, ["alice", "bob"])
    assert not result.succeeded and not harvested


def test_eavesdropped_login_crackable():
    bed = population_bed(ProtocolConfig.v4())
    ws = bed.add_workstation("ws1")
    bed.login("alice", "letmein", ws)
    replies = bed.adversary.recorded(service="kerberos", direction="response")
    stats = offline_dictionary_attack(bed.config, replies, DICT)
    assert stats.cracked == {"alice": "letmein"}


def test_preauth_does_not_stop_eavesdropping():
    """The paper is precise: preauth forces 'true eavesdropping', it does
    not remove the passive channel."""
    bed = population_bed(ProtocolConfig.v4().but(preauth_required=True))
    ws = bed.add_workstation("ws1")
    bed.login("alice", "letmein", ws)
    replies = bed.adversary.recorded(service="kerberos", direction="response")
    stats = offline_dictionary_attack(bed.config, replies, DICT)
    assert stats.cracked == {"alice": "letmein"}


def test_dh_blocks_passive_eavesdropping():
    config = ProtocolConfig.v4().but(dh_login=True, dh_modulus_bits=128)
    bed = population_bed(config)
    ws = bed.add_workstation("ws1")
    bed.login("alice", "letmein", ws)
    replies = bed.adversary.recorded(service="kerberos", direction="response")
    stats = offline_dictionary_attack(config, replies, DICT)
    assert stats.cracked == {}


def test_dh_small_modulus_broken_passively():
    config = ProtocolConfig.v4().but(dh_login=True, dh_modulus_bits=32)
    bed = population_bed(config)
    ws = bed.add_workstation("ws1")
    bed.login("alice", "letmein", ws)
    request = bed.adversary.recorded(service="kerberos", direction="request")[-1]
    reply = bed.adversary.recorded(service="kerberos", direction="response")[-1]
    result = dh_passive_break(config, request, reply, DICT)
    assert result.succeeded
    assert result.evidence["password"] == "letmein"


def test_dh_large_modulus_resists_bounded_adversary():
    config = ProtocolConfig.v4().but(dh_login=True, dh_modulus_bits=128)
    bed = population_bed(config)
    ws = bed.add_workstation("ws1")
    bed.login("alice", "letmein", ws)
    request = bed.adversary.recorded(service="kerberos", direction="request")[-1]
    reply = bed.adversary.recorded(service="kerberos", direction="response")[-1]
    result = dh_passive_break(config, request, reply, DICT, max_work=1 << 20)
    assert not result.succeeded
    assert "infeasible" in result.detail


def test_dh_active_mitm_strips_the_layer():
    config = ProtocolConfig.v4().but(dh_login=True, dh_modulus_bits=128)
    bed = population_bed(config)
    ws = bed.add_workstation("ws1")
    result = dh_active_mitm(bed, "alice", DICT, ws)
    assert result.succeeded


def test_client_as_service_loophole():
    bed = population_bed(ProtocolConfig.v4())
    bed.add_user("mallory", "attacker-pw")
    ws = bed.add_workstation("aws")
    attacker = bed.login("mallory", "attacker-pw", ws)
    tickets, result = client_as_service_harvest(
        bed, attacker.client, ["alice", "bob"]
    )
    assert result.succeeded
    stats = crack_sealed_tickets(bed.config, tickets, ["alice", "bob"], DICT)
    assert stats.cracked == {"alice": "letmein"}


def test_client_as_service_blocked_by_policy():
    config = ProtocolConfig.v4().but(issue_tickets_for_users=False)
    bed = population_bed(config)
    bed.add_user("mallory", "attacker-pw")
    ws = bed.add_workstation("aws")
    attacker = bed.login("mallory", "attacker-pw", ws)
    tickets, result = client_as_service_harvest(
        bed, attacker.client, ["alice", "bob"]
    )
    assert not result.succeeded and not tickets


def test_population_crack_rate_scales_with_dictionary():
    """E5's shape at test scale: bigger dictionary, more victims."""
    population = PasswordPopulation.generate(
        30, weak_fraction=0.5, medium_fraction=0.3, seed=4
    )
    small = population.crackable_by(attack_dictionary(10))
    large = population.crackable_by(attack_dictionary(1000))
    assert small <= large
    assert large >= 30 * 0.4  # most weak+medium passwords fall
    # Strong passwords never fall.
    strong = [pw for pw in population.users.values() if len(pw) == 12]
    assert all(pw not in attack_dictionary(1030) for pw in strong)
