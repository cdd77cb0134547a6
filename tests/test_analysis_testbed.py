"""The analysis helpers and the testbed builder itself."""


from repro import Testbed, ProtocolConfig
from repro.analysis import (
    PasswordPopulation, attack_dictionary, compare_recommendations,
    measure, render_matrix, render_table,
)
from repro.crypto.des import BLOCK_OPS, decrypt_block, encrypt_block


def test_measure_counts_are_positive_and_stable():
    first = measure(ProtocolConfig.v4(), seed=0)
    second = measure(ProtocolConfig.v4(), seed=0)
    assert first.wire_messages == second.wire_messages
    assert first.des_block_ops == second.des_block_ops
    assert first.wire_messages > 0 and first.des_block_ops > 0


def test_measure_reads_the_block_op_meter_without_resetting_it():
    """measure() reads the process-wide meter by difference, so a reading
    that spans it keeps the ops on either side: two outside ops around
    the same measure() add exactly 2 to the span."""
    key, block = bytes.fromhex("133457799BBCDFF1"), bytes(8)

    def span(outside):
        before = BLOCK_OPS.count
        if outside:
            encrypt_block(key, block)
        row = measure(ProtocolConfig.v4(), seed=0)
        if outside:
            decrypt_block(key, block)
        return BLOCK_OPS.count - before, row.des_block_ops

    alone, ops = span(False)
    around, again = span(True)
    assert again == ops > 0
    assert around == alone + 2
    # The span also holds measure()'s test-bed set-up (string_to_key).
    assert alone > ops


def test_challenge_response_costs_exactly_one_round_trip():
    base = measure(ProtocolConfig.v4(), seed=0)
    cr = measure(ProtocolConfig.v4().but(challenge_response=True), seed=0)
    assert cr.wire_messages - base.wire_messages == 2


def test_every_recommendation_costs_something_or_nothing_but_never_saves():
    rows = compare_recommendations(seed=0)
    base = rows[0]
    for row in rows[1:]:
        assert row.wire_messages >= base.wire_messages, row.label
        assert row.des_block_ops >= base.des_block_ops, row.label


def test_cost_row_delta():
    rows = compare_recommendations(seed=0)
    delta = rows[1].delta(rows[0])
    assert "msgs" in delta and "DES ops" in delta


def test_population_generation_deterministic():
    a = PasswordPopulation.generate(20, seed=3)
    b = PasswordPopulation.generate(20, seed=3)
    assert a.users == b.users
    assert len(a.users) == 20


def test_population_fractions_shape():
    weak_heavy = PasswordPopulation.generate(
        200, weak_fraction=0.9, medium_fraction=0.05, seed=1
    )
    strong_heavy = PasswordPopulation.generate(
        200, weak_fraction=0.05, medium_fraction=0.05, seed=1
    )
    dictionary = attack_dictionary(2000)
    assert weak_heavy.crackable_by(dictionary) > \
        strong_heavy.crackable_by(dictionary)


def test_attack_dictionary_ordering_and_size():
    d = attack_dictionary(5)
    assert d == ["123456", "password", "12345678", "qwerty", "abc123"]
    assert len(attack_dictionary(500)) == 500


def test_render_table():
    text = render_table("T", ["a", "bb"], [[1, "xy"], [22, "z"]])
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[2] and "bb" in lines[2]
    assert len(lines) == 6


def test_render_matrix():
    text = render_matrix("M", "attack", ["v4", "hardened"],
                         [["replay", "WIN", "blocked"]])
    assert "attack" in text and "hardened" in text


def test_render_table_empty_rows():
    text = render_table("Empty", ["col"], [])
    assert "Empty" in text


# --- testbed ------------------------------------------------------------------


def test_testbed_determinism():
    def build():
        bed = Testbed(ProtocolConfig.v4(), seed=5)
        bed.add_user("pat", "pw")
        bed.add_echo_server("eh")
        ws = bed.add_workstation("ws1")
        outcome = bed.login("pat", "pw", ws)
        return outcome.credentials.session_key

    assert build() == build()


def test_testbed_unique_addresses():
    bed = Testbed(ProtocolConfig.v4(), seed=6)
    hosts = [bed.add_workstation(f"w{i}") for i in range(5)]
    addresses = [h.address for h in hosts]
    assert len(set(addresses)) == 5


def test_testbed_multiple_realms_and_servers():
    bed = Testbed(ProtocolConfig.v4(), seed=7, realm="A")
    bed.add_realm("B.A")
    assert set(bed.realms) == {"A", "B.A"}
    mail = bed.add_mail_server("mh")
    assert str(mail.principal) in bed.servers


def test_multiuser_host_extra_addresses():
    bed = Testbed(ProtocolConfig.v4(), seed=8)
    host = bed.add_multiuser_host("mh", extra_addresses=2)
    assert len(host.addresses) == 3
