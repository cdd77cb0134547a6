"""E7 — exponential key exchange: security vs cost (LaMacchia–Odlyzko).

Paper claims: DH over the login stops passive password guessing; "
exchanging small numbers is quite insecure, while using large ones is
expensive in computation time"; active wiretaps still strip it.  The
sweep shows honest cost growing polynomially while the generic attack
cost explodes exponentially — the crossover the deployment must sit
beyond.
"""

from repro import Testbed, ProtocolConfig
from repro.analysis import cost_security_tradeoff, render_table
from repro.attacks import dh_active_mitm, dh_passive_break, offline_dictionary_attack

DICT = ["123456", "password", "letmein", "qwerty"]
BIT_SIZES = [16, 20, 24, 28, 32, 40, 64, 128, 256]
MAX_WORK = 1 << 22  # the bounded adversary's baby-step budget


def run_tradeoff():
    rows = cost_security_tradeoff(BIT_SIZES, max_work=MAX_WORK, seed=70)
    table = [
        (
            row.modulus_bits,
            row.honest_ops,
            row.attack_ops if row.attack_ops else "infeasible",
            "BROKEN" if row.broken else "safe",
        )
        for row in rows
    ]
    return rows, table


def run_protocol_outcomes():
    outcomes = []
    # Passive eavesdropper vs no-DH baseline.
    bed = Testbed(ProtocolConfig.v4(), seed=70)
    bed.add_user("alice", "letmein")
    ws = bed.add_workstation("ws1")
    bed.login("alice", "letmein", ws)
    replies = bed.adversary.recorded(service="kerberos", direction="response")
    baseline = offline_dictionary_attack(bed.config, replies, DICT)
    outcomes.append(("no DH", "passive", bool(baseline.cracked)))

    # Passive vs small and large DH moduli.
    for bits, expect_broken in ((32, True), (256, False)):
        config = ProtocolConfig.v4().but(dh_login=True, dh_modulus_bits=bits)
        bed = Testbed(config, seed=70)
        bed.add_user("alice", "letmein")
        ws = bed.add_workstation("ws1")
        bed.login("alice", "letmein", ws)
        request = bed.adversary.recorded(service="kerberos", direction="request")[-1]
        reply = bed.adversary.recorded(service="kerberos", direction="response")[-1]
        result = dh_passive_break(config, request, reply, DICT, max_work=MAX_WORK)
        outcomes.append((f"DH {bits}b", "passive", result.succeeded))

    # Active MITM vs large modulus: still strips the layer.
    config = ProtocolConfig.v4().but(dh_login=True, dh_modulus_bits=256)
    bed = Testbed(config, seed=70)
    bed.add_user("alice", "letmein")
    ws = bed.add_workstation("ws1")
    outcomes.append(("DH 256b", "active MITM",
                     dh_active_mitm(bed, "alice", DICT, ws).succeeded))
    return outcomes


def test_e07_dh_tradeoff(benchmark, experiment_output):
    (rows, table) = benchmark.pedantic(run_tradeoff, iterations=1, rounds=1)
    outcomes = run_protocol_outcomes()
    text = render_table(
        "E7a: DH modulus size — honest cost vs generic attack (BSGS)",
        ["modulus bits", "honest (mod-muls)", "attack (mod-muls)", "verdict"],
        table,
    )
    text += "\n\n" + render_table(
        "E7b: password recovery through the login dialog",
        ["login protocol", "adversary", "password recovered"],
        [(a, b, "YES" if c else "no") for a, b, c in outcomes],
    )
    experiment_output("e07_dh_login", text)

    by_bits = {row.modulus_bits: row for row in rows}
    assert by_bits[16].broken and by_bits[32].broken
    assert not by_bits[128].broken and not by_bits[256].broken
    # Attack cost grows much faster than honest cost across broken sizes.
    broken = [r for r in rows if r.broken and r.attack_ops]
    assert broken[-1].attack_ops > broken[0].attack_ops
    outcome_map = {(a, b): c for a, b, c in outcomes}
    assert outcome_map[("no DH", "passive")]
    assert outcome_map[("DH 32b", "passive")]
    assert not outcome_map[("DH 256b", "passive")]
    assert outcome_map[("DH 256b", "active MITM")]
