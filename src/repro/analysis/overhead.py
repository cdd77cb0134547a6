"""Protocol cost accounting: messages and DES operations per operation.

    "Some of our suggestions bear a performance penalty ...  Security has
    real costs, and the benefits are intangible.  There must be a
    continuing and explicit emphasis on security as the overriding
    requirement."

:func:`measure` runs a canonical workload — login, one service ticket,
one AP exchange, three private messages — under a configuration, and
returns how many wire messages crossed the network and how many DES
block operations were executed in total (client + servers + KDC; the
simulation shares one cipher core, so the counter captures the whole
deployment's crypto bill).  Benchmark E18 tabulates the deltas for each
of the paper's recommended changes.

Two costs that one canonical run cannot show are priced here too:

* :func:`cache_growth` — replay-protection state, an O(messages)
  timestamp cache vs an O(1) sequence counter (benchmark E14's series);
* :func:`cost_security_tradeoff` — exponential key exchange (rec. h),
  whose honest cost grows slowly with the modulus while the
  discrete-log attack's explodes; the LaMacchia–Odlyzko caveat, that
  "exchanging small numbers is quite insecure, while using large ones
  is expensive in computation time" (benchmark E7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.crypto.des import BLOCK_OPS
from repro.crypto.dh import DhGroup, DhKeyPair, DiscreteLogError, discrete_log
from repro.crypto.rng import DeterministicRandom
from repro.kerberos.config import ProtocolConfig
from repro.testbed import Testbed

__all__ = ["CostRow", "measure", "compare_recommendations", "cache_growth",
           "TradeoffRow", "cost_security_tradeoff"]


@dataclass
class CostRow:
    """Measured cost of the canonical workload under one configuration."""

    label: str
    wire_messages: int
    des_block_ops: int

    def delta(self, baseline: "CostRow") -> str:
        return (
            f"{self.wire_messages - baseline.wire_messages:+d} msgs, "
            f"{self.des_block_ops - baseline.des_block_ops:+d} DES ops"
        )


def measure(config: ProtocolConfig, seed: int = 0, label: str = "") -> CostRow:
    """Run the canonical workload; return its cost."""
    bed = Testbed(config, seed=seed)
    bed.add_user("pat", "correct horse")
    echo = bed.add_echo_server("echohost")
    ws = bed.add_workstation("ws1")

    messages_before = bed.network._seq
    ops_before = BLOCK_OPS.count

    outcome = bed.login("pat", "correct horse", ws)
    cred = outcome.client.get_service_ticket(echo.principal)
    session = outcome.client.ap_exchange(cred, bed.endpoint(echo))
    for i in range(3):
        # A beat of client think time between messages; without it the
        # Draft-3 millisecond timestamp resolution makes consecutive
        # messages collide in the replay cache (see benchmark E14 for
        # that failure measured deliberately).
        bed.clock.advance(2000)
        session.call(b"message %d" % i)

    return CostRow(
        label=label or config.label,
        wire_messages=bed.network._seq - messages_before,
        des_block_ops=BLOCK_OPS.count - ops_before,
    )


def compare_recommendations(seed: int = 0) -> List[CostRow]:
    """Baseline V4 plus each recommendation toggled on individually,
    plus the fully hardened profile — E18's table rows."""
    base = ProtocolConfig.v4()
    variants = [
        ("v4 baseline", base),
        ("a: challenge/response", base.but(challenge_response=True)),
        ("c: handheld login", base.but(handheld_login=True)),
        ("e: true session keys", base.but(negotiate_session_key=True)),
        ("g: preauthentication", base.but(preauth_required=True)),
        ("h: DH login (256b)", base.but(dh_login=True, dh_modulus_bits=256)),
        ("seqnums", base.but(use_sequence_numbers=True)),
        ("replay cache", base.but(replay_cache=True)),
        ("ticket checksums", base.but(
            kdc_reply_ticket_checksum=True, authenticator_ticket_checksum=True
        )),
        ("v5 draft 3", ProtocolConfig.v5_draft3()),
        ("hardened (all)", ProtocolConfig.hardened()),
    ]
    return [measure(config, seed=seed, label=label) for label, config in variants]


def cache_growth(
    config: ProtocolConfig, message_counts: List[int], seed: int = 0
) -> List[Tuple[int, int]]:
    """(messages sent, replay-protection entries held) per workload size."""
    rows = []
    for count in message_counts:
        bed = Testbed(config, seed=seed)
        bed.add_user("victim", "pw1")
        fs = bed.add_file_server("filehost")
        ws = bed.add_workstation("vws")
        outcome = bed.login("victim", "pw1", ws)
        cred = outcome.client.get_service_ticket(fs.principal)
        session = outcome.client.ap_exchange(cred, bed.endpoint(fs))
        for i in range(count):
            session.call(b"PUT doc%d x" % i)
        server_session = fs.sessions[session.session_id]
        if config.use_sequence_numbers:
            state = 1  # the last-counter
        else:
            state = server_session.channel.timestamp_cache_size
        rows.append((count, state))
    return rows


@dataclass
class TradeoffRow:
    """One modulus size in the cost/security sweep.

    Costs are counted, not timed: both sides are expressed as modular
    block operations (multiplications mod p), so the table is
    byte-identical under a fixed seed on any host.
    """

    modulus_bits: int
    honest_ops: int            # two modexps (one side of the exchange)
    attack_ops: Optional[int]  # discrete log; None if infeasible
    broken: bool


def _modexp_ops(exponent: int) -> int:
    """Modular multiplications square-and-multiply spends on *exponent*:
    one squaring per bit after the first, one multiply per set bit
    after the first."""
    if exponent <= 0:
        return 0
    return (exponent.bit_length() - 1) + (bin(exponent).count("1") - 1)


def cost_security_tradeoff(
    bit_sizes: List[int], max_work: int = 1 << 22, seed: int = 0
) -> List[TradeoffRow]:
    """Honest cost vs attack cost per modulus size (LaMacchia–Odlyzko).

    The honest side pays two modexps (publishing ``g^x`` and deriving
    the shared secret); the attack side pays the baby-step/giant-step
    discrete log: ``m`` baby-step multiplies, one modexp to form the
    giant stride, and one multiply per giant step taken.  *max_work*
    bounds the baby-step table; sizes needing more are reported as
    unbroken (infeasible for this adversary).
    """
    rows = []
    rng = DeterministicRandom(seed)
    for bits in bit_sizes:
        group = DhGroup.for_bits(bits)
        pair = DhKeyPair.generate(group, rng)
        pair.shared_secret(pow(group.generator, 12345, group.prime))
        honest = 2 * _modexp_ops(pair.private)

        m = math.isqrt(group.subgroup_order) + 1
        try:
            recovered = discrete_log(group, pair.public, max_work=max_work)
            attack: Optional[int] = m + _modexp_ops(m) + (recovered // m)
            broken = recovered == pair.private
        except DiscreteLogError:
            attack = None
            broken = False
        rows.append(TradeoffRow(bits, honest, attack, broken))
    return rows
