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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.crypto.des import BLOCK_OPS
from repro.kerberos.config import ProtocolConfig
from repro.testbed import Testbed

__all__ = ["CostRow", "measure", "compare_recommendations"]


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
