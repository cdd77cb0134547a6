"""Recommendation (d), the IV half: chained initialization vectors.

    "We suggest that the IV be used as intended, and be incremented or
    otherwise altered after each message.  Initial values for it should
    be exchanged during (or derived from) the authentication handshake.
    Apart from simplifying the definition of the encryption function,
    this scheme would also allow detection of message deletions by
    interested applications.  ...  (Such chaining avoids both the
    dependence on a clock and the need to cache recent timestamps.)"

:func:`comparison_rows` compares per-channel replay protection across
the three mechanisms the paper weighs — timestamps (+cache), sequence
numbers, chained IVs — on the axes the paper names: replay, deletion,
clock dependence, and retained state.

One nuance the comparison surfaces honestly: chained IVs derived from a
*shared multi-session key* still allow cross-session substitution at
matching chain positions; the chain composes with true session keys
(rec. e) rather than replacing them.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.attacks.base import AttackResult
from repro.crypto.rng import DeterministicRandom
from repro.kerberos.config import ProtocolConfig
from repro.kerberos.session import (
    DIR_CLIENT_TO_SERVER, DIR_SERVER_TO_CLIENT, ChannelError,
    PrivateChannel, SessionKeys,
)
from repro.sim.clock import MINUTE, SimClock

__all__ = ["CHAINED", "channel_replay_outcome", "comparison_rows"]

KEY = bytes.fromhex("133457799BBCDFF1")

#: The paper's intended configuration: IV chaining replacing confounders.
CHAINED = ProtocolConfig.v5_draft3().but(
    chain_ivs=True, use_confounder=False, krb_priv_layout="v4",
)


def _pair(config: ProtocolConfig, key: bytes = KEY):
    clock = SimClock(start=1_000_000)
    keys = SessionKeys(multi_key=key)
    sender = PrivateChannel(
        keys, config, DeterministicRandom(1), clock,
        local_address="10.0.0.1", peer_address="10.0.0.2",
        direction=DIR_CLIENT_TO_SERVER,
    )
    receiver = PrivateChannel(
        keys, config, DeterministicRandom(2), clock,
        local_address="10.0.0.2", peer_address="10.0.0.1",
        direction=DIR_SERVER_TO_CLIENT,
    )
    return sender, receiver, clock


def channel_replay_outcome(config: ProtocolConfig) -> AttackResult:
    """Replay one channel message; did the receiver take it twice?"""
    sender, receiver, clock = _pair(config)
    wire = sender.send(b"execute once")
    clock.advance(1000)
    receiver.receive(wire)
    try:
        receiver.receive(wire)
        return AttackResult("channel-replay", True, "executed twice")
    except ChannelError as exc:
        return AttackResult("channel-replay", False, f"rejected: {exc.reason}")


def _deletion_noticed(config: ProtocolConfig) -> bool:
    sender, receiver, clock = _pair(config)
    receiver.receive(sender.send(b"one"))
    clock.advance(1000)
    sender.send(b"two-deleted")
    clock.advance(1000)
    try:
        receiver.receive(sender.send(b"three"))
        return False
    except ChannelError:
        return True


def _clock_free(config: ProtocolConfig) -> bool:
    """Does an in-order message survive an hour of transit delay?"""
    sender, receiver, clock = _pair(config)
    wire = sender.send(b"slow boat")
    clock.advance(60 * MINUTE)
    try:
        receiver.receive(wire)
        return True
    except ChannelError:
        return False


def _retained_state(config: ProtocolConfig, messages: int = 20) -> int:
    sender, receiver, clock = _pair(config)
    if config.use_sequence_numbers:
        receiver.recv_seq = sender.send_seq
    for i in range(messages):
        clock.advance(1000)
        receiver.receive(sender.send(b"m%d" % i))
    if config.chain_ivs or config.use_sequence_numbers:
        return 1  # a counter
    return receiver.timestamp_cache_size


def comparison_rows() -> List[Tuple[str, str, str, str, str]]:
    """The three mechanisms on the paper's four axes."""
    variants = [
        ("timestamps + cache", ProtocolConfig.v5_draft3().but(
            krb_priv_layout="v4")),
        ("sequence numbers", ProtocolConfig.v5_draft3().but(
            use_sequence_numbers=True, krb_priv_layout="v4")),
        ("chained IVs", CHAINED),
    ]
    rows = []
    for label, config in variants:
        retained = _retained_state(config)
        rows.append((
            label,
            "blocked" if not channel_replay_outcome(config).succeeded
            else "EXECUTED",
            "detected" if _deletion_noticed(config) else "UNDETECTED",
            "yes" if _clock_free(config) else "no (skew window)",
            f"{retained} entr" + ("y" if retained == 1 else "ies"),
        ))
    return rows

