"""The chained-IV comparison and its honest limits."""

import pytest

from repro.analysis.iv_chain import (
    CHAINED, channel_replay_outcome, comparison_rows,
)


def test_comparison_rows_shape():
    rows = comparison_rows()
    assert len(rows) == 3
    by_label = {row[0]: row for row in rows}

    # Everyone blocks a verbatim same-channel replay.
    for label, replay, _d, _c, _s in rows:
        assert replay == "blocked", label

    # Deletion: only counters/chains notice.
    assert by_label["timestamps + cache"][2] == "UNDETECTED"
    assert by_label["sequence numbers"][2] == "detected"
    assert by_label["chained IVs"][2] == "detected"

    # Clock dependence: timestamps reject slow-but-honest messages.
    assert by_label["timestamps + cache"][3].startswith("no")
    assert by_label["sequence numbers"][3] == "yes"
    assert by_label["chained IVs"][3] == "yes"

    # Retained state after 20 messages.
    assert by_label["timestamps + cache"][4] == "20 entries"
    assert by_label["chained IVs"][4] == "1 entry"


def test_chain_replay_blocked():
    assert not channel_replay_outcome(CHAINED).succeeded


def test_chain_alone_does_not_fix_cross_session_substitution():
    """The honest limit: chains derived from a *shared* multi-session
    key collide at matching positions across sessions; rec. e (true
    session keys) is what separates them."""
    from repro.crypto.rng import DeterministicRandom
    from repro.kerberos.session import (
        DIR_CLIENT_TO_SERVER, DIR_SERVER_TO_CLIENT, PrivateChannel,
        SessionKeys,
    )
    from repro.sim.clock import SimClock

    key = bytes.fromhex("133457799BBCDFF1")
    clock = SimClock(start=1_000_000)

    def channel(direction, share=b""):
        keys = SessionKeys(multi_key=key, client_share=share,
                           server_share=share and bytes(8))
        return PrivateChannel(
            keys, CHAINED, DeterministicRandom(1), clock,
            local_address="10.0.0.1" if direction == 0 else "10.0.0.2",
            peer_address="10.0.0.2" if direction == 0 else "10.0.0.1",
            direction=direction,
        )

    # Two sessions, same multi-session key, no negotiation.
    sender1 = channel(DIR_CLIENT_TO_SERVER)
    receiver2 = channel(DIR_SERVER_TO_CLIENT)  # a DIFFERENT session
    wire = sender1.send(b"meant for session one")
    # Cross-substitution at position 0 is accepted: same key, same IV.
    assert receiver2.receive(wire) == b"meant for session one"

    # With negotiated shares the chains separate and it fails.
    negotiated = CHAINED.but(negotiate_session_key=True)
    keys1 = SessionKeys(multi_key=key, client_share=bytes([1]) * 8,
                        server_share=bytes([2]) * 8)
    keys2 = SessionKeys(multi_key=key, client_share=bytes([3]) * 8,
                        server_share=bytes([4]) * 8)
    sender = PrivateChannel(
        keys1, negotiated, DeterministicRandom(1), clock,
        local_address="10.0.0.1", peer_address="10.0.0.2",
        direction=DIR_CLIENT_TO_SERVER,
    )
    stranger = PrivateChannel(
        keys2, negotiated, DeterministicRandom(2), clock,
        local_address="10.0.0.2", peer_address="10.0.0.1",
        direction=DIR_SERVER_TO_CLIENT,
    )
    from repro.kerberos.session import ChannelError
    with pytest.raises(ChannelError):
        stranger.receive(sender.send(b"separated"))
