"""Executable versions of every attack in Bellovin & Merritt 1991.

Each module reproduces one section's attack narrative against the
simulated deployment and reports an
:class:`repro.attacks.base.AttackResult`.  The same attack run against
the paper's recommended configuration is expected to fail — that
attack×defense matrix *is* the paper's evaluation.
"""

from repro.attacks.base import AttackResult
from repro.attacks.chosen_plaintext import (
    craft_authenticator_plaintext, mint_authenticator_via_mail,
)
from repro.attacks.cut_and_paste import (
    enc_tkt_in_skey_attack, reuse_skey_redirect, ticket_substitution,
)
from repro.attacks.hijack import one_sided_spoof, session_takeover
from repro.attacks.key_theft import (
    concurrent_cache_theft, encryption_unit_theft, kmem_theft,
    post_logout_theft, wire_capture_theft,
)
from repro.attacks.login_spoof import trojan_capture
from repro.attacks.password_guess import (
    client_as_service_harvest, crack_sealed_tickets, dh_active_mitm,
    dh_passive_break, harvest_tickets, offline_dictionary_attack,
)
from repro.attacks.pcbc import garble_profile, tamper_private_message
from repro.attacks.replay import (
    cross_session_replay, deletion_detection, mail_check_capture,
    replay_ap_request, replay_data_message, udp_retransmission_false_alarm,
)
from repro.attacks.rogue_realm import forge_foreign_client
from repro.attacks.time_spoof import spoof_time_and_replay

__all__ = [
    "AttackResult",
    "client_as_service_harvest",
    "concurrent_cache_theft",
    "crack_sealed_tickets",
    "craft_authenticator_plaintext",
    "cross_session_replay",
    "deletion_detection",
    "dh_active_mitm",
    "dh_passive_break",
    "enc_tkt_in_skey_attack",
    "encryption_unit_theft",
    "forge_foreign_client",
    "garble_profile",
    "harvest_tickets",
    "kmem_theft",
    "mail_check_capture",
    "mint_authenticator_via_mail",
    "offline_dictionary_attack",
    "one_sided_spoof",
    "post_logout_theft",
    "replay_ap_request",
    "replay_data_message",
    "reuse_skey_redirect",
    "session_takeover",
    "spoof_time_and_replay",
    "tamper_private_message",
    "ticket_substitution",
    "trojan_capture",
    "udp_retransmission_false_alarm",
    "wire_capture_theft",
]
