"""The client library: kinit, ticket acquisition, AP exchanges.

Everything a workstation does on a user's behalf, for every protocol
variant.  The notable design points, each traceable to the paper:

* **Login secrets are pluggable.**  :class:`PasswordSecret` holds the
  typed password (capturable by a trojaned login program);
  :class:`HandheldSecret` wraps a device that answers the ``{R}Kc``
  challenge so the password never reaches the workstation
  (recommendation c).

* **kinit** drives the AS exchange with optional preauthentication
  (rec. g) and the exponential-key-exchange layer (rec. h), verifying
  the reply nonce when the protocol echoes it (Draft 3's
  challenge/response of the KDC to the client).

* **get_service_ticket** walks cross-realm referrals hop by hop, the
  V5 hierarchy scheme the paper examines.

* **ap_exchange** builds authenticators with whichever recommended
  extensions are on: the ticket-binding checksum, the random initial
  sequence number, the key-negotiation share — or runs the
  challenge/response alternative (rec. a) with no clock at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.crypto import checksum as ck
from repro.crypto.checksum import ChecksumType
from repro.crypto.des import set_odd_parity
from repro.crypto.dh import DhGroup, DhKeyPair, shared_key_to_des
from repro.crypto.keys import string_to_key
from repro.crypto.modes import ecb_encrypt
from repro.crypto.rng import DeterministicRandom
from repro.kerberos import messages
from repro.kerberos.ccache import CredentialCache, Credentials
from repro.kerberos.config import ProtocolConfig
from repro.kerberos.kdc import AS_SERVICE, TGS_SERVICE, tgs_request_checksum_input
from repro.kerberos.messages import (
    AP_REP_ENC, AP_REQ, AS_REP, AS_REQ, CHALLENGE_ENC, KDC_REP_ENC,
    TGS_REP, TGS_REQ, ERR_METHOD, SealError,
    decode_error, unframe,
)
from repro.kerberos.principal import Principal
from repro.kerberos.realm import RealmDirectory
from repro.kerberos.session import (
    DIR_CLIENT_TO_SERVER, PrivateChannel, SessionKeys,
)
from repro.kerberos.tickets import (
    FLAG_FORWARDABLE, OPT_CR_RESPONSE, OPT_MUTUAL_AUTH,
    Authenticator,
)
from repro.sim.host import Host, StorageKind
from repro.sim.network import Endpoint, NetworkError

__all__ = [
    "KerberosError", "PasswordSecret", "HandheldSecret", "ClientSession",
    "KerberosClient",
]


class KerberosError(RuntimeError):
    """A KRB_ERROR reply or a client-side verification failure."""

    def __init__(self, code: int, text: str):
        super().__init__(f"kerberos error {code}: {text}")
        self.code = code
        self.text = text


class PasswordSecret:
    """The user's typed password, held by the login program.

    Whoever holds this object can derive ``Kc`` — which is the point of
    the login-spoofing attack: a trojaned login program holding a
    PasswordSecret has everything.
    """

    def __init__(self, password: str):
        self.password = password

    def client_key(self) -> bytes:
        return string_to_key(self.password)

    def reply_key(self, handheld_r: bytes) -> bytes:
        key = self.client_key()
        if handheld_r:
            return set_odd_parity(ecb_encrypt(key, handheld_r))
        return key


class HandheldSecret:
    """A hand-held authenticator: the workstation sees only ``{R}Kc``.

    The device (:class:`repro.hardware.handheld.HandheldDevice`) holds
    the key; this wrapper exposes just the challenge responses the
    protocol needs, so a compromised workstation captures at most
    one-time values.
    """

    def __init__(self, device):
        self.device = device

    def client_key(self) -> bytes:
        raise KerberosError(
            0, "handheld login: the workstation never sees Kc"
        )

    def reply_key(self, handheld_r: bytes) -> bytes:
        if not handheld_r:
            raise KerberosError(
                0, "KDC did not issue a handheld challenge; cannot log in "
                "without exposing the password"
            )
        return self.device.respond(handheld_r)

    def preauth(self, nonce: int, timestamp: int, config) -> bytes:
        return self.device.preauth(nonce, timestamp, config)


@dataclass
class ClientSession:
    """An established application session, ready for private messages."""

    session_id: int
    channel: PrivateChannel
    server: Principal
    endpoint: Endpoint
    network: object

    def call(self, data: bytes) -> bytes:
        """Send one private message and decrypt the private response."""
        wire = self.session_id.to_bytes(8, "big") + self.channel.send(data)
        reply = self.network.rpc(
            self.channel.local_address,
            Endpoint(self.endpoint.address, self.endpoint.service + "-data"),
            wire,
        )
        is_error, body = unframe(self.channel.config, reply)
        if is_error:
            error = decode_error(self.channel.config, body)
            raise KerberosError(error["code"], error["text"])
        return self.channel.receive(body)

    def safe_call(self, data: bytes) -> bytes:
        """Like :meth:`call`, but over KRB_SAFE (integrity, no privacy).

        Used with services that speak the safe channel on their data
        port, e.g. :class:`repro.kerberos.appserver.BulletinServer`.
        """
        from repro.kerberos.session import SafeChannel

        if not hasattr(self, "_safe_channel"):
            self._safe_channel = SafeChannel(
                self.channel.keys, self.channel.config, self.channel.clock,
                initial_send_seq=self.channel.send_seq,
                initial_recv_seq=self.channel.recv_seq,
            )
        wire = self.session_id.to_bytes(8, "big") + self._safe_channel.send(data)
        reply = self.network.rpc(
            self.channel.local_address,
            Endpoint(self.endpoint.address, self.endpoint.service + "-data"),
            wire,
        )
        is_error, body = unframe(self.channel.config, reply)
        if is_error:
            error = decode_error(self.channel.config, body)
            raise KerberosError(error["code"], error["text"])
        return self._safe_channel.receive(body)


class KerberosClient:
    """A user's Kerberos agent on one host."""

    def __init__(
        self,
        host: Host,
        user: Principal,
        config: ProtocolConfig,
        directory: RealmDirectory,
        rng: DeterministicRandom,
        cache_kind: StorageKind = StorageKind.LOCAL_DISK,
    ):
        self.host = host
        self.user = user
        self.config = config
        self.directory = directory
        self.rng = rng
        self.ccache = CredentialCache(host, user.name, cache_kind)
        # Diagnostics for the overhead benchmark.
        self.messages_exchanged = 0

    # ------------------------------------------------------------------ #
    # AS exchange (kinit)
    # ------------------------------------------------------------------ #

    def kinit(
        self,
        secret,
        server: Optional[Principal] = None,
        forwardable: bool = False,
    ) -> Credentials:
        """Obtain an initial ticket (normally the TGT) and cache it."""
        config = self.config
        realm = self.user.realm
        target = server if server is not None else Principal.tgs(realm)
        nonce = self.rng.random_uint32()

        preauth = b""
        if config.preauth_required:
            stamp = self.host.clock.now()
            payload = nonce.to_bytes(8, "big") + stamp.to_bytes(8, "big")
            if isinstance(secret, HandheldSecret):
                preauth = secret.preauth(nonce, stamp, config)
            else:
                preauth = messages.seal(
                    payload, secret.client_key(), config, self.rng
                )

        dh_pair: Optional[DhKeyPair] = None
        dh_public = b""
        if config.dh_login:
            group = DhGroup.for_bits(config.dh_modulus_bits)
            dh_pair = DhKeyPair.generate(group, self.rng)
            dh_public = dh_pair.public.to_bytes(
                (group.prime.bit_length() + 7) // 8, "big"
            )

        request = config.codec.encode(AS_REQ, {
            "client": str(self.user),
            "server": str(target),
            "nonce": nonce,
            "flags_requested": FLAG_FORWARDABLE if forwardable else 0,
            "preauth": preauth,
            "dh_public": dh_public,
        })
        reply = self._rpc(realm, AS_SERVICE, request)
        values = self._decode_reply(AS_REP, reply)

        enc_part = values["enc_part"]
        if config.dh_login and values["dh_public"]:
            assert dh_pair is not None
            peer = int.from_bytes(values["dh_public"], "big")
            dh_key = shared_key_to_des(
                dh_pair.shared_secret(peer), dh_pair.group.prime
            )
            enc_part = messages.unseal(enc_part, dh_key, config)

        reply_key = secret.reply_key(values["handheld_r"])
        try:
            enc = config.codec.decode(
                KDC_REP_ENC, messages.unseal(enc_part, reply_key, config)
            )
        except SealError as exc:
            raise KerberosError(0, f"AS reply did not decrypt: {exc}")

        if config.as_rep_nonce and enc["nonce"] != nonce:
            raise KerberosError(
                0, "AS reply nonce mismatch — replayed or forged reply"
            )
        self._check_reply_ticket(enc, values["ticket"])

        cred = Credentials(
            server=Principal.parse(enc["server"]),
            client=self.user,
            sealed_ticket=values["ticket"],
            session_key=enc["session_key"],
            issued_at=enc["issued_at"],
            lifetime=enc["lifetime"],
        )
        self.ccache.store(cred)
        return cred

    # ------------------------------------------------------------------ #
    # TGS exchange
    # ------------------------------------------------------------------ #

    def get_service_ticket(
        self,
        server: Principal,
        options: int = 0,
        additional_ticket: bytes = b"",
        authorization_data: bytes = b"",
        forward_address: str = "",
        max_hops: int = 8,
    ) -> Credentials:
        """Obtain a ticket for *server*, following cross-realm referrals."""
        cached = self.ccache.lookup(server)
        if cached is not None and not options:
            return cached
        tgt = self.ccache.tgt()
        if tgt is None:
            raise KerberosError(0, "no TGT in cache; kinit first")

        for _ in range(max_hops):
            cred = self._tgs_exchange(
                tgt, server, options, additional_ticket,
                authorization_data, forward_address,
            )
            self.ccache.store(cred)
            if not cred.server.is_tgs or cred.server == server:
                return cred
            # A referral: we were handed an inter-realm TGT for the next
            # hop.  Ask that realm's TGS next.
            tgt = cred
        raise KerberosError(0, f"no service ticket after {max_hops} referrals")

    def _tgs_exchange(
        self, tgt: Credentials, server: Principal, options: int,
        additional_ticket: bytes, authorization_data: bytes,
        forward_address: str,
    ) -> Credentials:
        config = self.config
        # Which realm do we ask?  A TGT for ``krbtgt.B@A`` opens doors at
        # realm B's TGS (B holds the key A sealed it under).
        tgs_realm = tgt.server.instance or tgt.server.realm
        nonce = self.rng.random_uint32()

        request_values = {
            "server": str(server),
            "ticket_server": str(tgt.server),
            "ticket": tgt.sealed_ticket,
            "authenticator": b"",
            "options": options,
            "additional_ticket": additional_ticket,
            "authorization_data": authorization_data,
            "forward_address": forward_address,
            "nonce": nonce,
        }

        req_checksum = b""
        if config.version >= 5:
            spec = ck.spec_for(config.tgs_req_checksum)
            mac_key = tgt.session_key if spec.keyed else b""
            req_checksum = spec.compute(
                tgs_request_checksum_input(request_values), mac_key
            )

        authenticator = Authenticator(
            client=self.user,
            address=self.host.address,
            timestamp=config.round_timestamp(self.host.clock.now()),
            req_checksum=req_checksum,
            ticket_checksum=(
                ck.compute(ChecksumType.MD4, tgt.sealed_ticket)
                if config.authenticator_ticket_checksum else b""
            ),
        )
        request_values["authenticator"] = authenticator.seal(
            tgt.session_key, config, self.rng
        )

        request = config.codec.encode(TGS_REQ, request_values)
        reply = self._rpc(tgs_realm, TGS_SERVICE, request)
        values = self._decode_reply(TGS_REP, reply)
        try:
            enc = config.codec.decode(
                KDC_REP_ENC,
                messages.unseal(values["enc_part"], tgt.session_key, config),
            )
        except SealError as exc:
            raise KerberosError(0, f"TGS reply did not decrypt: {exc}")
        if config.as_rep_nonce and enc["nonce"] != nonce:
            raise KerberosError(0, "TGS reply nonce mismatch")
        self._check_reply_ticket(enc, values["ticket"])

        return Credentials(
            server=Principal.parse(enc["server"]),
            client=self.user,
            sealed_ticket=values["ticket"],
            session_key=enc["session_key"],
            issued_at=enc["issued_at"],
            lifetime=enc["lifetime"],
        )

    # ------------------------------------------------------------------ #
    # AP exchange
    # ------------------------------------------------------------------ #

    def ap_exchange(
        self,
        cred: Credentials,
        endpoint: Endpoint,
        mutual: bool = True,
    ) -> ClientSession:
        """Authenticate to an application server and open a session."""
        config = self.config
        if config.challenge_response:
            return self._ap_challenge_response(cred, endpoint)

        subkey = self.rng.random_key() if config.negotiate_session_key else b""
        seq = self.rng.random_uint32() if config.use_sequence_numbers else 0
        authenticator = Authenticator(
            client=self.user,
            address=self.host.address,
            timestamp=config.round_timestamp(self.host.clock.now()),
            ticket_checksum=(
                ck.compute(ChecksumType.MD4, cred.sealed_ticket)
                if config.authenticator_ticket_checksum else b""
            ),
            seq=seq,
            subkey=subkey,
        )
        request = config.codec.encode(AP_REQ, {
            "ticket": cred.sealed_ticket,
            "authenticator": authenticator.seal(
                cred.session_key, config, self.rng
            ),
            "options": OPT_MUTUAL_AUTH if mutual else 0,
        })
        reply = self._raw_rpc(endpoint, request)
        return self._finish_ap(
            cred, endpoint, reply,
            expected_stamp=authenticator.timestamp + 1 if mutual else None,
            client_share=subkey, send_seq=seq,
        )

    def _ap_challenge_response(
        self, cred: Credentials, endpoint: Endpoint
    ) -> ClientSession:
        """Recommendation (a): prove key possession without a clock."""
        config = self.config
        # Step 1: present the ticket alone.
        request = config.codec.encode(AP_REQ, {
            "ticket": cred.sealed_ticket, "authenticator": b"", "options": 0,
        })
        reply = self._raw_rpc(endpoint, request)
        is_error, body = unframe(config, reply)
        if not is_error:
            raise KerberosError(0, "server skipped the challenge step")
        error = decode_error(config, body)
        if error["code"] != ERR_METHOD:
            raise KerberosError(error["code"], error["text"])
        challenge_values = config.codec.decode(
            CHALLENGE_ENC,
            messages.unseal(error["e_data"], cred.session_key, config),
        )

        # Step 2: answer with a function of the challenge (+ our share).
        subkey = self.rng.random_key() if config.negotiate_session_key else b""
        response = messages.seal(
            config.codec.encode(CHALLENGE_ENC, {
                "challenge": challenge_values["challenge"] + 1,
                "subkey": subkey,
            }),
            cred.session_key, config, self.rng,
        )
        request = config.codec.encode(AP_REQ, {
            "ticket": cred.sealed_ticket,
            "authenticator": response,
            "options": OPT_CR_RESPONSE | OPT_MUTUAL_AUTH,
        })
        reply = self._raw_rpc(endpoint, request)
        return self._finish_ap(
            cred, endpoint, reply,
            expected_stamp=None, client_share=subkey, send_seq=0,
            expected_nonce=challenge_values["challenge"] + 2,
        )

    def _finish_ap(
        self, cred: Credentials, endpoint: Endpoint, reply: bytes,
        expected_stamp: Optional[int], client_share: bytes, send_seq: int,
        expected_nonce: Optional[int] = None,
    ) -> ClientSession:
        config = self.config
        is_error, body = unframe(config, reply)
        if is_error:
            error = decode_error(config, body)
            raise KerberosError(error["code"], error["text"])
        try:
            enc = config.codec.decode(
                AP_REP_ENC, messages.unseal(body, cred.session_key, config)
            )
        except SealError as exc:
            raise KerberosError(0, f"AP reply did not decrypt: {exc}")
        if expected_stamp is not None and enc["timestamp"] != expected_stamp:
            raise KerberosError(
                0, "mutual authentication failed: bad timestamp proof"
            )
        if expected_nonce is not None and enc["nonce_reply"] != expected_nonce:
            raise KerberosError(
                0, "mutual authentication failed: bad challenge proof"
            )

        keys = SessionKeys(
            multi_key=cred.session_key,
            client_share=client_share,
            server_share=enc["subkey"],
        )
        channel = PrivateChannel(
            keys, config, self.rng, self.host.clock,
            local_address=self.host.address,
            peer_address=endpoint.address,
            direction=DIR_CLIENT_TO_SERVER,
            initial_send_seq=send_seq,
            initial_recv_seq=enc["seq"],
        )
        return ClientSession(
            session_id=enc["session_id"],
            channel=channel,
            server=cred.server,
            endpoint=endpoint,
            network=self.host.network,
        )

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #

    def _rpc(self, realm: str, service: str, request: bytes) -> bytes:
        address = self.directory.kdc_address(realm)
        return self._raw_rpc(Endpoint(address, service), request)

    def _raw_rpc(self, endpoint: Endpoint, request: bytes) -> bytes:
        """One request and its reply; a lost message raises
        :class:`NetworkError`.  The client never retries: the paper's
        single-KDC world has no retransmission story, and the load
        harness (:mod:`repro.load`) retries whole phases itself."""
        self.messages_exchanged += 2
        network = self.host.network
        tracer = network.bus.tracer
        if tracer is None:
            return network.rpc(self.host.address, endpoint, request)
        # One root span per call: the frontend's spans nest under it.
        span = tracer.begin(f"rpc/{endpoint.service}", client=self.host.address)
        try:
            return network.rpc(self.host.address, endpoint, request)
        except NetworkError as exc:
            span.attrs["error"] = str(exc)
            raise
        finally:
            tracer.end(span)

    def _decode_reply(self, schema, reply: bytes) -> Dict:
        config = self.config
        is_error, body = unframe(config, reply)
        if is_error:
            error = decode_error(config, body)
            raise KerberosError(error["code"], error["text"])
        return config.codec.decode(schema, body)

    def _check_reply_ticket(self, enc: Dict, sealed_ticket: bytes) -> None:
        """Appendix rec. c: verify the checksum binding the cleartext
        ticket to the encrypted reply, when the KDC supplies one."""
        if self.config.kdc_reply_ticket_checksum:
            expected = ck.compute(ChecksumType.MD4, sealed_ticket)
            if enc["ticket_checksum"] != expected:
                raise KerberosError(
                    0, "ticket in reply does not match its checksum — "
                    "substituted in transit?"
                )
