"""The Key Distribution Center: authentication server (AS) + TGS.

This is the full protocol engine for every variant the paper analyses.
One :class:`Kdc` instance serves one realm, registering two endpoints on
its host: ``kerberos`` (the initial AS exchange) and ``tgs`` (ticket
granting).  Which checks run and what goes inside tickets and replies is
entirely driven by :class:`repro.kerberos.config.ProtocolConfig`.

Implemented behaviour, mapped to the paper:

* The base AS exchange: ``{Kc,tgs, {Tc,tgs}Ktgs}Kc`` — and, crucially for
  the password-guessing attack, the default willingness to hand this to
  *anyone who asks*: "Requests for tickets are not themselves encrypted;
  an attacker could simply request ticket-granting tickets for many
  different users."  With ``preauth_required`` the request must carry an
  encrypted nonce proving knowledge of ``Kc`` (recommendation g).

* The **client-as-service loophole**: "Clients may be treated as
  services, and tickets to the client, encrypted by Kc, may be obtained
  by any user" — the AS will issue a ticket *for a user principal as the
  service*, giving harvesters a second oracle.

* Optional **exponential key exchange** over the whole reply
  (recommendation h) and the **handheld-authenticator** reply key
  ``{R}Kc`` (recommendation c).

* The TGS exchange with Draft 3's options: ENC-TKT-IN-SKEY (with or
  without the accidentally-omitted cname check), REUSE-SKEY, ticket
  forwarding, cross-realm referrals with transited-path recording, and
  the cleartext-fields checksum whose CRC-32 instantiation the
  cut-and-paste attack forges.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.crypto import checksum as ck
from repro.crypto.checksum import ChecksumType
from repro.crypto.des import set_odd_parity
from repro.crypto.dh import DhGroup, DhKeyPair, shared_key_to_des
from repro.crypto.modes import ecb_encrypt
from repro.crypto.rng import DeterministicRandom
from repro.kerberos import messages
from repro.kerberos.config import ProtocolConfig
from repro.kerberos.database import DatabaseError, KdcDatabase
from repro.kerberos.messages import (
    AS_REP, AS_REQ, KDC_REP_ENC, TGS_REP, TGS_REQ,
    ERR_BAD_TICKET, ERR_GENERIC, ERR_POLICY, ERR_PREAUTH_FAILED,
    ERR_PREAUTH_REQUIRED, ERR_REPLAY, ERR_SKEW, ERR_TRANSIT_POLICY,
    ERR_UNKNOWN_PRINCIPAL,
    SealError, frame_error, frame_ok,
)
from repro.kerberos.principal import Principal, PrincipalError
from repro.kerberos.realm import RealmDirectory, append_transited
from repro.kerberos.tickets import (
    FLAG_DUPLICATE_SKEY, FLAG_FORWARDABLE,
    OPT_ENC_TKT_IN_SKEY, OPT_FORWARD, OPT_REUSE_SKEY,
    Authenticator, Ticket,
)
from repro.kerberos.validation import (
    ReplayCache, ValidationError, validate_authenticator, validation_event,
)
from repro.obs.events import (
    DecryptFailure, PolicyReject, PreauthFailure, TicketIssued,
)

__all__ = ["AS_SERVICE", "TGS_SERVICE", "Kdc", "tgs_request_checksum_input"]

AS_SERVICE = "kerberos"
TGS_SERVICE = "tgs"


def tgs_request_checksum_input(values: Dict) -> bytes:
    """The cleartext TGS_REQ fields the Draft-3 checksum covers.

    These travel unencrypted; their only protection is the checksum the
    client seals inside its authenticator.  The cut-and-paste attack
    rewrites them and then repairs a CRC-32 over exactly these bytes.
    """
    return b"|".join([
        values["server"].encode(),
        values["options"].to_bytes(8, "big"),
        values["additional_ticket"],
        values["authorization_data"],
        values["forward_address"].encode(),
        values["nonce"].to_bytes(8, "big"),
    ])


class Kdc:
    """One realm's authentication and ticket-granting server."""

    def __init__(
        self,
        realm: str,
        database: KdcDatabase,
        host,
        config: ProtocolConfig,
        rng: DeterministicRandom,
        directory: Optional[RealmDirectory] = None,
        replay_cache: Optional[ReplayCache] = None,
    ):
        self.realm = realm
        self.database = database
        self.host = host
        self.config = config
        self.rng = rng
        self.directory = directory if directory is not None else RealmDirectory()
        self.tgs_principal = Principal.tgs(realm)
        if not database.knows(self.tgs_principal):
            database.add_tgs()
        # Injectable so the sharded service layer can substitute a
        # bounded LruReplayCache per shard (repro.serve).
        self.replay_cache = replay_cache if replay_cache is not None else ReplayCache()
        # Defender-side telemetry rides the host's network fabric.
        self.bus = host.network.bus
        # Per-source AS request history for rate limiting (timestamps of
        # recent requests, pruned to the trailing minute).
        self._as_history: Dict[str, list] = {}
        # Counters the overhead/abuse benchmarks read.
        self.as_requests = 0
        self.tgs_requests = 0
        self.rejected = 0
        self.rate_limited = 0

        host.network.register(host.address, AS_SERVICE, self._handle_as)
        host.network.register(host.address, TGS_SERVICE, self._handle_tgs)
        self.directory.register(realm, host.address)

    # ------------------------------------------------------------------ #
    # AS exchange
    # ------------------------------------------------------------------ #

    def _handle_as(self, message) -> bytes:
        self.as_requests += 1
        config = self.config
        if config.as_rate_limit and not self._within_rate(message.src_address):
            self.rate_limited += 1
            return self._refuse(
                ERR_POLICY,
                f"rate limit: more than {config.as_rate_limit} AS requests "
                f"per minute from {message.src_address}",
                AS_SERVICE, "rate-limit",
            )
        try:
            request = config.codec.decode(AS_REQ, message.payload)
        except Exception as exc:
            return self._refuse(ERR_GENERIC, f"bad AS_REQ: {exc}",
                                AS_SERVICE, "bad-request")

        try:
            client = Principal.parse(request["client"])
            server = Principal.parse(request["server"])
        except PrincipalError as exc:
            return self._refuse(ERR_GENERIC, str(exc),
                                AS_SERVICE, "bad-principal")

        try:
            client_key = self.database.key_of(client)
            server_key = self.database.key_of(server)
        except DatabaseError as exc:
            return self._refuse(ERR_UNKNOWN_PRINCIPAL, str(exc),
                                AS_SERVICE, "unknown-principal",
                                client=request["client"])

        # Recommendation (g), second half: "the protocol should not
        # distribute tickets for users (encrypted with the password-based
        # key)" — the client-as-service harvesting loophole.
        if not config.issue_tickets_for_users and self._is_user(server):
            return self._refuse(
                ERR_POLICY, f"{server} is a user, not a service; "
                "tickets for user principals are not issued",
                AS_SERVICE, "user-ticket-policy", client=str(client),
            )

        # Recommendation (g): authenticate the user to Kerberos before
        # handing out anything encrypted in Kc.
        if config.preauth_required:
            if not request["preauth"]:
                bus = self.bus
                if bus.active:
                    bus.emit(PreauthFailure(
                        realm=self.realm, client=str(client),
                        detail="no preauth data presented",
                    ))
                return self._error(
                    ERR_PREAUTH_REQUIRED, "initial authentication required"
                )
            if not self._check_preauth(request, client_key):
                self.rejected += 1
                bus = self.bus
                if bus.active:
                    bus.emit(PreauthFailure(
                        realm=self.realm, client=str(client),
                        detail="preauth did not verify",
                    ))
                return self._error(ERR_PREAUTH_FAILED, "preauth did not verify")

        now = self.host.clock.now()
        session_key = self.rng.random_key()
        flags = 0
        if config.allow_forwarding and request["flags_requested"] & FLAG_FORWARDABLE:
            flags |= FLAG_FORWARDABLE

        ticket = Ticket(
            server=server,
            client=client,
            address=message.src_address if config.bind_address else "",
            issued_at=config.round_timestamp(now),
            lifetime=config.ticket_lifetime,
            session_key=session_key,
            flags=flags,
        )
        sealed_ticket = ticket.seal(server_key, config, self.rng)

        reply_key = client_key
        handheld_r = b""
        if config.handheld_login:
            # Rec. (c): encrypt the reply under {R}Kc instead of Kc, and
            # send R in the clear; only a holder of the handheld device
            # (or of the password) can reconstruct the reply key.
            handheld_r = self.rng.random_bytes(8)
            reply_key = set_odd_parity(ecb_encrypt(client_key, handheld_r))

        enc_part = self._reply_enc_part(ticket, sealed_ticket, reply_key,
                                        request["nonce"])

        dh_public = b""
        if config.dh_login and request["dh_public"]:
            # Rec. (h): wrap the whole reply in a DH-derived layer so a
            # passive wiretapper records nothing decryptable by password
            # guessing.
            group = DhGroup.for_bits(config.dh_modulus_bits)
            pair = DhKeyPair.generate(group, self.rng)
            peer = int.from_bytes(request["dh_public"], "big")
            try:
                secret = pair.shared_secret(peer)
            except ValueError as exc:
                return self._refuse(ERR_GENERIC, f"bad DH public value: {exc}",
                                    AS_SERVICE, "bad-dh", client=str(client))
            dh_key = shared_key_to_des(secret, group.prime)
            enc_part = messages.seal(enc_part, dh_key, config, self.rng)
            dh_public = pair.public.to_bytes((group.prime.bit_length() + 7) // 8, "big")

        reply = config.codec.encode(AS_REP, {
            "client": str(client),
            "ticket": sealed_ticket,
            "enc_part": enc_part,
            "dh_public": dh_public,
            "handheld_r": handheld_r,
        })
        bus = self.bus
        if bus.active:
            bus.emit(TicketIssued(
                realm=self.realm, client=str(client), server=str(server),
                exchange="as",
            ))
        return frame_ok(reply)

    def _check_preauth(self, request: Dict, client_key: bytes) -> bool:
        """Verify the encrypted-nonce preauthentication data."""
        try:
            plain = messages.unseal(request["preauth"], client_key, self.config)
        except SealError:
            return False
        if len(plain) != 16:
            return False
        nonce = int.from_bytes(plain[:8], "big")
        stamp = int.from_bytes(plain[8:], "big")
        if nonce != request["nonce"]:
            return False
        # The timestamp inside keeps a recorded preauth from being
        # replayed much later to harvest a fresh reply.
        skew = self.config.clock_skew
        return abs(self.host.clock.now() - stamp) <= skew

    # ------------------------------------------------------------------ #
    # TGS exchange
    # ------------------------------------------------------------------ #

    def _handle_tgs(self, message) -> bytes:
        self.tgs_requests += 1
        config = self.config
        try:
            request = config.codec.decode(TGS_REQ, message.payload)
        except Exception as exc:
            return self._refuse(ERR_GENERIC, f"bad TGS_REQ: {exc}",
                                TGS_SERVICE, "bad-request")

        try:
            server = Principal.parse(request["server"])
            ticket_server = Principal.parse(request["ticket_server"])
        except PrincipalError as exc:
            return self._refuse(ERR_GENERIC, str(exc),
                                TGS_SERVICE, "bad-principal")

        # Which of our keys is the presented ticket sealed under?  Our own
        # TGS key for local TGTs, an inter-realm key for foreign ones.
        if not self.database.knows(ticket_server) or not ticket_server.is_tgs:
            return self._refuse(
                ERR_BAD_TICKET,
                f"not a ticket-granting principal: {ticket_server}",
                TGS_SERVICE, "bad-ticket-server",
            )
        tgt_key = self.database.key_of(ticket_server)

        try:
            tgt = Ticket.unseal(request["ticket"], tgt_key, config)
        except SealError as exc:
            self.rejected += 1
            bus = self.bus
            if bus.active:
                bus.emit(DecryptFailure(
                    service=TGS_SERVICE, what="tgt", detail=str(exc),
                ))
            return self._error(ERR_BAD_TICKET, f"TGT did not unseal: {exc}")
        if tgt.server != ticket_server:
            self.rejected += 1
            return self._refuse(ERR_BAD_TICKET, "ticket/key principal mismatch",
                                TGS_SERVICE, "ticket-key-mismatch",
                                client=str(tgt.client))

        # The rogue-transit-realm check: a TGT sealed under the key we
        # share with realm X was *issued by X*; its client must belong to
        # X or to a realm recorded in the transited path.  Without this,
        # any linked realm can mint tickets claiming OUR users' names —
        # the sharpest form of the paper's cascading-trust problem.
        issuing_realm = ticket_server.realm
        if config.verify_interrealm_client and issuing_realm != self.realm:
            from repro.kerberos.realm import is_ancestor, parse_transited
            vouchers = {issuing_realm, *parse_transited(tgt.transited)}
            # A realm speaks for itself and its hierarchical subtree.
            if not any(is_ancestor(v, tgt.client.realm) for v in vouchers):
                self.rejected += 1
                return self._refuse(
                    ERR_TRANSIT_POLICY,
                    f"ticket issued by {issuing_realm} claims a client from "
                    f"{tgt.client.realm}, which that realm cannot vouch for",
                    TGS_SERVICE, "transit-policy", client=str(tgt.client),
                )

        try:
            authenticator = Authenticator.unseal(
                request["authenticator"], tgt.session_key, config
            )
        except SealError as exc:
            self.rejected += 1
            bus = self.bus
            if bus.active:
                bus.emit(DecryptFailure(
                    service=TGS_SERVICE, what="authenticator",
                    client=str(tgt.client), detail=str(exc),
                ))
            return self._error(ERR_BAD_TICKET, f"authenticator: {exc}")

        now = self.host.clock.now()
        try:
            validate_authenticator(
                tgt, request["ticket"], authenticator, request["authenticator"],
                config, now, message.src_address,
                replay_cache=self.replay_cache,
                expected_server=str(ticket_server),
            )
        except ValidationError as exc:
            self.rejected += 1
            bus = self.bus
            if bus.active:
                bus.emit(validation_event(TGS_SERVICE, str(tgt.client), exc))
            code = ERR_REPLAY if exc.reason == "replay" else ERR_SKEW
            return self._error(code, str(exc))

        # Draft 3: the cleartext request fields are guarded only by a
        # checksum sealed in the authenticator.  Verify it — with
        # whatever strength the configured algorithm has.
        if config.version >= 5:
            spec = ck.spec_for(config.tgs_req_checksum)
            mac_key = tgt.session_key if spec.keyed else b""
            expected = spec.compute(tgs_request_checksum_input(request), mac_key)
            if authenticator.req_checksum != expected:
                self.rejected += 1
                return self._refuse(
                    ERR_BAD_TICKET, "request checksum mismatch",
                    TGS_SERVICE, "request-checksum", client=str(tgt.client),
                )

        # Recommendation (g): the TGS path must refuse user-principal
        # "services" too, or the client-as-service harvest just moves here.
        if not config.issue_tickets_for_users and self._is_user(server):
            return self._refuse(
                ERR_POLICY, f"{server} is a user, not a service; "
                "tickets for user principals are not issued",
                TGS_SERVICE, "user-ticket-policy", client=str(tgt.client),
            )

        options = request["options"]

        # --- forwarding ------------------------------------------------
        if options & OPT_FORWARD:
            return self._handle_forward(request, tgt, tgt_key, now, message)

        # --- choose the key the new ticket will be sealed under ---------
        seal_key, extra_flags, err = self._ticket_seal_key(request, server, options)
        if err is not None:
            return err

        # --- session key for the new ticket ------------------------------
        if options & OPT_REUSE_SKEY:
            if not config.allow_reuse_skey:
                return self._refuse(ERR_POLICY, "REUSE-SKEY disabled by policy",
                                    TGS_SERVICE, "reuse-skey-disabled",
                                    client=str(tgt.client))
            session_key = tgt.session_key
            extra_flags |= FLAG_DUPLICATE_SKEY
        else:
            session_key = self.rng.random_key()

        # --- cross-realm referral ----------------------------------------
        target = server
        transited = tgt.transited
        if server.realm and server.realm != self.realm and not server.is_tgs:
            try:
                next_realm = self.directory.next_hop(self.realm, server.realm)
            except Exception as exc:
                return self._refuse(ERR_GENERIC, f"no route to realm: {exc}",
                                    TGS_SERVICE, "no-route",
                                    client=str(tgt.client))
            target = Principal.tgs(self.realm, next_realm)
            if config.record_transited and self.realm != tgt.client.realm:
                transited = append_transited(transited, self.realm)
        elif server.is_tgs and server.realm == self.realm and server.instance != self.realm:
            # Explicit request for an inter-realm TGT (krbtgt.NEXT@SELF).
            target = server
            if config.record_transited and self.realm != tgt.client.realm:
                transited = append_transited(transited, self.realm)

        if seal_key is None:
            try:
                seal_key = self.database.key_of(target)
            except DatabaseError as exc:
                return self._refuse(ERR_UNKNOWN_PRINCIPAL, str(exc),
                                    TGS_SERVICE, "unknown-principal",
                                    client=str(tgt.client))

        ticket = Ticket(
            server=target,
            client=tgt.client,
            address=tgt.address if config.bind_address else "",
            issued_at=config.round_timestamp(now),
            lifetime=min(config.ticket_lifetime, tgt.expires_at() - now),
            session_key=session_key,
            flags=(tgt.flags & FLAG_FORWARDABLE) | extra_flags,
            transited=transited,
        )
        sealed_ticket = ticket.seal(seal_key, config, self.rng)
        return self._kdc_reply(
            TGS_REP, tgt.client, ticket, sealed_ticket,
            tgt.session_key, request["nonce"],
        )

    def _ticket_seal_key(
        self, request: Dict, server: Principal, options: int
    ) -> Tuple[Optional[bytes], int, Optional[bytes]]:
        """Resolve ENC-TKT-IN-SKEY: (seal key or None, extra flags, error)."""
        config = self.config
        if not options & OPT_ENC_TKT_IN_SKEY:
            return None, 0, None
        if not config.allow_enc_tkt_in_skey:
            return None, 0, self._refuse(
                ERR_POLICY, "ENC-TKT-IN-SKEY disabled",
                TGS_SERVICE, "enc-tkt-disabled",
            )
        try:
            additional = Ticket.unseal(
                request["additional_ticket"],
                self.database.key_of(self.tgs_principal),
                config,
            )
        except SealError as exc:
            bus = self.bus
            if bus.active:
                bus.emit(DecryptFailure(
                    service=TGS_SERVICE, what="additional-ticket",
                    detail=str(exc),
                ))
            return None, 0, self._error(
                ERR_BAD_TICKET, f"additional ticket: {exc}"
            )
        if config.enc_tkt_cname_check and str(additional.client) != str(server):
            # The requirement Draft 3 inadvertently omitted: the enclosed
            # ticket's cname must match the server the new ticket is for.
            return None, 0, self._refuse(
                ERR_POLICY,
                f"ENC-TKT-IN-SKEY cname {additional.client} != server {server}",
                TGS_SERVICE, "enc-tkt-cname",
            )
        return additional.session_key, 0, None

    def _handle_forward(
        self, request: Dict, tgt: Ticket, tgt_key: bytes, now: int, message
    ) -> bytes:
        """Re-issue a TGT bound to a new address (V5 forwarding)."""
        config = self.config
        if not config.allow_forwarding:
            return self._refuse(ERR_POLICY, "forwarding disabled by policy",
                                TGS_SERVICE, "forwarding-disabled",
                                client=str(tgt.client))
        if not tgt.has_flag(FLAG_FORWARDABLE):
            return self._refuse(ERR_POLICY, "TGT is not forwardable",
                                TGS_SERVICE, "not-forwardable",
                                client=str(tgt.client))
        forwarded = tgt.forwarded_copy(
            request["forward_address"] if config.bind_address else ""
        )
        sealed = forwarded.seal(tgt_key, config, self.rng)
        return self._kdc_reply(
            TGS_REP, tgt.client, forwarded, sealed,
            tgt.session_key, request["nonce"], exchange="forward",
        )

    def _reply_enc_part(self, ticket: Ticket, sealed_ticket: bytes,
                        reply_key: bytes, nonce: int) -> bytes:
        """The sealed ``KDC_REP_ENC`` part of an AS or TGS reply (its ticket
        checksum is appendix rec. (c), the ticket-substitution defense)."""
        config = self.config
        return messages.seal(
            config.codec.encode(KDC_REP_ENC, {
                "session_key": ticket.session_key,
                "server": str(ticket.server),
                "nonce": nonce if config.as_rep_nonce else 0,
                "issued_at": ticket.issued_at,
                "lifetime": ticket.lifetime,
                "ticket_checksum": (
                    ck.compute(ChecksumType.MD4, sealed_ticket)
                    if config.kdc_reply_ticket_checksum else b""
                ),
            }),
            reply_key, config, self.rng,
        )

    def _kdc_reply(
        self, schema, client: Principal, ticket: Ticket,
        sealed_ticket: bytes, reply_key: bytes, nonce: int,
        exchange: str = "tgs",
    ) -> bytes:
        config = self.config
        reply = config.codec.encode(schema, {
            "client": str(client),
            "ticket": sealed_ticket,
            "enc_part": self._reply_enc_part(ticket, sealed_ticket,
                                             reply_key, nonce),
            "dh_public": b"",
            "handheld_r": b"",
        })
        bus = self.bus
        if bus.active:
            bus.emit(TicketIssued(
                realm=self.realm, client=str(client),
                server=str(ticket.server), exchange=exchange,
            ))
        return frame_ok(reply)

    def _within_rate(self, source: str) -> bool:
        """Sliding one-minute window of AS requests per source address.

        A blunt instrument, as the paper implies: the adversary can fork
        source addresses, so this raises the bar rather than closing the
        harvest channel (preauthentication closes it).
        """
        from repro.sim.clock import MINUTE

        now = self.host.clock.now()
        history = self._as_history.setdefault(source, [])
        history[:] = [t for t in history if t > now - MINUTE]
        if len(history) >= self.config.as_rate_limit:
            return False
        history.append(now)
        return True

    @staticmethod
    def _is_user(principal: Principal) -> bool:
        """User principals have no instance (or an attribute instance like
        ``root``) and are not krbtgt; service principals carry hostnames."""
        return not principal.is_tgs and not principal.instance

    def _error(self, code: int, text: str) -> bytes:
        return frame_error(self.config, code, text)

    def _refuse(
        self, code: int, text: str, service: str, reason: str,
        client: str = "",
    ) -> bytes:
        """An error reply that also shows up in the defender's event log."""
        bus = self.bus
        if bus.active:
            bus.emit(PolicyReject(
                service=service, reason=reason, client=client, detail=text,
            ))
        return frame_error(self.config, code, text)
