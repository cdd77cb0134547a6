"""The login program — honest, trojaned, and hardened variants.

    "In a workstation environment, it is quite simple for an intruder to
    replace the 'login' command with a version that records users'
    passwords before employing them in the Kerberos dialog.  Such an
    attack negates one of Kerberos's primary advantages, that passwords
    are never transmitted in cleartext over a network."

:class:`LoginProgram` is what sits on the workstation disk (which is
"not physically secure; someone so inclined could remove, read, or alter
any portion of the disk").  The trojaned variant records what the user
types before proceeding normally — the user sees a successful login
either way.  What the trojan *gets* depends on the login protocol:

* password login: the password itself — everything;
* handheld login (recommendation c): a single ``{R}Kc`` response —
  enough to decrypt one recorded reply, useless tomorrow.

Benchmark E8 measures exactly this difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

from repro.crypto.rng import DeterministicRandom
from repro.hardware.handheld import HandheldDevice
from repro.kerberos.ccache import Credentials
from repro.kerberos.client import HandheldSecret, KerberosClient, PasswordSecret
from repro.kerberos.config import ProtocolConfig
from repro.kerberos.principal import Principal
from repro.kerberos.realm import RealmDirectory
from repro.obs.events import LoginAttempt
from repro.sim.host import Host, StorageKind

__all__ = ["LoginOutcome", "LoginProgram", "TrojanedLoginProgram"]


@dataclass
class LoginOutcome:
    """What a login attempt produced."""

    client: KerberosClient
    credentials: Credentials


class LoginProgram:
    """The honest login(1): collect the user's input, run the AS exchange,
    leave a credential cache behind."""

    def __init__(
        self,
        host: Host,
        config: ProtocolConfig,
        directory: RealmDirectory,
        rng: DeterministicRandom,
        cache_kind: StorageKind = StorageKind.LOCAL_DISK,
    ):
        self.host = host
        self.config = config
        self.directory = directory
        self.rng = rng
        self.cache_kind = cache_kind

    def login(
        self,
        user: Principal,
        typed_input: Union[str, HandheldDevice],
        forwardable: bool = False,
    ) -> LoginOutcome:
        """*typed_input* is the password string, or the user's handheld
        device when the deployment uses recommendation (c).  A failed
        login logs the user out again, so the workstation is free for
        the next attempt."""
        secret = self._collect(typed_input)
        self.host.login(user.name)
        client = KerberosClient(
            self.host, user, self.config, self.directory, self.rng,
            cache_kind=self.cache_kind,
        )
        bus = self.host.network.bus
        try:
            credentials = client.kinit(secret, forwardable=forwardable)
        except Exception:
            self.host.logout(user.name)
            if bus.active:
                bus.emit(LoginAttempt(
                    user=user.name, realm=user.realm,
                    host=self.host.name, ok=False,
                ))
            raise
        if bus.active:
            bus.emit(LoginAttempt(
                user=user.name, realm=user.realm, host=self.host.name, ok=True,
            ))
        return LoginOutcome(client, credentials)

    def _collect(self, typed_input):
        if isinstance(typed_input, HandheldDevice):
            return HandheldSecret(typed_input)
        return PasswordSecret(typed_input)


class TrojanedLoginProgram(LoginProgram):
    """The attacker's replacement login(1).

    Behaves identically from the user's point of view; additionally
    records everything the user supplies.  ``captured_passwords`` holds
    reusable long-term secrets; ``captured_responses`` holds one-time
    values (present only to show how little a handheld leaks).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.captured_passwords: List[str] = []
        self.captured_responses: List[bytes] = []

    def _collect(self, typed_input):
        if isinstance(typed_input, HandheldDevice):
            # The trojan can observe device *responses* as they pass
            # through, but never the key inside the device.
            honest = HandheldSecret(typed_input)
            trojan = self

            class _TappedSecret(HandheldSecret):
                def reply_key(self, handheld_r: bytes) -> bytes:
                    value = honest.reply_key(handheld_r)
                    trojan.captured_responses.append(value)
                    return value

                def preauth(self, nonce, timestamp, config):
                    return honest.preauth(nonce, timestamp, config)

            return _TappedSecret(typed_input)
        self.captured_passwords.append(typed_input)
        return PasswordSecret(typed_input)
