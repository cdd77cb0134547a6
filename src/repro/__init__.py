"""repro — a reproduction of Bellovin & Merritt's "Limitations of the
Kerberos Authentication System" (USENIX Winter 1991).

The package implements, from scratch:

* :mod:`repro.crypto` — DES, ECB/CBC/PCBC, MD4, CRC-32 (+forgery),
  exponential key exchange (+discrete-log break), key derivation;
* :mod:`repro.encoding` — V4's untyped packing and a typed DER subset;
* :mod:`repro.sim` — the open network, hosts, clocks, time services;
* :mod:`repro.kerberos` — Kerberos V4, V5-Draft-2/3, and the paper's
  hardened variant, selected by :class:`ProtocolConfig`, whose knobs
  are the paper's recommended changes;
* :mod:`repro.attacks` — every attack the paper describes, executable;
* :mod:`repro.hardware` — the encryption unit, keystore, handheld
  authenticator, and random-number service;
* :mod:`repro.analysis` — workloads, cracking statistics, the cost of
  each recommended change, and the adversarial encryption-layer
  validation game;
* :mod:`repro.obs` — defender-side telemetry: the structured event
  bus, metrics registry, and per-exchange audit trails that answer
  "what would an IDS have seen?" for every attack run;
* :mod:`repro.suite` — the full attack x protocol evaluation matrix,
  each cell annotated with its detectability digest.

Start with :class:`repro.Testbed`; reproduce the paper's headline result
with :func:`repro.suite.run_attack_matrix`.
"""

from repro.kerberos.config import ProtocolConfig
from repro.kerberos.principal import Principal
from repro.testbed import Realm, Testbed

__version__ = "1.0.0"

__all__ = ["Principal", "ProtocolConfig", "Realm", "Testbed", "__version__"]
