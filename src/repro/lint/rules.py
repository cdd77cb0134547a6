"""The rule registry: one rule per paper finding.

Every rule couples two things:

* a **config predicate** — is this :class:`ProtocolConfig` variant
  vulnerable?  (mirrors the precondition of the corresponding attack in
  :mod:`repro.attacks`); and
* a **code evidence query** — does the scanned tree actually contain
  the construct the paper warns about (the PCBC dispatch, the
  privacy-only ``seal_private`` path, the unauthenticated time
  service...)?

A rule fires only when *both* hold, and it anchors its finding at the
first evidence site.  That split is what makes the snippet-pair unit
tests meaningful: pointing the engine at a "fixed" snippet tree (no
vulnerable construct) silences the rule even under a vulnerable config,
and a hardened config silences it even over the real tree.

The one config-independent check, ``CONFIG-FLAG-UNREAD``, is a
:class:`~repro.lint.findings.CodeRule` (:data:`CODE_RULES`) like every
rule of the sim and crypto families, reported under
:data:`CODE_COLUMN`.

The verdicts are not a heuristic grep: ``python -m repro lint
--consistency`` (see :mod:`repro.check.consistency`) pins each mapped
rule to the model checker's verdict and to the live attack-matrix cell
it predicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.crypto.checksum import spec_for
from repro.kerberos.config import ProtocolConfig
from repro.lint.engine import CodeModel
from repro.lint.findings import (
    CodeRule, EvidenceSite, Finding, Severity, run_code_rules,
)

__all__ = ["Rule", "RULES", "RULES_BY_ID", "CODE_COLUMN", "CODE_RULES",
           "UNREAD_FLAG_RULE_ID", "UNREAD_FLAG_SECTION", "fired_rule_ids",
           "run_config_rules", "run_all_rules"]

#: Column label attached to config-independent (pure code) findings.
CODE_COLUMN = "(code)"

Anchor = Tuple[str, int]
ConfigPredicate = Callable[[ProtocolConfig], bool]
EvidenceQuery = Callable[[CodeModel], List[Anchor]]


@dataclass(frozen=True)
class Rule:
    """One paper finding, as a checkable rule."""

    rule_id: str
    severity: Severity
    title: str
    paper_section: str
    description: str
    config_predicate: ConfigPredicate
    evidence: EvidenceQuery

    def anchors(self, model: CodeModel) -> List[Anchor]:
        return self.evidence(model)

    def fires(self, model: CodeModel, config: ProtocolConfig) -> bool:
        return self.config_predicate(config) and bool(self.anchors(model))


# --------------------------------------------------------------------- #
# evidence queries
# --------------------------------------------------------------------- #


def _pcbc_evidence(model: CodeModel) -> List[Anchor]:
    flows = model.flows_into("pcbc_encrypt", "pcbc_decrypt")
    return [(f.file, f.line) for f in flows]


def _reads(field: str) -> EvidenceQuery:
    def query(model: CodeModel) -> List[Anchor]:
        return [(r.file, r.line) for r in model.reads_of(field)]
    return query


def _untyped_codec_evidence(model: CodeModel) -> List[Anchor]:
    classes = [c for c in model.classes_with_attr("name", "'v4'")
               if "encode" in c.methods]
    return [(c.file, c.line) for c in classes]


def _seal_private_evidence(model: CodeModel) -> List[Anchor]:
    return [(c.file, c.line) for c in model.calls_of("seal_private")]


def _unauth_time_evidence(model: CodeModel) -> List[Anchor]:
    defs = model.functions_named("sync_host_clock")
    return [(f.file, f.line) for f in defs]


# --------------------------------------------------------------------- #
# config predicates
# --------------------------------------------------------------------- #


def _no_replay_defense(config: ProtocolConfig) -> bool:
    # Either defense stops a replayed authenticator: the cache detects
    # the duplicate, challenge/response removes the replayable token.
    return not (config.replay_cache or config.challenge_response)


def _weak_tgs_mac(config: ProtocolConfig) -> bool:
    return (config.allow_enc_tkt_in_skey
            and not spec_for(config.tgs_req_checksum).collision_proof
            and not config.enc_tkt_cname_check)


def _cpa_prefix(config: ProtocolConfig) -> bool:
    return (config.krb_priv_layout == "v5draft"
            and not spec_for(config.seal_checksum).keyed
            and not config.challenge_response
            and not config.negotiate_session_key)


# --------------------------------------------------------------------- #
# the registry
# --------------------------------------------------------------------- #


RULES: Tuple[Rule, ...] = (
    Rule(
        rule_id="PCBC-SPLICE",
        severity=Severity.ERROR,
        title="PCBC mode relied on for message integrity",
        paper_section="The Encryption Layer",
        description=(
            "Key material flows into the PCBC cipher mode while "
            "KRB_PRIV messages carry no independent integrity check.  "
            "PCBC's error propagation does not survive exchanging "
            "adjacent ciphertext block pairs: a spliced message decrypts "
            "to mostly-garbled plaintext with the tail intact, so "
            "garbled-prefix-tolerant services accept it."
        ),
        config_predicate=lambda c: (c.cipher_mode == "pcbc"
                                    and not c.private_message_integrity),
        evidence=_pcbc_evidence,
    ),
    Rule(
        rule_id="PRIV-NO-INTEGRITY",
        severity=Severity.ERROR,
        title="KRB_PRIV sealed privacy-only, without a checksum",
        paper_section="The Encryption Layer",
        description=(
            "The private-channel path seals messages with the "
            "privacy-only seal_private variant and the configuration "
            "does not add a message checksum, so ciphertext tampering "
            "(block splicing under PCBC or CBC alike) is undetectable "
            "by the receiver."
        ),
        config_predicate=lambda c: not c.private_message_integrity,
        evidence=_seal_private_evidence,
    ),
    Rule(
        rule_id="WEAK-MAC",
        severity=Severity.ERROR,
        title="CRC-32 guards the cleartext TGS request fields",
        paper_section="Weak Checksums and Cut-and-Paste Attacks",
        description=(
            "The checksum protecting a TGS_REQ's cleartext fields is "
            "not collision-proof (CRC-32 is linear and forgeable "
            "without the key), the ENC-TKT-IN-SKEY option is enabled, "
            "and the cname-match requirement Draft 3 omitted is off: an "
            "attacker can rewrite the second-ticket field and splice a "
            "victim's TGT into their own request."
        ),
        config_predicate=_weak_tgs_mac,
        evidence=_reads("tgs_req_checksum"),
    ),
    Rule(
        rule_id="UNTYPED-ENC",
        severity=Severity.WARNING,
        title="V4 codec encodes fields without type tags",
        paper_section="Encoding Ambiguity",
        description=(
            "The selected wire codec packs message fields positionally "
            "with no message-type label, so bytes produced in one "
            "context can parse cleanly in another (a ticket "
            "interpretable as an authenticator and vice versa) whenever "
            "the shapes align."
        ),
        config_predicate=lambda c: getattr(c.codec, "name", "") == "v4",
        evidence=_untyped_codec_evidence,
    ),
    Rule(
        rule_id="NO-REPLAY-CACHE",
        severity=Severity.ERROR,
        title="Authenticator acceptance without a replay defense",
        paper_section="Replay Attacks",
        description=(
            "The application-server validation path only consults its "
            "replay cache when the configuration enables one, and "
            "challenge/response is off: within the clock-skew window an "
            "eavesdropped authenticator replays verbatim — including "
            "from a spoofed source address."
        ),
        config_predicate=_no_replay_defense,
        evidence=_reads("replay_cache"),
    ),
    Rule(
        rule_id="TIME-UNAUTH",
        severity=Severity.ERROR,
        title="Freshness windows fed by unauthenticated time",
        paper_section="Secure Time Services",
        description=(
            "Authenticator freshness is judged against a host clock "
            "that an unauthenticated time service can drag backwards, "
            "and no replay cache or challenge/response backstops it: a "
            "stale recorded authenticator becomes fresh again."
        ),
        config_predicate=_no_replay_defense,
        evidence=_unauth_time_evidence,
    ),
    Rule(
        rule_id="SKEY-REUSE",
        severity=Severity.ERROR,
        title="REUSE-SKEY shares one session key across services",
        paper_section="Weak Checksums and Cut-and-Paste Attacks",
        description=(
            "The KDC honours the REUSE-SKEY option, issuing tickets for "
            "different services under one multi-session key, and no "
            "true per-session key is negotiated afterwards: messages "
            "sealed for one service replay verbatim against another "
            "(the file-server/backup-server redirect)."
        ),
        config_predicate=lambda c: (c.allow_reuse_skey
                                    and not c.negotiate_session_key),
        evidence=_reads("allow_reuse_skey"),
    ),
    Rule(
        rule_id="CPA-PREFIX",
        severity=Severity.ERROR,
        title="KRB_PRIV prefix layout enables chosen-plaintext minting",
        paper_section="Inter-Session Chosen Plaintext Attacks",
        description=(
            "The Draft 3 KRB_PRIV layout puts attacker-influenced DATA "
            "first, the seal checksum is unkeyed so a valid sealed "
            "prefix can be cut at a block boundary, and authenticators "
            "(not challenge/response over a negotiated key) prove "
            "identity: a service that echoes chosen plaintext becomes "
            "an authenticator-minting oracle."
        ),
        config_predicate=_cpa_prefix,
        evidence=_reads("krb_priv_layout"),
    ),
    Rule(
        rule_id="REPLY-UNBOUND",
        severity=Severity.WARNING,
        title="KDC reply does not checksum the ticket it carries",
        paper_section="Weak Checksums and Cut-and-Paste Attacks",
        description=(
            "Nothing in the encrypted part of a KDC reply binds the "
            "cleartext ticket travelling next to it, so an intruder can "
            "substitute another ticket undetected until first use (at "
            "minimum a denial of service)."
        ),
        config_predicate=lambda c: not c.kdc_reply_ticket_checksum,
        evidence=_reads("kdc_reply_ticket_checksum"),
    ),
    Rule(
        rule_id="NO-PREAUTH",
        severity=Severity.WARNING,
        title="AS hands out password-equivalent tickets on request",
        paper_section="Password-Guessing Attacks",
        description=(
            "The AS exchange requires no proof of the user's identity "
            "before replying with material encrypted under the "
            "password-derived key, so anyone can harvest dictionary-"
            "attackable blobs for any principal."
        ),
        config_predicate=lambda c: not c.preauth_required,
        evidence=_reads("preauth_required"),
    ),
    Rule(
        rule_id="PW-EQUIV",
        severity=Severity.WARNING,
        title="Eavesdropped AS replies are password-crackable",
        paper_section="Password-Guessing Attacks",
        description=(
            "Login replies are sealed directly under the password-"
            "derived key instead of an exponential-key-exchange "
            "session key, so a passive wiretap collects verifiable "
            "ciphertext for offline dictionary attack."
        ),
        config_predicate=lambda c: not c.dh_login,
        evidence=_reads("dh_login"),
    ),
    Rule(
        rule_id="TYPED-PW",
        severity=Severity.WARNING,
        title="Typed passwords are replayable by a trojan login",
        paper_section="Spoofing Login",
        description=(
            "Login accepts the long-lived password itself rather than a "
            "one-time handheld-authenticator response, so a trojaned "
            "login program captures a credential that stays valid "
            "indefinitely."
        ),
        config_predicate=lambda c: not c.handheld_login,
        evidence=_reads("handheld_login"),
    ),
    Rule(
        rule_id="XREALM-FORGE",
        severity=Severity.ERROR,
        title="Cross-realm tickets accepted for clients of any realm",
        paper_section="Inter-Realm Authentication",
        description=(
            "The TGS does not verify that a cross-realm client's "
            "claimed realm is one the authenticating path speaks for, "
            "so a rogue realm sharing an inter-realm key can mint "
            "tickets naming principals of realms it never touched."
        ),
        config_predicate=lambda c: not c.verify_interrealm_client,
        evidence=_reads("verify_interrealm_client"),
    ),
)

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in RULES}

UNREAD_FLAG_RULE_ID = "CONFIG-FLAG-UNREAD"
UNREAD_FLAG_SECTION = "Discussion"


def _unread_flag_evidence(model: CodeModel) -> List[EvidenceSite]:
    read_fields = {read.field for read in model.config_reads}
    return [
        (info.file, attr.line,
         f"ProtocolConfig.{attr.name} is never read: the knob cannot "
         "affect the protocol")
        for info in model.classes if info.name == "ProtocolConfig"
        for attr in info.attrs if attr.name not in read_fields
    ]


#: The config-independent code rules, reported under ``CODE_COLUMN``.
#: ``CONFIG-FLAG-UNREAD``: a :class:`ProtocolConfig` field that no code
#: in the scanned tree ever reads is a defense that cannot possibly be
#: enforced — the bug class this rule exists to surface (it found the
#: ``record_transited`` flag being ignored by the KDC referral path).
CODE_RULES: Tuple[CodeRule, ...] = (
    CodeRule(
        rule_id=UNREAD_FLAG_RULE_ID,
        severity=Severity.WARNING,
        title="ProtocolConfig field read nowhere in the tree",
        description=("A configuration knob that no protocol code "
                     "consults is a defense that cannot be enforced."),
        evidence=_unread_flag_evidence,
    ),
)


# --------------------------------------------------------------------- #
# running rules
# --------------------------------------------------------------------- #


def fired_rule_ids(model: CodeModel, config: ProtocolConfig) -> List[str]:
    """Rule IDs that fire for *config* over *model*, in registry order."""
    return [rule.rule_id for rule in RULES if rule.fires(model, config)]


def run_config_rules(model: CodeModel, config: ProtocolConfig,
                     column: Optional[str] = None) -> List[Finding]:
    """Evaluate every config-level rule against one protocol column."""
    label = column if column is not None else config.label
    findings: List[Finding] = []
    for rule in RULES:
        if not rule.config_predicate(config):
            continue
        anchors = rule.anchors(model)
        if not anchors:
            continue
        file, line = anchors[0]
        findings.append(Finding(
            rule_id=rule.rule_id,
            severity=rule.severity,
            message=f"{rule.title} (config: {label})",
            file=file,
            line=line,
            column=label,
            paper_section=rule.paper_section,
        ))
    return findings


def run_all_rules(model: CodeModel,
                  columns: List[Tuple[str, ProtocolConfig]],
                  ) -> List[Finding]:
    """Code rules once, config rules per column."""
    findings = run_code_rules(CODE_RULES, model, CODE_COLUMN,
                              UNREAD_FLAG_SECTION)
    for label, config in columns:
        findings.extend(run_config_rules(model, config, label))
    return findings
