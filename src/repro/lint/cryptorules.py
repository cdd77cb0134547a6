"""The key-material hygiene rule family (``--family crypto``).

Every limitation the paper catalogues is, one way or another, about
where key material is allowed to flow: password-derived keys an
eavesdropper can attack offline (§ Dictionary attacks), session keys
handed to servers that should never hold them (§ Session keys), and
sealed ticket parts whose structure leaks when they are built or
shipped outside the seal.  The protocol family checks *which* messages
are sealed; this family checks that the **bytes of the keys
themselves** never reach a human- or attacker-readable surface.

The engine records a secret-provenance fact domain for this family
(:class:`~repro.lint.engine.CryptoFlow`,
:class:`~repro.lint.engine.SecretReturn` +
:class:`~repro.lint.engine.SinkInnerCall`,
:class:`~repro.lint.engine.SecretFormat`,
:class:`~repro.lint.engine.SecretCompare`,
:class:`~repro.lint.engine.SecretRaise`,
:class:`~repro.lint.engine.SecretDefault`,
:class:`~repro.lint.engine.DictLiteralKey`): taint sources are
secret-shaped names (``string_to_key``'s result, session keys, the
``_keys`` stores) with strong-update cleansing so a generic ``key``
rebound to a mapping key stops counting; sanitizers are the one-way
digests and the seal/encrypt entry points, whose results are public by
contract.  The :func:`~repro.lint.engine.CodeModel.secret_returners`
summary makes the analysis interprocedural: a ``key_of`` defined in
``database.py`` convicts a ``print(...key_of(p)...)`` in another file.

Six rules, each a :class:`~repro.lint.findings.CodeRule` whose every
evidence site is its own finding under :data:`CRYPTO_COLUMN`.  The
family reads the model of ``src/repro`` minus
:data:`~repro.lint.engine.BASE_EXCLUDES`, which it shares with the sim
family:

``CRYPTO-SECRET-TO-LOG``
    Raw key material reaches a telemetry/report sink (``emit``, tracer
    span attributes, ``print``, json ``dump``, logging) — directly, via
    string formatting (f-string/``repr``/``%``), or through a function
    the interprocedural summary knows returns secrets.
``CRYPTO-SECRET-IN-ERROR``
    A secret reaches an exception constructor inside ``raise``.  Error
    text is the least-guarded output path in the tree: it crosses the
    wire in KRB_ERROR bodies and lands in every operator log.
``CRYPTO-NONCONST-COMPARE``
    Key or verifier equality via ``==``/``!=``.  Byte-wise comparison
    returns early on the first mismatch, so response timing leaks how
    many leading bytes matched — use
    :func:`repro.crypto.checksum.constant_time_compare`.
``CRYPTO-ECB-SEAL``
    ``ecb_encrypt``/``ecb_decrypt`` outside the paper-faithful
    allowlist.  ECB's per-block independence is exactly the
    cut-and-paste surface § Encryption weaknesses describes; the only
    legitimate use is the handheld challenge-reply, a single block by
    construction.
``CRYPTO-KEY-IN-DEFAULT``
    Key material baked into a parameter default or captured in a
    module/class-level mutable container: it outlives every session
    and is shared across every caller.
``CRYPTO-UNSEALED-FIELD``
    A dict literal populating a sealed-part secret field
    (``session_key``/``subkey`` — computed from
    :data:`repro.kerberos.messages.SEALED_PARTS`) in a file that never
    calls ``seal``/``seal_private``, outside the codec ``encode``
    helpers whose callers own the seal obligation.  This is the §
    credential-cache exposure: plaintext key bytes at rest.

The static verdict is pinned by a dynamic witness:
:mod:`repro.lint.cryptoconsistency` plants canary key bytes in a
testbed realm, runs the attack matrix plus a quick load run, and scans
every emitted artifact for unsealed canary escapes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.lint.engine import CodeModel, is_crypto_secret_name
from repro.lint.findings import CodeRule, EvidenceSite, Severity

__all__ = [
    "CRYPTO_COLUMN", "CRYPTO_PAPER_SECTION", "ECB_ALLOWED_FILES",
    "CRYPTO_RULES", "CRYPTO_RULES_BY_ID", "sealed_secret_fields",
]

#: Column label on every crypto-family finding (key hygiene is a
#: property of the code, not of a protocol column).
CRYPTO_COLUMN = "(crypto)"

#: The paper section the family reproduces evidence for.
CRYPTO_PAPER_SECTION = "Key management"

#: Files allowed to call ``ecb_encrypt``/``ecb_decrypt``: the mode's
#: definition site and the handheld challenge-reply path (KDC + client
#: + authenticator device), which encrypts exactly one block by
#: construction.
ECB_ALLOWED_FILES: FrozenSet[str] = frozenset({
    "src/repro/crypto/modes.py",
    "src/repro/hardware/handheld.py",
    "src/repro/kerberos/kdc.py",
    "src/repro/kerberos/client.py",
})


def sealed_secret_fields() -> FrozenSet[str]:
    """Secret-named BYTES fields of the sealed structures.

    Computed from the live schema registry so the rule and the wire
    format cannot drift apart: today ``{"session_key", "subkey"}``.
    """
    from repro.encoding.codec import FieldKind
    from repro.kerberos import messages

    fields = set()
    for schema in messages.ALL_SCHEMAS:
        if schema.name not in messages.SEALED_PARTS:
            continue
        for field in schema.fields:
            if field.kind is FieldKind.BYTES and \
                    is_crypto_secret_name(field.name):
                fields.add(field.name)
    return frozenset(fields)


# --------------------------------------------------------------------- #
# evidence queries
# --------------------------------------------------------------------- #


def _to_log_evidence(model: CodeModel) -> List[EvidenceSite]:
    out: List[EvidenceSite] = []
    for flow in model.crypto_flows:
        out.append((flow.file, flow.line, (
            f"raw key material '{flow.secret}' reaches output sink "
            f"{flow.callee}(): telemetry and reports are readable by "
            "parties who must never hold key bytes"
        )))
    for fmt in model.secret_formats:
        spell = {"fstring": "an f-string", "repr": "repr()",
                 "str": "str()", "format": "format()",
                 "percent": "%-formatting"}.get(fmt.via, fmt.via)
        out.append((fmt.file, fmt.line, (
            f"secret '{fmt.secret}' interpolated into {spell}: "
            "formatted text is en route to logs, errors, or reports"
        )))
    returners = model.secret_returners()
    for call in model.sink_inner_calls:
        if call.inner in returners:
            out.append((call.file, call.line, (
                f"{call.inner}() returns key material and its result "
                f"feeds output sink {call.sink}() (interprocedural: "
                "the returning function may live in another file)"
            )))
    return sorted(out)


def _in_error_evidence(model: CodeModel) -> List[EvidenceSite]:
    out: List[EvidenceSite] = []
    for site in model.secret_raises:
        out.append((site.file, site.line, (
            f"secret '{site.secret}' reaches an exception message in "
            f"{site.function}: error text crosses the wire in "
            "KRB_ERROR bodies and lands in operator logs"
        )))
    return sorted(out)


def _compare_evidence(model: CodeModel) -> List[EvidenceSite]:
    out: List[EvidenceSite] = []
    for site in model.secret_compares:
        out.append((site.file, site.line, (
            f"variable-time ==/!= on secret '{site.secret}' in "
            f"{site.function}: early-exit comparison leaks the length "
            "of the matching prefix through response timing; use "
            "constant_time_compare()"
        )))
    return sorted(out)


def _ecb_evidence(model: CodeModel) -> List[EvidenceSite]:
    out: List[EvidenceSite] = []
    for call in model.calls:
        if call.callee not in ("ecb_encrypt", "ecb_decrypt"):
            continue
        if call.file in ECB_ALLOWED_FILES:
            continue
        out.append((call.file, call.line, (
            f"{call.callee}() outside the single-block allowlist: ECB "
            "seals equal plaintext blocks to equal ciphertext blocks — "
            "the paper's cut-and-paste surface"
        )))
    return sorted(out)


def _default_evidence(model: CodeModel) -> List[EvidenceSite]:
    out: List[EvidenceSite] = []
    for site in model.secret_defaults:
        if site.kind == "default":
            what = (f"parameter '{site.name}' of {site.function} bakes "
                    "key material into its default")
        else:
            where = ("module level" if site.kind == "module-global"
                     else "class level")
            what = (f"secret '{site.name}' captured in a mutable "
                    f"container at {where}")
        out.append((site.file, site.line, (
            f"{what}: it outlives every session and is shared by "
            "every caller"
        )))
    return sorted(out)


def _unsealed_evidence(model: CodeModel) -> List[EvidenceSite]:
    fields = sealed_secret_fields()
    sealing_files = model.files_calling("seal", "seal_private")
    out: List[EvidenceSite] = []
    for entry in model.dict_literal_keys:
        if entry.key not in fields or entry.value_empty:
            continue
        if entry.file in sealing_files:
            continue
        # The codec encode() helpers produce the sealed-part plaintext
        # by definition; their *callers* own the seal obligation, and
        # the protocol family checks that they honour it.
        if entry.function.rsplit(".", 1)[-1] == "encode":
            continue
        out.append((entry.file, entry.line, (
            f"sealed-part field '{entry.key}' constructed with live "
            "key bytes in a file that never seals: plaintext key "
            "material at rest (the credential-cache exposure)"
        )))
    return sorted(out)


# --------------------------------------------------------------------- #
# the registry
# --------------------------------------------------------------------- #


CRYPTO_RULES: Tuple[CodeRule, ...] = (
    CodeRule(
        rule_id="CRYPTO-SECRET-TO-LOG",
        severity=Severity.ERROR,
        title="Key material reaches a telemetry or report sink",
        description=(
            "Raw key bytes flowing into emit()/span attributes/print/"
            "json dumps/logging — directly, via string formatting, or "
            "through a secret-returning function — end up in artifacts "
            "(JSONL sinks, traces, BENCH reports) that operators and "
            "CI store in the clear.  Log a digest() or fingerprint() "
            "instead; sealed ciphertext is fine."
        ),
        evidence=_to_log_evidence,
    ),
    CodeRule(
        rule_id="CRYPTO-SECRET-IN-ERROR",
        severity=Severity.ERROR,
        title="Key material reaches an exception message",
        description=(
            "Exception text is the least-guarded output path: KRB_ERROR "
            "carries it across the wire in cleartext and every operator "
            "log records it.  Name the key (handle index, principal), "
            "never its bytes."
        ),
        evidence=_in_error_evidence,
    ),
    CodeRule(
        rule_id="CRYPTO-NONCONST-COMPARE",
        severity=Severity.WARNING,
        title="Variable-time comparison of key or verifier material",
        description=(
            "==/!= on bytes returns at the first mismatching byte, so "
            "an attacker measuring response time learns how many "
            "leading bytes of a guessed key or verifier matched — an "
            "oracle that turns offline dictionary attack into online "
            "byte-at-a-time search.  Use constant_time_compare(); "
            "emptiness probes (== b\"\") are exempt."
        ),
        evidence=_compare_evidence,
    ),
    CodeRule(
        rule_id="CRYPTO-ECB-SEAL",
        severity=Severity.ERROR,
        title="ECB used outside the single-block allowlist",
        description=(
            "ECB seals equal plaintext blocks to equal ciphertext "
            "blocks, so structured multi-block plaintext leaks its "
            "repetition pattern and supports block-level cut-and-paste "
            "— the paper's encryption-weakness surface.  The one "
            "paper-faithful use is the handheld challenge-reply, a "
            "single DES block by construction."
        ),
        evidence=_ecb_evidence,
    ),
    CodeRule(
        rule_id="CRYPTO-KEY-IN-DEFAULT",
        severity=Severity.WARNING,
        title="Key material in a default or module/class container",
        description=(
            "A secret baked into a parameter default or captured in a "
            "module/class-level mutable container has process lifetime "
            "and global sharing: every caller sees it, no session "
            "teardown clears it, and test pollution propagates it.  "
            "Pass keys explicitly; fixture wordlists of plain "
            "constants are exempt."
        ),
        evidence=_default_evidence,
    ),
    CodeRule(
        rule_id="CRYPTO-UNSEALED-FIELD",
        severity=Severity.ERROR,
        title="Sealed-part secret field constructed outside a seal",
        description=(
            "session_key/subkey are BYTES fields of SEALED_PARTS "
            "structures: any dict literal giving them live key bytes "
            "in a file that never calls seal()/seal_private() is "
            "plaintext key material at rest — the credential-cache "
            "exposure the paper warns about.  The codec encode() "
            "helpers are exempt; their callers own the seal."
        ),
        evidence=_unsealed_evidence,
    ),
)

CRYPTO_RULES_BY_ID: Dict[str, CodeRule] = {
    rule.rule_id: rule for rule in CRYPTO_RULES
}
