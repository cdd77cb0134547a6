"""The crypto rule family: known-bad fixtures fire, fixed twins are silent.

Every rule is exercised against a vulnerable snippet reconstructing a
real key-hygiene hazard plus a fixed twin that must stay silent, a
cross-fire test pins fixture precision, and the live tree is pinned:
``src/repro`` scans clean under the crypto family modulo the one
baselined finding (the paper's credential-cache exposure in
``ccache.py``).
"""

import pytest

from repro.lint.engine import (
    BASE_EXCLUDES, CodeModel, analyze_repro, analyze_source,
    is_crypto_secret_name,
)
from repro.lint.cryptorules import (
    CRYPTO_COLUMN, CRYPTO_PAPER_SECTION, CRYPTO_RULES, CRYPTO_RULES_BY_ID,
    ECB_ALLOWED_FILES, sealed_secret_fields,
)
from repro.lint.findings import run_code_rules


def model_of(source, file="snippet.py"):
    model = CodeModel()
    analyze_source(source, file, model)
    return model


def rule_hits(rule_id, source, file="snippet.py"):
    """Evidence sites the single rule *rule_id* finds in *source*."""
    return CRYPTO_RULES_BY_ID[rule_id].evidence(model_of(source, file))


# rule id -> (vulnerable snippet, fixed twin)
CASES = {
    "CRYPTO-SECRET-TO-LOG": (
        "def report(bus, session_key):\n"
        "    bus.emit(session_key)\n",

        "def report(bus, session_key):\n"
        "    bus.emit(digest(session_key))\n",
    ),
    "CRYPTO-SECRET-IN-ERROR": (
        "def check(session_key):\n"
        "    raise ValueError(session_key)\n",

        "def check(session_key, principal):\n"
        "    raise ValueError('bad key for %s' % principal)\n",
    ),
    "CRYPTO-NONCONST-COMPARE": (
        "def verify(key, expected_key):\n"
        "    return key == expected_key\n",

        "def verify(key, expected_key):\n"
        "    return constant_time_compare(key, expected_key)\n",
    ),
    "CRYPTO-ECB-SEAL": (
        "def protect(key, data):\n"
        "    return ecb_encrypt(key, data)\n",

        "def protect(key, data):\n"
        "    return cbc_encrypt(key, data)\n",
    ),
    "CRYPTO-KEY-IN-DEFAULT": (
        "def seal_all(data, session_key=b'\\x13\\x37\\xde\\xad'):\n"
        "    return data\n",

        "def seal_all(data, session_key=None):\n"
        "    return data\n",
    ),
    "CRYPTO-UNSEALED-FIELD": (
        "def persist(session_key):\n"
        "    return {'session_key': session_key}\n",

        "def persist(sealed_blob):\n"
        "    return {'sealed_ticket': sealed_blob}\n",
    ),
}


def test_every_crypto_rule_has_a_case():
    assert set(CASES) == set(CRYPTO_RULES_BY_ID)


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_vulnerable_snippet_fires(rule_id):
    vuln_src, _fixed_src = CASES[rule_id]
    assert rule_hits(rule_id, vuln_src), rule_id


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_fixed_twin_is_silent(rule_id):
    _vuln_src, fixed_src = CASES[rule_id]
    assert not rule_hits(rule_id, fixed_src), rule_id


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_no_cross_fire(rule_id):
    """A rule's vulnerable snippet trips only its own rule: the
    fixtures are minimal, so any extra finding is a precision bug."""
    vuln_src, _fixed = CASES[rule_id]
    findings = run_code_rules(CRYPTO_RULES, model_of(vuln_src),
                              CRYPTO_COLUMN, CRYPTO_PAPER_SECTION)
    assert {f.rule_id for f in findings} == {rule_id}
    assert all(f.column == CRYPTO_COLUMN for f in findings)


# -- the taint domain's load-bearing edges ------------------------------ #


def test_secret_name_net_includes_plural_key_stores():
    assert is_crypto_secret_name("_keys")
    assert is_crypto_secret_name("session_key")
    assert not is_crypto_secret_name("monkeys")
    assert not is_crypto_secret_name("rank")


def test_interprocedural_returner_convicts_cross_file_sink():
    """A secret-returning function defined in one file convicts a sink
    call in another — the summary join is model-wide."""
    model = CodeModel()
    analyze_source(
        "def key_of(db, principal):\n"
        "    return db._keys[principal]\n",
        "database.py", model,
    )
    analyze_source(
        "def debug(db, principal):\n"
        "    print(key_of(db, principal))\n",
        "tooling.py", model,
    )
    hits = CRYPTO_RULES_BY_ID["CRYPTO-SECRET-TO-LOG"].evidence(model)
    assert hits
    assert any("interprocedural" in message for _f, _l, message in hits)
    assert any(file == "tooling.py" for file, _l, _m in hits)


def test_fstring_interpolation_is_a_leak():
    src = ("def show(subkey):\n"
           "    return f'subkey={subkey}'\n")
    hits = rule_hits("CRYPTO-SECRET-TO-LOG", src)
    assert hits and "f-string" in hits[0][2]


def test_hex_respelling_keeps_the_taint():
    # key.hex() is the whole key re-spelled, not a digest.
    src = ("def show(key):\n"
           "    print(key.hex())\n")
    assert rule_hits("CRYPTO-SECRET-TO-LOG", src)


def test_method_result_on_key_store_is_not_the_store():
    # keys.name(rank) returns a username; the receiver must not leak
    # its taint into the result.
    src = ("def show(keys, rank):\n"
           "    print(keys.name(rank))\n")
    assert not rule_hits("CRYPTO-SECRET-TO-LOG", src)


def test_rebinding_to_sanitized_value_cleanses_the_name():
    # A generic secret-shaped name rebound from a sanitizer stops
    # counting — strong update, including for loop targets.
    src = ("def table(handles):\n"
           "    for key in sorted(handles):\n"
           "        print(key)\n")
    assert not rule_hits("CRYPTO-SECRET-TO-LOG", src)


def test_emptiness_probe_compare_is_exempt():
    src = ("def missing(key):\n"
           "    return key == b''\n")
    assert not rule_hits("CRYPTO-NONCONST-COMPARE", src)


def test_ecb_allowlist_exempts_the_handheld_path():
    vuln_src = CASES["CRYPTO-ECB-SEAL"][0]
    allowed = sorted(ECB_ALLOWED_FILES)[0]
    assert not rule_hits("CRYPTO-ECB-SEAL", vuln_src, file=allowed)


def test_module_level_key_container_fires():
    src = "HARVESTED_KEYS = [string_to_key('pw-0')]\n"
    hits = rule_hits("CRYPTO-KEY-IN-DEFAULT", src)
    assert hits and "module level" in hits[0][2]


def test_constant_wordlist_is_exempt():
    src = "COMMON_PASSWORDS = ['password', 'athena', 'mit']\n"
    assert not rule_hits("CRYPTO-KEY-IN-DEFAULT", src)


def test_sealed_fields_derive_from_the_live_schemas():
    assert sealed_secret_fields() == {"session_key", "subkey"}


def test_sealing_file_may_construct_sealed_fields():
    src = ("def issue(session_key, key):\n"
           "    body = {'session_key': session_key}\n"
           "    return seal(key, body)\n")
    assert not rule_hits("CRYPTO-UNSEALED-FIELD", src)


def test_codec_encode_helper_is_exempt():
    src = ("class Ticket:\n"
           "    def encode(self, session_key):\n"
           "        return {'session_key': session_key}\n")
    assert not rule_hits("CRYPTO-UNSEALED-FIELD", src)


# -- the registry and the live tree ------------------------------------- #


def test_rule_metadata_is_complete():
    for rule in CRYPTO_RULES:
        assert rule.rule_id.startswith("CRYPTO-")
        assert rule.title and rule.description


def test_live_tree_is_clean_modulo_the_baseline():
    """src/repro scans clean under the crypto family except the one
    baselined finding: the paper's credential-cache exposure."""
    model = analyze_repro(exclude=BASE_EXCLUDES)
    findings = run_code_rules(CRYPTO_RULES, model, CRYPTO_COLUMN,
                              CRYPTO_PAPER_SECTION)
    assert [f.fingerprint for f in findings] == [
        "CRYPTO-UNSEALED-FIELD::(crypto)::src/repro/kerberos/ccache.py",
    ]
