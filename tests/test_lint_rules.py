"""The rule registry: vulnerable/fixed snippet and config pairs.

Every rule couples a config predicate with a code-evidence query, so
each case here checks all three quadrants that matter: vulnerable
snippet + vulnerable config fires; the fixed snippet silences the rule
under the same vulnerable config; the fixed config silences it over the
same vulnerable snippet.
"""

import pytest

from repro.kerberos.config import ProtocolConfig
from repro.lint.engine import CodeModel, analyze_repro, analyze_source
from repro.lint.rules import (
    CODE_COLUMN, RULES, RULES_BY_ID, UNREAD_FLAG_RULE_ID, fired_rule_ids,
    run_all_rules, run_config_rules,
)
from repro.suite import SCENARIOS


def model_of(source, file="snippet.py"):
    model = CodeModel()
    analyze_source(source, file, model)
    return model


def reads(field):
    return f"def check(config):\n    return config.{field}\n"


V4 = ProtocolConfig.v4()
D3 = ProtocolConfig.v5_draft3()
HARD = ProtocolConfig.hardened()

# rule id -> (vulnerable snippet, fixed snippet, vulnerable cfg, fixed cfg)
CASES = {
    "PCBC-SPLICE": (
        "def seal(key, data):\n    return pcbc_encrypt(key, data)\n",
        "def seal(key, data):\n    return cbc_encrypt(key, data)\n",
        V4,
        V4.but(private_message_integrity=True),
    ),
    "PRIV-NO-INTEGRITY": (
        "def send(unit, data):\n    return seal_private(unit, data)\n",
        "def send(unit, data):\n    return seal_checked(unit, data)\n",
        V4,
        V4.but(private_message_integrity=True),
    ),
    "WEAK-MAC": (
        reads("tgs_req_checksum"),
        reads("replay_cache"),
        D3,
        D3.but(enc_tkt_cname_check=True),
    ),
    "UNTYPED-ENC": (
        "class V4Codec:\n    name = 'v4'\n    def encode(self):\n"
        "        pass\n",
        "class V5Codec:\n    name = 'v5'\n    def encode(self):\n"
        "        pass\n",
        V4,
        D3,
    ),
    "NO-REPLAY-CACHE": (
        reads("replay_cache"),
        reads("dh_login"),
        V4,
        V4.but(replay_cache=True),
    ),
    "TIME-UNAUTH": (
        "def sync_host_clock(offset):\n    pass\n",
        "def sync_signed_clock(offset):\n    pass\n",
        V4,
        V4.but(challenge_response=True),
    ),
    "SKEY-REUSE": (
        reads("allow_reuse_skey"),
        reads("dh_login"),
        D3,
        D3.but(negotiate_session_key=True),
    ),
    "CPA-PREFIX": (
        reads("krb_priv_layout"),
        reads("dh_login"),
        D3,
        D3.but(negotiate_session_key=True),
    ),
    "REPLY-UNBOUND": (
        reads("kdc_reply_ticket_checksum"),
        reads("dh_login"),
        V4,
        V4.but(kdc_reply_ticket_checksum=True),
    ),
    "NO-PREAUTH": (
        reads("preauth_required"),
        reads("dh_login"),
        V4,
        V4.but(preauth_required=True),
    ),
    "PW-EQUIV": (
        reads("dh_login"),
        reads("preauth_required"),
        V4,
        V4.but(dh_login=True),
    ),
    "TYPED-PW": (
        reads("handheld_login"),
        reads("dh_login"),
        V4,
        V4.but(handheld_login=True),
    ),
    "XREALM-FORGE": (
        reads("verify_interrealm_client"),
        reads("dh_login"),
        V4,
        V4.but(verify_interrealm_client=True),
    ),
}


def test_every_rule_has_a_case():
    assert set(CASES) == set(RULES_BY_ID)


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_vulnerable_pair_fires(rule_id):
    vuln_src, _fixed_src, vuln_cfg, _fixed_cfg = CASES[rule_id]
    assert RULES_BY_ID[rule_id].fires(model_of(vuln_src), vuln_cfg)


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_fixed_snippet_is_silent(rule_id):
    _vuln_src, fixed_src, vuln_cfg, _fixed_cfg = CASES[rule_id]
    assert not RULES_BY_ID[rule_id].fires(model_of(fixed_src), vuln_cfg)


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_fixed_config_is_silent(rule_id):
    vuln_src, _fixed_src, _vuln_cfg, fixed_cfg = CASES[rule_id]
    assert not RULES_BY_ID[rule_id].fires(model_of(vuln_src), fixed_cfg)


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_hardened_config_is_silent(rule_id):
    vuln_src = CASES[rule_id][0]
    assert not RULES_BY_ID[rule_id].fires(model_of(vuln_src), HARD)


def test_registry_ids_unique_and_stable():
    ids = [rule.rule_id for rule in RULES]
    assert len(ids) == len(set(ids))
    for rule in RULES:
        assert rule.paper_section
        assert rule.description


def test_finding_anchored_at_first_evidence_site():
    model = model_of(reads("preauth_required"), file="auth.py")
    findings = run_config_rules(model, V4, column="v4")
    assert [f.rule_id for f in findings] == ["NO-PREAUTH"]
    assert findings[0].file == "auth.py"
    assert findings[0].line == 2
    assert findings[0].column == "v4"
    assert "config: v4" in findings[0].message


def test_unread_config_flag_reported():
    model = model_of(
        "class ProtocolConfig:\n"
        "    replay_cache = False\n"
        "    dh_login = False\n"
        "def check(config):\n"
        "    return config.replay_cache\n",
        file="config.py",
    )
    findings = run_all_rules(model, [])
    assert [f.rule_id for f in findings] == [UNREAD_FLAG_RULE_ID]
    assert "dh_login" in findings[0].message
    assert findings[0].column == CODE_COLUMN


def test_run_all_rules_is_code_rules_plus_per_column():
    model = model_of(reads("preauth_required"))
    findings = run_all_rules(model, [("v4", V4), ("hardened", HARD)])
    # no ProtocolConfig class in the snippet -> no code findings; the
    # hardened column is silent; v4 yields exactly NO-PREAUTH.
    assert [(f.rule_id, f.column) for f in findings] == \
        [("NO-PREAUTH", "v4")]


def test_every_mapped_rule_exists():
    for scenario in SCENARIOS:
        for rule_id in scenario.rule_ids:
            assert rule_id in RULES_BY_ID, (scenario.name, rule_id)


def test_static_predictions_over_the_real_tree():
    """The headline numbers the paper reproduction promises: the v4
    column trips at least five distinct rules, v5-draft3 adds its
    option-abuse findings, and hardened is silent."""
    model = analyze_repro()
    v4 = set(fired_rule_ids(model, ProtocolConfig.v4()))
    d3 = set(fired_rule_ids(model, ProtocolConfig.v5_draft3()))
    hardened = fired_rule_ids(model, ProtocolConfig.hardened())
    assert len(v4) >= 5
    assert {"NO-REPLAY-CACHE", "PCBC-SPLICE", "XREALM-FORGE"} <= v4
    assert {"WEAK-MAC", "SKEY-REUSE", "CPA-PREFIX"} <= d3
    assert hardened == []
