"""The packaged evaluation matrix (repro.suite)."""

import pytest

from repro.crypto.des import BLOCK_OPS
from repro.kerberos.config import ProtocolConfig
from repro.suite import (
    DEFAULT_COLUMNS, SCENARIOS, MatrixResult, run_attack_matrix,
)

# A representative slice: replay (hardened trips its cache), harvest and
# eavesdrop (the password-guessing cells whose DES-op counts exposed the
# cross-cell memo leak), and minting (a Draft-3 signature attack).
_SUBSET = [
    s for s in SCENARIOS
    if s.name in ("authenticator replay", "TGT harvest + crack",
                  "eavesdrop + crack", "authenticator minting")
]


@pytest.fixture(scope="module")
def matrix() -> MatrixResult:
    return run_attack_matrix()


def test_every_cell_populated(matrix):
    assert len(matrix.cells) == len(SCENARIOS) * len(DEFAULT_COLUMNS)


def test_hardened_column_is_clean(matrix):
    assert matrix.hardened_clean()


def test_draft3_loses_to_its_signature_attacks(matrix):
    for scenario in ("authenticator minting", "ENC-TKT-IN-SKEY cut-and-paste",
                     "REUSE-SKEY redirect", "rogue transit realm"):
        assert matrix.outcome(scenario, "v5-draft3"), scenario


def test_v4_loses_to_the_classics(matrix):
    for scenario in ("authenticator replay", "TGT harvest + crack",
                     "eavesdrop + crack", "trojaned login",
                     "KRB_PRIV splicing"):
        assert matrix.outcome(scenario, "v4"), scenario


def test_v4_immune_to_draft3_specific_attacks(matrix):
    for scenario in ("authenticator minting", "ENC-TKT-IN-SKEY cut-and-paste",
                     "REUSE-SKEY redirect"):
        assert not matrix.outcome(scenario, "v4"), scenario


def test_render_shape(matrix):
    text = matrix.render()
    assert "hardened" in text
    assert text.count("\n") >= len(SCENARIOS) + 3
    assert "ATTACK WINS" in text and "blocked" in text


def test_scenarios_carry_paper_sections():
    assert all(s.paper_section for s in SCENARIOS)


def test_custom_columns_and_subset():
    subset = [s for s in SCENARIOS if s.name == "authenticator replay"]
    result = run_attack_matrix(
        columns=[("cr", ProtocolConfig.v4().but(challenge_response=True))],
        scenarios=subset,
    )
    assert not result.outcome("authenticator replay", "cr")


def test_matrix_is_deterministic():
    a = run_attack_matrix(scenarios=SCENARIOS[:2])
    b = run_attack_matrix(scenarios=SCENARIOS[:2])
    assert {k: v.succeeded for k, v in a.cells.items()} == \
        {k: v.succeeded for k, v in b.cells.items()}


def test_every_cell_is_metered(matrix):
    assert all(cell.block_ops is not None and cell.block_ops > 0
               for cell in matrix.cells.values())


def test_global_counter_is_sum_of_cell_ops():
    """E18-style accounting reads the global meter after the fact, so a
    matrix run must move it by exactly the per-cell counts."""
    BLOCK_OPS.reset()
    result = run_attack_matrix(scenarios=_SUBSET)
    assert BLOCK_OPS.reset() == sum(
        cell.block_ops for cell in result.cells.values()
    )


def test_serial_cells_independent_of_run_order():
    """A cell's DES-op count is a property of the cell, not of what ran
    before it in the same process (the guess-memo isolation)."""
    crack = [s for s in SCENARIOS if s.name == "TGT harvest + crack"]
    index = _SUBSET.index(crack[0])  # its seed slot inside the subset run
    columns = [("v4", ProtocolConfig.v4())]
    alone = run_attack_matrix(columns=columns, scenarios=crack,
                              seed=1000 + index)
    full = run_attack_matrix(scenarios=_SUBSET)
    assert alone.cells[("TGT harvest + crack", "v4")].block_ops == \
        full.cells[("TGT harvest + crack", "v4")].block_ops


def test_default_columns_unchanged():
    assert [label for label, _ in DEFAULT_COLUMNS] == \
        ["v4", "v5-draft3", "hardened"]
