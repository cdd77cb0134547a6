"""Fixtures shared by the CLI tests of the matrix witnesses."""

import pytest

from repro.attacks.base import AttackResult


@pytest.fixture
def flipped_replay(monkeypatch):
    """Make the live attack matrix report the authenticator replay as
    winning in every column, so its hardened cell (AUTH-REPLAY)
    disagrees with the checker and lint.  Returns the patched runner
    for modules that imported the real one by name."""
    import repro.suite

    real = repro.suite.run_attack_matrix

    def flipped(*args, **kwargs):
        matrix = real(*args, **kwargs)
        for name, column in list(matrix.cells):
            if name == "authenticator replay":
                matrix.cells[(name, column)] = AttackResult(
                    name, True, "flipped")
        return matrix

    monkeypatch.setattr(repro.suite, "run_attack_matrix", flipped)
    return flipped
